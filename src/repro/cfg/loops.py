"""Natural-loop analysis, exactly as Section 3 of the paper defines it.

* **Back edges** are identified by a depth-first search of the CFG from the
  root vertex (edge ``u -> v`` is a back edge iff ``v`` is an ancestor of
  ``u`` on the DFS stack). For the reducible CFGs our compiler produces this
  coincides with the dominance-based definition.
* Each target of one or more back edges is a **loop head** ``y``, and::

      nat_loop(y) = {y} ∪ {w | ∃ back edge x->y and a y-free path from w to x}

* An edge ``v -> w`` is an **exit edge** if ``v ∈ nat_loop(y)`` and
  ``w ∉ nat_loop(y)`` for some loop head ``y``.
* A **preheader** is a block that unconditionally passes control to a loop
  head that it dominates (used by the non-loop Loop heuristic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.cfg.dominators import DominatorInfo, compute_dominators
from repro.cfg.graph import BasicBlock, ControlFlowGraph, Edge

__all__ = ["LoopInfo", "analyze_loops"]

N = TypeVar("N")


@dataclass
class LoopInfo:
    """Results of natural-loop analysis over one CFG."""

    cfg: ControlFlowGraph
    #: back edges, as (src, dst) block pairs
    back_edges: set[tuple[BasicBlock, BasicBlock]] = field(default_factory=set)
    #: loop head -> set of blocks in nat_loop(head)
    loops: dict[BasicBlock, set[BasicBlock]] = field(default_factory=dict)
    #: exit edges, as (src, dst) block pairs
    exit_edges: set[tuple[BasicBlock, BasicBlock]] = field(default_factory=set)
    #: blocks that unconditionally enter a loop head they dominate
    preheaders: set[BasicBlock] = field(default_factory=set)

    @property
    def heads(self) -> set[BasicBlock]:
        """Loop-head blocks."""
        return set(self.loops)

    def is_back_edge(self, edge: Edge) -> bool:
        return (edge.src, edge.dst) in self.back_edges

    def is_exit_edge(self, edge: Edge) -> bool:
        return (edge.src, edge.dst) in self.exit_edges

    def is_loop_head(self, block: BasicBlock) -> bool:
        return block in self.loops

    def is_preheader(self, block: BasicBlock) -> bool:
        return block in self.preheaders

    def loop_depth(self, block: BasicBlock) -> int:
        """Number of natural loops containing *block*."""
        return sum(1 for body in self.loops.values() if block in body)

    def is_backward_branch_edge(self, edge: Edge) -> bool:
        """True if the edge transfers control to a lower address — the naive
        'backwards branch' definition the paper improves upon."""
        return edge.dst.start_address <= edge.src.end_address


def _retreating_edges(entry: N, successors: Callable[[N], Iterable[N]]
                      ) -> list[tuple[N, N]]:
    """Edges ``u -> v`` with ``v`` on the DFS stack (an ancestor of ``u``),
    in discovery order, via iterative DFS from *entry*.

    The one DFS core for both CFG levels: nodes are compared by identity,
    and *successors* is how a level reaches a node's children.
    """
    seen = {id(entry)}
    on_stack = {id(entry)}
    out: list[tuple[N, N]] = []
    stack = [(entry, iter(successors(entry)))]
    while stack:
        node, children = stack[-1]
        for child in children:
            key = id(child)
            if key in on_stack:
                out.append((node, child))
            elif key not in seen:
                seen.add(key)
                on_stack.add(key)
                stack.append((child, iter(successors(child))))
                break
        else:
            on_stack.discard(id(node))
            stack.pop()
    return out


def _natural_loop(head: N, tails: Iterable[N],
                  predecessors: Callable[[N], Iterable[N]]) -> set[N]:
    """Union of ``nat_loop`` bodies for all back edges ``tail -> head``."""
    body = {head}
    work = [t for t in tails if t not in body]
    body.update(work)
    while work:
        node = work.pop()
        for pred in predecessors(node):
            if pred not in body:
                body.add(pred)
                work.append(pred)
    return body


def analyze_loops(
    cfg: ControlFlowGraph, dom: DominatorInfo | None = None
) -> LoopInfo:
    """Run natural-loop analysis on *cfg*.

    *dom* may be supplied to avoid recomputing dominators (needed for
    preheader identification); it is computed on demand otherwise.
    """
    info = LoopInfo(cfg)
    info.back_edges = set(_retreating_edges(cfg.entry,
                                            lambda b: b.successors))

    tails_by_head: dict[BasicBlock, list[BasicBlock]] = {}
    for src, dst in info.back_edges:
        tails_by_head.setdefault(dst, []).append(src)

    for head, tails in tails_by_head.items():
        info.loops[head] = _natural_loop(head, tails,
                                         lambda b: b.predecessors)

    for head, body in info.loops.items():
        for block in body:
            for edge in block.out_edges:
                if edge.dst not in body:
                    info.exit_edges.add((edge.src, edge.dst))

    if dom is None:
        dom = compute_dominators(cfg)
    for block in cfg.blocks:
        if len(block.out_edges) == 1:
            succ = block.out_edges[0].dst
            if succ in info.loops and dom.dominates(block, succ):
                info.preheaders.add(block)

    return info
