"""Natural-loop and dominator analysis over the *mid-level IR* CFG.

:mod:`repro.cfg.loops` analyzes the machine-level CFG that QPT rebuilds
from an executable; the scalar-evolution analysis and the loop-shape
passes need the same structure *before* code generation, over
``repro.bcc.ir`` functions.  This module provides it without importing
the compiler: it duck-types over any block object exposing a ``label``
string and a ``successor_labels()`` iterable, so the dependency points
the same way as the rest of :mod:`repro.cfg` (compiler imports cfg,
never the reverse).  The DFS and natural-loop cores are the machine
level's own (:mod:`repro.cfg.loops`), reached through label maps;
dominators are likewise shared via ``_iterative_idoms``.

Everything is computed on the subgraph *reachable from the entry block*
(the first block).  Unreachable blocks legitimately exist mid-pipeline —
``simplify-cfg`` sweeps them later — and must not perturb dominators or
loop membership.

The analysis also reports *reducibility*: a retreating DFS edge whose
target does not dominate its source means a multi-entry cycle, which no
output of the structured BLC front end (or any shape-preserving pass)
should ever contain.  The IR verifier's V016 rule is built on
:attr:`IRLoopNest.retreating_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.cfg.dominators import _iterative_idoms
from repro.cfg.loops import _natural_loop, _retreating_edges

__all__ = ["IRLoop", "IRLoopNest", "compute_ir_loops"]


class SupportsIRBlock(Protocol):
    """Structural type for the blocks this module analyzes."""

    label: str

    def successor_labels(self) -> Iterable[str]: ...


class _Node:
    """Per-block wrapper giving each label a unique identity.

    :func:`repro.cfg.dominators._iterative_idoms` compares vertices with
    ``is`` and keys them by ``id``; label strings are unsafe there (two
    equal labels from different terminators need not be the same
    object), and ``repro.bcc.ir.IRBlock`` is an eq-comparable dataclass
    and therefore unhashable.  One wrapper per reachable block restores
    the identity semantics the algorithm needs.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<node {self.label}>"


@dataclass(frozen=True)
class IRLoop:
    """One natural loop of an IR function."""

    #: the loop head (target of the back edges)
    head: str
    #: every block label in ``nat_loop(head)`` (includes the head)
    body: frozenset[str]
    #: back-edge sources, in block order
    latches: tuple[str, ...]
    #: edges ``(src, dst)`` with ``src`` in the body and ``dst`` outside
    exit_edges: tuple[tuple[str, str], ...]


class IRLoopNest:
    """Dominators, back edges, and natural loops of one IR function."""

    def __init__(self, entry: str, labels: tuple[str, ...],
                 idom: dict[str, str | None],
                 preds: dict[str, tuple[str, ...]],
                 back_edges: tuple[tuple[str, str], ...],
                 retreating_violations: tuple[tuple[str, str], ...],
                 loops: dict[str, IRLoop]) -> None:
        self.entry = entry
        #: reachable block labels, in function block order
        self.labels = labels
        #: immediate dominator of each reachable label (entry maps to None)
        self.idom = idom
        #: predecessor labels of each reachable label
        self.preds = preds
        #: DFS retreating edges ``(src, dst)``
        self.back_edges = back_edges
        #: retreating edges whose target does not dominate their source
        self.retreating_violations = retreating_violations
        #: loop head label -> natural loop
        self.loops = loops
        self._depth: dict[str, int] = {}
        for label in idom:
            self._dom_depth(label)

    @property
    def reducible(self) -> bool:
        """True when every retreating edge is a proper back edge."""
        return not self.retreating_violations

    def _dom_depth(self, label: str) -> int:
        depth = self._depth.get(label)
        if depth is not None:
            return depth
        parent = self.idom.get(label)
        depth = 0 if parent is None else self._dom_depth(parent) + 1
        self._depth[label] = depth
        return depth

    def dominates(self, a: str, b: str) -> bool:
        """True if block *a* dominates block *b* (reflexively)."""
        if a not in self._depth or b not in self._depth:
            return False
        while self._depth[b] > self._depth[a]:
            parent = self.idom[b]
            assert parent is not None
            b = parent
        return a == b

    def loop_depth(self, label: str) -> int:
        """Number of natural loops whose body contains *label*."""
        return sum(1 for loop in self.loops.values() if label in loop.body)

    def loops_containing(self, label: str) -> list[IRLoop]:
        """Loops whose body contains *label*, outermost first."""
        inside = [lp for lp in self.loops.values() if label in lp.body]
        inside.sort(key=lambda lp: len(lp.body), reverse=True)
        return inside


def compute_ir_loops(blocks: list[SupportsIRBlock]) -> IRLoopNest:
    """Analyze the reachable CFG of an IR function's block list.

    The first block is the entry.  Successor labels that resolve to no
    block are ignored (the IR verifier reports those separately).
    """
    if not blocks:
        raise ValueError("cannot analyze a function with no blocks")
    by_label = {b.label: b for b in blocks}
    entry = blocks[0].label

    # Reachable subgraph, preserving block order for determinism.
    nodes: dict[str, _Node] = {entry: _Node(entry)}
    succs: dict[_Node, list[_Node]] = {}
    preds: dict[_Node, list[_Node]] = {}
    work = [entry]
    while work:
        label = work.pop()
        node = nodes[label]
        succ_nodes: list[_Node] = []
        for target in by_label[label].successor_labels():
            if target not in by_label:
                continue
            succ = nodes.get(target)
            if succ is None:
                succ = nodes[target] = _Node(target)
                work.append(target)
            succ_nodes.append(succ)
            preds.setdefault(succ, []).append(node)
        succs[node] = succ_nodes

    labels = tuple(b.label for b in blocks if b.label in nodes)

    idom_nodes = _iterative_idoms(nodes[entry], succs, preds)
    idom: dict[str, str | None] = {}
    for label in labels:
        parent = idom_nodes.get(nodes[label])
        idom[label] = None if parent is None else parent.label

    pred_labels = {
        label: tuple(p.label for p in preds.get(nodes[label], ()))
        for label in labels
    }

    back_edges = tuple(
        (src.label, dst.label) for src, dst in
        _retreating_edges(nodes[entry], lambda n: succs.get(n, ())))

    nest = IRLoopNest(entry, labels, idom, pred_labels, back_edges, (), {})
    violations = tuple((src, dst) for src, dst in back_edges
                       if not nest.dominates(dst, src))
    nest.retreating_violations = violations

    bad = set(violations)
    tails_by_head: dict[str, list[str]] = {}
    for src, dst in back_edges:
        if (src, dst) not in bad:
            tails_by_head.setdefault(dst, []).append(src)
    order = {label: i for i, label in enumerate(labels)}
    for head, tails in tails_by_head.items():
        body = _natural_loop(head, tails,
                             lambda label: pred_labels.get(label, ()))
        exits: list[tuple[str, str]] = []
        for label in sorted(body, key=order.__getitem__):
            for target in by_label[label].successor_labels():
                if target in by_label and target not in body:
                    exits.append((label, target))
        nest.loops[head] = IRLoop(
            head=head, body=frozenset(body),
            latches=tuple(sorted(tails, key=order.__getitem__)),
            exit_edges=tuple(exits))
    return nest
