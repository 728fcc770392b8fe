"""Layer tracing for the benchmark's traced runs.

The benchmark records its own spans around calls into each layer's public
functions; the program under test is not modified.  :func:`install`
replaces every target function (and every module attribute that had been
bound to it by ``from ... import``) with a timing wrapper that feeds a
:class:`SpanAccumulator`.  The accumulator keeps, per span key, the number
of calls and the *self* time: a span's duration minus the part covered by
the spans nested inside it.  Self times of all keys therefore add up to
the time spent inside outermost spans, never more.

Run as a module, it is the child process of a traced unit::

    python -m perfbench.tracer OUT.json repro.harness --cache DIR --jobs 1

It imports the entry module (timed as ``startup.import``), installs the
wrappers and a :mod:`repro.telemetry` sink (for the program's own
``sim.*``/``bcc.*`` counters), runs the entry point's ``main`` with the
remaining arguments and writes the span aggregates and counters to
``OUT.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

#: (module, attribute path, span key).  The key's first component is the
#: layer the span's self time is attributed to.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.machine", "Machine.run", "sim.run"),
    ("repro.sim.profile", "EdgeProfile.on_events", "sim.observer"),
    ("repro.sim.trace", "SequenceAnalyzer.on_events", "sim.observer"),
    ("repro.sim.traces", "TraceCache.compile", "sim.tier1.compile"),
    ("repro.bcc.parser", "parse", "bcc.frontend"),
    ("repro.bcc.sema", "analyze", "bcc.frontend"),
    ("repro.bcc.opt", "optimize_program", "bcc.opt"),
    ("repro.bcc.irgen", "generate_ir", "bcc.irgen"),
    ("repro.bcc.codegen", "generate_assembly", "bcc.codegen"),
    ("repro.bcc.driver", "compile_and_link", "bcc.driver"),
    ("repro.bcc.driver", "compile_to_ir", "bcc.driver"),
    ("repro.isa.assembler", "assemble", "isa.assemble"),
    ("repro.core.classify", "classify_branches", "core.classify"),
    ("repro.core.orders", "subset_experiment", "core.orders.subset"),
    ("repro.core.orders", "miss_rate_matrix", "core.orders.matrix"),
    ("repro.core.orders", "pairwise_order", "core.orders.matrix"),
    ("repro.core.sequences", "sequence_experiment", "core.sequences"),
    ("repro.analysis.branches", "analyze_branch_evidence",
     "analysis.evidence"),
    ("repro.analysis.interproc", "interprocedural_ranges",
     "analysis.interproc"),
    ("repro.analysis.interproc", "seed_interprocedural_ranges",
     "analysis.interproc"),
    ("repro.harness.parallel", "compile_artifact", "harness.compile"),
    ("repro.harness.cache", "ArtifactCache.get", "harness.cache.get"),
    ("repro.harness.cache", "ArtifactCache.put", "harness.cache.put"),
    *(("repro.harness.tables", f"table{n}", "harness.tables")
      for n in range(1, 8)),
    *(("repro.harness.graphs", name, "harness.graphs")
      for name in ("graph1", "graphs2_3", "graphs4_11", "graph12",
                   "graph13")),
    ("repro.gen.corpus", "generate_corpus", "gen.generate"),
    ("repro.gen.corpus", "write_corpus", "gen.generate"),
    ("repro.gen.corpus", "load_corpus", "gen.load"),
    ("repro.gen.characterize", "characterize", "gen.characterize"),
)

#: the layers wall time is attributed to, besides startup and the rest
LAYERS = ("sim", "bcc", "isa", "core", "analysis", "harness", "gen")

#: program telemetry counters the traced child reports
COUNTERS = ("sim.instructions", "sim.tier1.superblocks_compiled",
            "sim.tier1.trace_cache_hits", "sim.tier1.trace_cache_misses",
            "sim.tier1.side_exits", "bcc.tokens")


class SpanAccumulator:
    """Calls and self time per span key, from properly nested spans.

    Only aggregates are kept, so memory stays constant however many
    spans a run records.  ``hits`` counts spans whose call returned a
    value other than ``None`` (a cache lookup that found its entry).
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.hits: dict[str, int] = {}
        # open spans: [key, start, time covered by finished children]
        self._open: list[list] = []

    def enter(self, key: str, now: float) -> None:
        self._open.append([key, now, 0.0])

    def exit(self, now: float, hit: bool = False) -> None:
        key, start, covered = self._open.pop()
        duration = now - start
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - covered
        if hit:
            self.hits[key] = self.hits.get(key, 0) + 1
        if self._open:
            self._open[-1][2] += duration

    def wrap(self, key: str, fn):
        """*fn* wrapped in a span named *key*."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(key, perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(perf_counter(), result is not None)

        traced.__perfbench_key__ = key
        return traced

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "hits": dict(self.hits)}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(acc: SpanAccumulator,
            targets=TARGETS) -> list[tuple[object, str, object]]:
    """Wrap every target; returns ``(owner, attribute, original)`` for
    :func:`uninstall`.

    A module function is also replaced wherever another loaded ``repro``
    module holds it under some name (``from m import f`` at import time
    copies the binding, so patching ``m.f`` alone would miss those
    callers).  Imports done later inside a function read the patched
    attribute of the defining module.
    """
    # import everything first, so no module loads between two patches
    resolved = [(*_resolve(module, path), path, key)
                for module, path, key in targets]
    patched: list[tuple[object, str, object]] = []
    for owner, attr, path, key in resolved:
        original = owner.__dict__[attr]
        wrapper = acc.wrap(key, original)
        setattr(owner, attr, wrapper)
        patched.append((owner, attr, original))
        if "." in path:
            continue  # methods are looked up through the class
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    patched.append((mod, name, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def _main(argv: list[str]) -> int:
    t0 = perf_counter()
    out_path, entry, *args = argv
    main = importlib.import_module(f"{entry}.__main__").main
    t1 = perf_counter()
    from repro import telemetry

    acc = SpanAccumulator()
    install(acc)
    sink = telemetry.Telemetry()
    telemetry.install(sink)
    t2 = perf_counter()
    code = main(args)
    sys.stdout.flush()
    counters = sink.counters()
    record = {
        "startup.import_s": t1 - t0, "trace.install_s": t2 - t1,
        "counters": {name: counters.get(name, 0) for name in COUNTERS},
        **acc.snapshot(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
