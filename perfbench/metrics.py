"""Per-layer metrics of traced runs, and the spread statistics.

A traced phase (one set-up, or the traced units of a run) yields one
record per child process from :mod:`perfbench.tracer`.  The wall time the
benchmark measured for each of those processes is attributed as::

    traced_s = startup.import_s + trace.install_s
               + sim.busy_s + layer.<bcc|isa|core|analysis|harness|gen>_s
               + unattributed_s

Layer totals are sums of span self times, so no second counts twice;
``unattributed_s`` is what no span covered (interpreter boot, argument
parsing, printing, runner glue).  Extensive values are per unit: the sum
over the phase's processes divided by their number.
"""

from __future__ import annotations

import statistics

from perfbench.tracer import LAYERS

#: metric -> the span keys whose self time it sums
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "sim.observer_s": ("sim.observer",),
    "sim.tier1.compile_s": ("sim.tier1.compile",),
    "bcc.frontend_s": ("bcc.frontend",),
    "bcc.opt_s": ("bcc.opt",),
    "bcc.backend_s": ("bcc.irgen", "bcc.codegen", "bcc.driver"),
    "isa.assemble_s": ("isa.assemble",),
    "core.classify_s": ("core.classify",),
    "analysis.evidence_s": ("analysis.evidence",),
    "analysis.interproc_s": ("analysis.interproc",),
    "core.orders.subset_s": ("core.orders.subset",),
    "core.orders.matrix_s": ("core.orders.matrix",),
    "core.sequences.self_s": ("core.sequences",),
    "harness.tables_s": ("harness.tables",),
    "harness.graphs_s": ("harness.graphs",),
    "harness.cache.get_s": ("harness.cache.get",),
    "harness.cache.put_s": ("harness.cache.put",),
    "gen.generate_s": ("gen.generate",),
    "gen.load_s": ("gen.load",),
    "gen.characterize_self_s": ("gen.characterize",),
}

#: layer -> the metric holding its total self time
LAYER_TOTALS = {layer: ("sim.busy_s" if layer == "sim"
                        else f"layer.{layer}_s") for layer in LAYERS}

#: the parts a traced wall time is attributed to; they sum to ``traced_s``
PARTS = ("startup.import_s", "trace.install_s", *LAYER_TOTALS.values(),
         "unattributed_s")

#: ratio -> (numerator, base, scale); every ratio is reported next to
#: both of its operands
RATIOS: dict[str, tuple[str, str, float]] = {
    "trace.overhead_ratio": ("traced_s", "untraced_s", 1.0),
    "sim.minstr_per_s": ("sim.instructions", "sim.busy_s", 1e-6),
    "sim.tier1.side_exit_ratio": ("sim.tier1.side_exits",
                                  "sim.tier1.trace_hits", 1.0),
    "sim.tier1.trace_hit_ratio": ("sim.tier1.trace_hits",
                                  "sim.tier1.trace_lookups", 1.0),
    "bcc.tokens_per_s": ("bcc.tokens", "bcc.frontend_s", 1.0),
    "harness.cache.hit_ratio": ("harness.cache.hits",
                                "harness.cache.lookups", 1.0),
}

#: unit-phase metrics that are also reported for the traced set-up,
#: under a ``setup.`` prefix
SETUP_METRICS = ("traced_s", "startup.import_s", "trace.install_s",
                 *LAYER_TOTALS.values(), "unattributed_s",
                 "harness.cache.put_s", "gen.generate_s")


def _total(records: list[dict], field: str, key: str) -> float:
    return sum(record[field].get(key, 0) for record in records)


def phase_metrics(records: list[dict], traced_walls: list[float],
                  untraced_walls: list[float] | None = None
                  ) -> dict[str, float]:
    """Per-unit layer metrics of one traced phase.

    *traced_walls* are the measured wall times of the processes that
    wrote *records*; *untraced_walls*, when given, are untraced units of
    the same work, the base of ``trace.overhead_ratio``.
    """
    if not records or len(records) != len(traced_walls):
        raise ValueError("need one traced wall time per record")
    n = len(records)
    self_s = {}
    for record in records:
        for key, value in record["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
    m: dict[str, float] = {
        "traced_s": sum(traced_walls) / n,
        "startup.import_s": sum(r["startup.import_s"] for r in records) / n,
        "trace.install_s": sum(r["trace.install_s"] for r in records) / n,
    }
    for layer, name in LAYER_TOTALS.items():
        m[name] = sum(value for key, value in self_s.items()
                      if key.split(".")[0] == layer) / n
    m["unattributed_s"] = m["traced_s"] - sum(m[p] for p in PARTS[:-1])
    for name, keys in TIME_METRICS.items():
        m[name] = sum(self_s.get(key, 0.0) for key in keys) / n

    def counter(name: str) -> float:
        return _total(records, "counters", name) / n

    m["sim.runs"] = _total(records, "calls", "sim.run") / n
    m["sim.instructions"] = counter("sim.instructions")
    m["sim.tier1.superblocks_compiled"] = counter(
        "sim.tier1.superblocks_compiled")
    m["sim.tier1.side_exits"] = counter("sim.tier1.side_exits")
    m["sim.tier1.trace_hits"] = counter("sim.tier1.trace_cache_hits")
    m["sim.tier1.trace_lookups"] = (m["sim.tier1.trace_hits"]
                                    + counter("sim.tier1.trace_cache_misses"))
    m["bcc.modules"] = _total(records, "calls", "bcc.irgen") / n
    m["bcc.tokens"] = counter("bcc.tokens")
    m["harness.cache.lookups"] = _total(records, "calls",
                                        "harness.cache.get") / n
    m["harness.cache.hits"] = _total(records, "hits", "harness.cache.get") / n
    if untraced_walls:
        m["untraced_s"] = sum(untraced_walls) / len(untraced_walls)
    for name, (numerator, base, scale) in RATIOS.items():
        if base in m:
            m[name] = m[numerator] / m[base] * scale if m[base] else 0.0
    return m


def unit_of(name: str) -> str:
    """The unit a metric is reported in, from its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("minstr_per_s"):
        return "Minstr/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def layer_shares(m: dict[str, float], prefix: str = "") -> dict[str, float]:
    """Each attributed part's share of the traced wall time; the shares
    sum to 1."""
    wall = m[f"{prefix}traced_s"]
    return {part: m[f"{prefix}{part}"] / wall for part in PARTS}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with its default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
