"""The benchmark's own arithmetic: self times, attribution, ratios and
spreads.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import math
import statistics
from pathlib import Path

import pytest

from perfbench.metrics import (
    LAYER_TOTALS, RATIOS, SETUP_METRICS, layer_shares, phase_metrics, spread,
    unit_of,
)
from perfbench.tracer import SpanAccumulator

ROOT = Path(__file__).resolve().parents[2]


def spans(acc: SpanAccumulator, events) -> SpanAccumulator:
    """Drive *acc* with ``("enter", key, t)`` / ``("exit", t)`` events."""
    for event in events:
        if event[0] == "enter":
            acc.enter(event[1], event[2])
        else:
            acc.exit(event[1])
    return acc


def test_self_time_subtracts_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7]
    acc = spans(SpanAccumulator(), [
        ("enter", "a", 0.0), ("enter", "b", 1.0), ("enter", "c", 2.0),
        ("exit", 3.0), ("exit", 4.0), ("enter", "d", 5.0), ("exit", 7.0),
        ("exit", 10.0)])
    assert acc.self_s == pytest.approx({"a": 5.0, "b": 2.0, "c": 1.0,
                                        "d": 2.0})
    assert acc.calls == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert sum(acc.self_s.values()) == pytest.approx(10.0)


def test_recursive_spans_of_one_key_count_once():
    acc = spans(SpanAccumulator(), [
        ("enter", "a", 0.0), ("enter", "a", 1.0), ("exit", 3.0),
        ("exit", 4.0), ("enter", "a", 6.0), ("exit", 7.0)])
    assert acc.self_s == pytest.approx({"a": 5.0})
    assert acc.calls == {"a": 3}


def test_wrapper_records_hits_and_survives_exceptions():
    acc = SpanAccumulator()
    lookup = acc.wrap("cache", lambda key: {"k": 1}.get(key))
    assert lookup("k") == 1 and lookup("x") is None

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        acc.wrap("boom", boom)()
    assert acc.calls == {"cache": 2, "boom": 1}
    assert acc.hits == {"cache": 1}
    assert not acc._open


def record(self_s, calls=None, counters=None, hits=None):
    return {"startup.import_s": 0.5, "trace.install_s": 0.25,
            "self_s": self_s, "calls": calls or {}, "hits": hits or {},
            "counters": counters or {}}


def test_layers_and_unattributed_sum_to_the_traced_wall():
    records = [
        record({"sim.run": 3.0, "sim.observer": 1.0, "bcc.frontend": 2.0,
                "core.orders.subset": 1.5, "harness.tables": 0.5}),
        record({"sim.run": 5.0, "gen.characterize": 0.75,
                "analysis.interproc": 1.0}),
    ]
    m = phase_metrics(records, [10.0, 9.0], [8.0, 8.5])
    assert m["traced_s"] == pytest.approx(9.5)
    assert m["sim.busy_s"] == pytest.approx((3 + 1 + 5) / 2)
    parts = ["startup.import_s", "trace.install_s",
             *LAYER_TOTALS.values(), "unattributed_s"]
    assert sum(m[p] for p in parts) == pytest.approx(m["traced_s"])
    assert m["unattributed_s"] == pytest.approx(
        9.5 - 0.75 - (3 + 1 + 2 + 1.5 + 0.5 + 5 + 0.75 + 1) / 2)
    shares = layer_shares(m)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sim.busy_s"] == pytest.approx(4.5 / 9.5)


def test_every_ratio_is_reported_with_its_operands():
    m = phase_metrics(
        [record({"bcc.frontend": 2.0, "sim.run": 4.0},
                calls={"harness.cache.get": 8},
                hits={"harness.cache.get": 6},
                counters={"sim.instructions": 8_000_000,
                          "sim.tier1.trace_cache_hits": 30,
                          "sim.tier1.trace_cache_misses": 10,
                          "sim.tier1.side_exits": 12,
                          "bcc.tokens": 1000})],
        [10.0], [8.0])
    for name, (numerator, base, scale) in RATIOS.items():
        assert numerator in m and base in m, name
        assert m[name] == pytest.approx(m[numerator] / m[base] * scale)
    assert m["sim.minstr_per_s"] == pytest.approx(2.0)
    assert m["sim.tier1.trace_hit_ratio"] == pytest.approx(0.75)
    assert m["sim.tier1.side_exit_ratio"] == pytest.approx(0.4)
    assert m["harness.cache.hit_ratio"] == pytest.approx(0.75)
    assert m["trace.overhead_ratio"] == pytest.approx(1.25)


def test_a_ratio_over_an_empty_base_reads_zero():
    m = phase_metrics([record({})], [1.0], [1.0])
    assert m["sim.minstr_per_s"] == 0.0
    assert m["harness.cache.hit_ratio"] == 0.0


def test_phase_metrics_needs_one_wall_per_record():
    with pytest.raises(ValueError):
        phase_metrics([record({})], [1.0, 2.0])


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert spread([5.0] * 4) == 0.0


def test_benchmark_json_lists_exactly_the_metrics_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = list(phase_metrics([record({})], [1.0], [1.0])) + [
        f"setup.{name}" for name in SETUP_METRICS]
    assert [m["name"] for m in spec["per_layer"]] == printed
    for metric in spec["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(not math.isnan(b) and 0 < b for b in bounds.values())
