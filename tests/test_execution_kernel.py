"""The harness's one execution kernel, seen from both execution modes.

A serial :class:`SuiteRunner` runs :func:`repro.harness.parallel.
_run_shard_inner` in-process on every memo miss; a parallel runner runs
it in pool workers.  These tests pin what that sharing guarantees: the
same failure accounting, the same persistent-cache writes, and the exact
warm-cache traffic the warm-report benchmark relies on.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.bench.suite import Benchmark, Dataset, registered
from repro.errors import ReproError
from repro.harness import RunStatus, SuiteRunner
from repro.harness import parallel
from repro.telemetry.core import Telemetry

from conftest import MINI_SUITE

DATASETS = ("small", "ref")

BROKEN = Benchmark(
    name="kernel_broken", group="int", description="does not compile",
    paper_analogue="-",
    datasets=(Dataset("small", (1,)), Dataset("ref", (2,))),
    source_text="int main() { return undeclared; }\n")


def _failure_counts(strict: bool, parallelism: int):
    sink = Telemetry()
    with telemetry.use(sink):
        runner = SuiteRunner(MINI_SUITE, strict=strict,
                             parallelism=parallelism)
        runner.limit_fuel("fields", 1000)
        if strict:
            with pytest.raises(ReproError):
                runner.all_outcomes("small")
        else:
            outcomes = runner.all_outcomes("small")
            assert [o.status for o in outcomes] == [
                RunStatus.OK, RunStatus.TIMEOUT, RunStatus.OK]
    labeled = sink.labeled_counters().get("harness.failures_by_status")
    return (sink.counters().get("harness.degraded_failures", 0),
            dict(labeled.values) if labeled is not None else {})


@pytest.mark.parametrize("parallelism", (1, 2))
def test_strict_mode_counts_no_degraded_failures(parallelism):
    assert _failure_counts(True, parallelism) == (0, {})


def test_degraded_failure_counts_match_across_modes():
    serial = _failure_counts(False, 1)
    assert serial == (1, {"timeout": 1})
    assert _failure_counts(False, 2) == serial


def _entries(cache) -> set[str]:
    return {path.name for path in cache.objects_dir.glob("*/*.pkl")}


def test_compile_failure_is_stored_once_in_both_modes(tmp_path):
    caches = []
    with registered([BROKEN]):
        for parallelism in (1, 2):
            runner = SuiteRunner([BROKEN.name, "queens"], strict=False,
                                 parallelism=parallelism,
                                 cache_dir=tmp_path / f"jobs{parallelism}")
            for dataset in DATASETS:
                outcomes = runner.all_outcomes(dataset)
                assert outcomes[0].status is RunStatus.COMPILE_FAILED
                assert outcomes[1].ok
            caches.append(runner.cache)
    serial, pooled = caches
    # one compile entry per benchmark plus queens' run per dataset: the
    # broken benchmark's compile error is never re-stored as a run entry
    assert serial.stores == pooled.stores == 2 + len(DATASETS)
    assert _entries(serial) == _entries(pooled)


def test_serial_warm_cache_traffic_is_exact(tmp_path):
    cold = SuiteRunner(MINI_SUITE, cache_dir=tmp_path)
    for dataset in DATASETS:
        cold.all_outcomes(dataset)
    warm = SuiteRunner(MINI_SUITE, cache_dir=tmp_path)
    for dataset in DATASETS:
        assert all(o.ok for o in warm.all_outcomes(dataset))
    b, d = len(MINI_SUITE), len(DATASETS)
    stats = warm.cache.stats()
    assert (stats["hits"], stats["misses"], stats["stores"]) \
        == (b + b * d, 0, 0)


def test_serial_miss_runs_the_kernel_in_process(monkeypatch):
    calls = []
    kernel = parallel._run_shard_inner

    def spy(job, cache):
        calls.append((job.benchmark, job.dataset, job.preseeded is not None))
        return kernel(job, cache)

    monkeypatch.setattr("repro.harness.runner._run_shard_inner", spy)
    sink = Telemetry()
    with telemetry.use(sink):
        runner = SuiteRunner(["queens"])
        runner.run("queens", "small")
        runner.run("queens", "ref")
        runner.run("queens", "small")  # memo hit: no kernel call
    # the second dataset reuses the memoized artifact, compiling nothing
    assert calls == [("queens", "small", False), ("queens", "ref", True)]
    assert [s.name for s in sink.spans].count("run:queens/small") == 1
    assert sink.counters()["harness.compile_cache.miss"] == 1
