"""Tracing reaches every layer, checks fail runs, and a tree without
sources is refused.  The coverage test runs the smoke slice (~25 s)."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.gen.__main__ as gen_main
import repro.harness
import repro.harness.__main__ as harness_main
from perfbench import run, tracer, workloads
from perfbench.metrics import TIME_METRICS
from repro.harness import SuiteRunner, parallel, tables

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def installed():
    acc = tracer.SpanAccumulator()
    patched = tracer.install(acc)
    try:
        yield acc
    finally:
        tracer.uninstall(patched)


def _is_wrapped(fn) -> bool:
    return hasattr(fn, "__perfbench_key__")


def test_names_bound_by_from_import_are_patched(installed):
    for fn in (harness_main.table1, harness_main.graphs4_11,
               harness_main.graph13, repro.harness.table7, tables.table3,
               parallel.compile_artifact, gen_main.characterize,
               gen_main.load_corpus, gen_main.generate_corpus):
        assert _is_wrapped(fn), fn


def test_uninstall_restores_every_binding():
    table1 = tables.table1
    patched = tracer.install(tracer.SpanAccumulator())
    assert _is_wrapped(harness_main.table1)
    tracer.uninstall(patched)
    assert harness_main.table1 is table1 and not _is_wrapped(table1)


def test_function_level_import_reaches_the_wrapper(installed):
    # SuiteRunner.compiled imports compile_artifact inside the function
    SuiteRunner(benchmarks=["queens"]).compiled("queens")
    for key in ("harness.compile", "bcc.frontend", "bcc.opt", "bcc.irgen",
                "bcc.codegen", "bcc.driver", "isa.assemble",
                "core.classify"):
        assert installed.calls.get(key, 0) >= 1, key


def test_every_span_key_feeds_a_metric_and_is_expected_somewhere():
    keys = {key for _, _, key in tracer.TARGETS}
    summed = {key for members in TIME_METRICS.values() for key in members}
    # sim.run is the rest of sim.busy_s; harness.compile only of its layer
    assert keys - summed == {"sim.run", "harness.compile"}
    expected = {key for spans in run.EXPECTED_SPANS.values()
                for key in spans}
    assert keys == expected


def test_smoke_slice_checks_outputs_and_covers_every_layer(capsys):
    # each layer must record spans on the workload phase meant to run it
    assert run.smoke() == 0, capsys.readouterr().err


class _Mismatch:
    """A workload whose unit output never matches."""

    name = "mismatch"
    operations = 5
    setup_samples = 1
    inputs = {}

    def __init__(self, seed, smoke, work):
        pass

    def setup_command(self, sample):
        return workloads.Command("platform", ())

    def check_setup(self, sample, stdout, stderr):
        return None

    unit_command = setup_command

    def check_unit(self, unit, stdout, stderr):
        return "output differs"


def test_a_failed_check_fails_the_run_and_its_operations(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "mismatch", _Mismatch)
    monkeypatch.setattr(run, "WORKLOADS", workloads.WORKLOADS)
    result, _ = run.run_workload("mismatch", 1, 0.0, trace=False)
    assert result == {"correct": False, "attempted": 5, "failed": 5,
                      "metrics": {}}


def test_a_tree_without_sources_is_refused(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
