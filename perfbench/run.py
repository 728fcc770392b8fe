"""Repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload report_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run performs the workload's set-up, then runs units closed-loop (one
client; the next unit starts when the previous one ends) until
``--seconds`` have passed, at least one.  Every unit's output is checked
against the references in ``perfbench/reference``; a failed check fails
the run and counts the unit's operations as failed.

``--trace 0`` reports the end-to-end metrics, from untraced processes:
``wall_s``, ``cpu_s`` (user+sys of the unit process and its children) and
``peak_rss_mb`` are medians (peak: maximum) over the units, ``setup_s``
the median over the set-up samples.  ``--trace 1`` runs the set-up once
under :mod:`perfbench.tracer`, then pairs of one untraced and one traced
unit, and reports the per-layer metrics of :mod:`perfbench.metrics`.

``--smoke`` runs both workloads untraced and traced on a tiny slice (two
benchmarks, a four-program corpus) and checks every output and that each
layer recorded spans where its workload exercises it.

The last line of standard output is the result object; the line before
it records the environment (source digest, Python, CPUs, load average).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    SETUP_METRICS, phase_metrics, unit_of,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

#: a run must end within 180 s; units still running after this are killed
RUN_BUDGET_S = 170.0

#: thread and hashing pins for every program process
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: span keys each workload phase must record at least once (smoke check)
EXPECTED_SPANS = {
    ("report_warm", "setup"): (
        "sim.run", "sim.observer", "sim.tier1.compile", "bcc.frontend",
        "bcc.opt", "bcc.irgen", "bcc.codegen", "bcc.driver",
        "isa.assemble", "core.classify", "core.orders.subset",
        "core.orders.matrix", "core.sequences", "harness.compile",
        "harness.cache.get", "harness.cache.put", "harness.tables",
        "harness.graphs"),
    ("report_warm", "unit"): (
        "sim.run", "sim.observer", "core.orders.subset",
        "core.orders.matrix", "core.sequences", "harness.compile",
        "harness.cache.get", "harness.tables", "harness.graphs"),
    ("corpus_characterize", "setup"): ("gen.generate",),
    ("corpus_characterize", "unit"): (
        "sim.run", "sim.observer", "sim.tier1.compile", "bcc.frontend",
        "bcc.opt", "bcc.irgen", "bcc.codegen", "bcc.driver",
        "isa.assemble", "core.classify", "analysis.evidence",
        "analysis.interproc", "harness.compile", "gen.load",
        "gen.characterize"),
}


class RunFailed(Exception):
    """A process failed or its output did not check."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def program_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], work: Path, deadline: float) -> Proc:
    """Run *argv* to completion; wall time, rusage and captured output.

    The child is reaped with ``wait4``, so its CPU time and peak RSS are
    its own (and its waited-for children's), not the benchmark's.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=program_env())
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    if proc.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        reason = ("killed at the run's time budget"
                  if perf_counter() >= deadline else
                  f"exit code {proc.returncode}")
        raise RunFailed(f"{' '.join(argv[2:4])}: {reason} {tail}")
    return Proc(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout,
                stderr=stderr)


def _argv(command, trace_out: Path | None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", command.entry, *command.args]
    return [sys.executable, "-m", "perfbench.tracer", str(trace_out),
            command.entry, *command.args]


def _checked(proc: Proc, error: str | None) -> Proc:
    if error is not None:
        raise RunFailed(error)
    return proc


def build() -> None:
    """Byte-compile the sources once, so no measured process pays it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def environment(workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(), "inputs": workload.inputs,
        "pins": PINNED_ENV,
    }


def _traced(command, work: Path, name: str, deadline: float
            ) -> tuple[Proc, dict]:
    out = work / f"{name}.trace.json"
    proc = run_process(_argv(command, out), work, deadline)
    return proc, json.loads(out.read_text(encoding="utf-8"))


def run_untraced(workload, seconds: float, work: Path, deadline: float,
                 started: list[int]) -> dict:
    setup = []
    for sample in range(workload.setup_samples):
        proc = run_process(_argv(workload.setup_command(sample), None),
                           work, deadline)
        _checked(proc, workload.check_setup(sample, proc.stdout,
                                            proc.stderr))
        setup.append(proc.wall_s)
    units: list[Proc] = []
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        unit = len(units)
        started.append(unit)
        proc = run_process(_argv(workload.unit_command(unit), None), work,
                           deadline)
        units.append(_checked(proc, workload.check_unit(
            unit, proc.stdout, proc.stderr)))
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in units), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in units), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in units), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics


def run_traced(workload, seconds: float, work: Path, deadline: float,
               started: list[int]) -> tuple[dict, dict[str, dict]]:
    """Per-layer metrics, and the span call counts per phase."""
    proc, record = _traced(workload.setup_command(0), work, "setup",
                           deadline)
    _checked(proc, workload.check_setup(0, proc.stdout, proc.stderr))
    setup = phase_metrics([record], [proc.wall_s])
    untraced, traced, records = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        unit = 2 * len(traced)
        started.append(unit)
        plain = run_process(_argv(workload.unit_command(unit), None), work,
                            deadline)
        _checked(plain, workload.check_unit(unit, plain.stdout,
                                            plain.stderr))
        started.append(unit + 1)
        proc, unit_record = _traced(workload.unit_command(unit + 1), work,
                                    f"unit{unit + 1}", deadline)
        _checked(proc, workload.check_unit(unit + 1, proc.stdout,
                                           proc.stderr))
        untraced.append(plain.wall_s)
        traced.append(proc.wall_s)
        records.append(unit_record)
    metrics = phase_metrics(records, traced, untraced)
    metrics.update({f"setup.{name}": setup[name] for name in SETUP_METRICS})
    calls = {"setup": record["calls"], "unit": {}}
    for unit_record in records:
        for key, count in unit_record["calls"].items():
            calls["unit"][key] = calls["unit"].get(key, 0) + count
    return ({name: (value, unit_of(name)) for name, value in metrics.items()},
            calls)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict[str, dict]]:
    """One run; returns the result object and, for traced runs, the span
    call counts per phase."""
    deadline = perf_counter() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](seed, smoke, work)
    print("env " + json.dumps(environment(workload), sort_keys=True),
          flush=True)
    calls: dict[str, dict] = {}
    started: list[int] = []
    try:
        if trace:
            metrics, calls = run_traced(workload, seconds, work, deadline,
                                        started)
        else:
            metrics = run_untraced(workload, seconds, work, deadline,
                                   started)
    except RunFailed as exc:
        # the failing unit's operations fail; a failed set-up fails the
        # unit that could not start
        print(f"FAILED {name}: {exc}", file=sys.stderr)
        return ({"correct": False,
                 "attempted": workload.operations * max(1, len(started)),
                 "failed": workload.operations, "metrics": {}}, calls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = workload.operations * len(started)
    return ({"correct": True, "attempted": ops, "failed": 0,
             "metrics": {key: {"value": value, "unit": unit}
                         for key, (value, unit) in metrics.items()}},
            calls)


def smoke() -> int:
    """Every output check, span expectation and attribution sum on the
    tiny slice."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, calls = run_workload(name, 0, 0.0, trace, smoke=True)
            print(json.dumps(result, sort_keys=True))
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: check failed")
                continue
            for phase, prefix in (("setup", "setup."), ("unit", "")):
                if not trace:
                    break
                missing = [key for key in EXPECTED_SPANS[(name, phase)]
                           if not calls[phase].get(key)]
                if missing:
                    problems.append(f"{name} {phase}: no spans for "
                                    f"{', '.join(missing)}")
                if result["metrics"][f"{prefix}unattributed_s"]["value"] < 0:
                    problems.append(f"{name} {phase}: spans cover more "
                                    f"than the measured wall time")
    for problem in problems:
        print(f"SMOKE FAIL {problem}", file=sys.stderr)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required without --smoke")
    build()
    if args.smoke:
        return smoke()
    result, _ = run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
