"""Process-pool execution engine for the experiment harness.

Ball & Larus's methodology is embarrassingly parallel: every (benchmark,
dataset) edge profile is independent of every other.  This module shards
compile+simulate jobs across a :class:`concurrent.futures.ProcessPoolExecutor`
and merges the results back into the parent deterministically:

* each :class:`ShardJob` is a fully self-describing, picklable work order
  (effective inputs/limits after chaos overrides, optimization level,
  cache directory, optionally a pre-seeded or sabotaged executable);
* the worker (:func:`run_shard`) runs the harness's one execution
  kernel — typed-error capture, transient-fuel retry, artifact-cache
  consultation — the very function the serial runner calls in-process,
  inside a private telemetry sink, and returns a :class:`ShardResult`
  carrying the profile, the compiled artifact, any classified failure,
  and a mergeable telemetry snapshot;
* the parent (:class:`ParallelEngine`) collects results **in submission
  order** regardless of completion order, so downstream table/graph
  output is byte-identical to a serial run (the determinism suite in
  ``tests/test_parallel_runner.py`` enforces this);
* a worker process that dies without returning (killed, OOM, broken
  pool) is converted into a typed
  :class:`~repro.errors.WorkerCrashError` outcome rather than aborting
  the whole report.

Chaos seam: setting the environment variable
``REPRO_CHAOS_WORKER_CRASH=<benchmark>`` makes any worker handed that
benchmark die immediately via ``os._exit`` — how the fault-injection
tests exercise the crash taxonomy without a real segfault.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter, sleep

from repro import telemetry as _telemetry
from repro.telemetry import flight as _flight
from repro.telemetry import tracing as _tracing
from repro.bench.suite import Benchmark, get
from repro.core.classify import ProgramAnalysis, classify_branches
from repro.errors import (
    ReproError, SimulationTimeout, WorkerCrashError, WorkerError,
    WorkerResultError,
)
from repro.harness.cache import ArtifactCache, compile_key, run_key
from repro.harness.resilience import RunStatus, classify_failure
from repro.harness.retry import RetryPolicy
from repro.isa.program import Executable
from repro.sim import Machine, resolve_engine_name
from repro.sim.profile import EdgeProfile
from repro.telemetry.core import Telemetry, TelemetrySnapshot

__all__ = [
    "ShardJob", "ShardResult", "ParallelEngine", "run_shard",
    "compile_artifact", "CHAOS_WORKER_CRASH_ENV", "CHAOS_SLOW_WORKER_ENV",
]

#: environment variable naming a benchmark whose shard worker must die
CHAOS_WORKER_CRASH_ENV = "REPRO_CHAOS_WORKER_CRASH"

#: ``<benchmark>:<seconds>`` (or ``*:<seconds>`` for every benchmark):
#: the matching shard worker sleeps before executing, simulating a
#: wedged / overloaded worker for deadline and supervision tests
CHAOS_SLOW_WORKER_ENV = "REPRO_CHAOS_SLOW_WORKER"


def _chaos_slow_delay(benchmark: str) -> float:
    """Injected pre-execution delay for *benchmark* (0 when none)."""
    spec = os.environ.get(CHAOS_SLOW_WORKER_ENV, "")
    if not spec:
        return 0.0
    target, _, seconds = spec.partition(":")
    if target not in ("*", benchmark):
        return 0.0
    try:
        return max(0.0, float(seconds))
    except ValueError:
        return 0.0


# --------------------------------------------------------------------------
# work orders and results
# --------------------------------------------------------------------------

@dataclass
class ShardJob:
    """One self-contained (benchmark, dataset) compile+simulate order."""

    benchmark: str
    dataset: str
    #: effective input vector (after any chaos/operator truncation)
    inputs: tuple
    #: effective instruction-fuel budget (after overrides)
    fuel_budget: int
    #: 1 disables the transient-fuel retry (strict mode never retries)
    retry_fuel_factor: int = 1
    wall_clock_deadline: float | None = None
    max_memory_bytes: int | None = None
    pc_sample_interval: int | None = None
    optimize: bool = True
    #: execution engine (``"tier0"`` / ``"tier1"`` / ``None`` = resolve
    #: via the chaos/env seams inside the worker)
    engine: str | None = None
    cache_dir: str | None = None
    collect_telemetry: bool = False
    #: pre-compiled (executable, analysis) — skips the compile phase
    preseeded: tuple[Executable, ProgramAnalysis] | None = None
    #: True when *preseeded* is a sabotaged artifact: bypass the cache
    #: entirely (its content does not correspond to the source key)
    poisoned: bool = False
    #: >0: when another tenant holds the writer lease for this run key,
    #: wait up to this long for their entry instead of recomputing
    #: (lock-aware read; the service sets this, batch runs leave it 0)
    lease_wait_s: float = 0.0
    #: distributed-trace identity: non-empty when this shard is one hop
    #: of a service job's trace — the worker activates the context so
    #: its spans (and its telemetry snapshot's span args) join the trace
    trace_id: str = ""
    #: span id of the engine-side exec span this shard parents under
    trace_parent: str = ""


@dataclass
class ShardResult:
    """What one worker hands back: a run, or a classified failure."""

    benchmark: str
    dataset: str
    status: RunStatus
    executable: Executable | None = None
    analysis: ProgramAnalysis | None = None
    profile: EdgeProfile | None = None
    output: str = ""
    instr_count: int = 0
    error: ReproError | None = None
    retried: bool = False
    telemetry: TelemetrySnapshot | None = None
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: wall-clock trace spans recorded inside the worker (compile,
    #: simulate, cache lease-wait) when the job carried a trace_id
    trace: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.OK


# --------------------------------------------------------------------------
# shared compile helper (used by the worker AND the serial runner)
# --------------------------------------------------------------------------

def compile_artifact(benchmark: Benchmark, optimize: bool = True,
                     cache: ArtifactCache | None = None,
                     ) -> tuple[Executable, ProgramAnalysis]:
    """Compile + classify *benchmark*, consulting the artifact cache.

    Raises the typed error on failure (annotated ``phase="compile"``);
    deterministic compile failures are negative-cached on disk so a
    broken benchmark costs one compile per cache lifetime, not one per
    invocation.
    """
    tm = _telemetry.get()
    key = None
    if cache is not None:
        key = compile_key(benchmark.name, benchmark.source(), optimize,
                          version=cache.version)
        entry = cache.get(key, "compile")
        if entry is not None:
            if entry.get("ok"):
                return entry["artifact"]
            raise entry["error"]
    try:
        with tm.span("compile", category="harness",
                     benchmark=benchmark.name, optimize=optimize):
            executable = benchmark.compile(optimize=optimize)
            with tm.span("analyze", category="harness",
                         benchmark=benchmark.name):
                analysis = classify_branches(executable)
    except ReproError as exc:
        exc.with_context(benchmark=benchmark.name, phase="compile")
        if cache is not None:
            cache.put(key, "compile", {"ok": False, "error": exc})
        raise
    except Exception as exc:
        wrapped = ReproError(
            f"compile failed: {type(exc).__name__}: {exc}",
            benchmark=benchmark.name, phase="compile")
        if cache is not None:
            cache.put(key, "compile", {"ok": False, "error": wrapped})
        raise wrapped from exc
    if cache is not None:
        cache.put(key, "compile", {"ok": True,
                                   "artifact": (executable, analysis)})
    return executable, analysis


# --------------------------------------------------------------------------
# the execution kernel and its process-boundary wrapper
# --------------------------------------------------------------------------

def _chaos_gate(benchmark: str) -> None:
    """Worker-side chaos seams: die (``REPRO_CHAOS_WORKER_CRASH``) or
    stall (``REPRO_CHAOS_SLOW_WORKER``) before executing *benchmark*.
    Only ever called on the far side of a process boundary — an
    in-process ``os._exit`` would take the parent down with it."""
    if os.environ.get(CHAOS_WORKER_CRASH_ENV) == benchmark:
        # simulate a hard worker death (no cleanup, no result)
        os._exit(17)
    delay = _chaos_slow_delay(benchmark)
    if delay > 0:
        sleep(delay)


def run_shard(job: ShardJob) -> ShardResult:
    """Worker entry point: execute one shard inside a private telemetry
    sink and return a picklable result (never raises for pipeline
    failures — those come back classified)."""
    _chaos_gate(job.benchmark)
    # Re-join the distributed trace on this side of the fork: spans the
    # worker records (and the trace_id tags on its telemetry snapshot's
    # spans) parent under the engine-side exec span named by the job.
    ctx = None
    if job.trace_id:
        ctx = _tracing.TraceContext(trace_id=job.trace_id,
                                    span_id=job.trace_parent)
    sink = Telemetry(enabled=job.collect_telemetry)
    with _telemetry.use(sink):
        with _tracing.activate(ctx, process=f"worker:{os.getpid()}") as spans:
            cache = (ArtifactCache(job.cache_dir)
                     if job.cache_dir and not job.poisoned else None)
            result = _run_shard_inner(job, cache)
    if job.collect_telemetry:
        result.telemetry = sink.snapshot()
    result.trace = spans
    if cache is not None:
        result.cache_stats = cache.stats()
    return result


def _compile_phase(job: ShardJob, cache: ArtifactCache | None
                   ) -> tuple[Executable, ProgramAnalysis]:
    """The job's (executable, analysis): the pre-seeded / sabotaged
    artifact, else a cache-consulting compile.  Raises only typed
    errors (annotated ``phase="compile"``)."""
    try:
        with _tracing.span("worker.compile", "worker",
                           benchmark=job.benchmark):
            if job.preseeded is not None:
                return job.preseeded
            return compile_artifact(get(job.benchmark),
                                    optimize=job.optimize, cache=cache)
    except ReproError:
        raise
    except Exception as exc:  # unknown benchmark, etc.
        raise ReproError(
            f"shard setup failed: {type(exc).__name__}: {exc}",
            benchmark=job.benchmark, dataset=job.dataset,
            phase="compile") from exc


def _result(job: ShardJob, entry: dict,
            pair: tuple = (None, None)) -> ShardResult:
    """The :class:`ShardResult` for a run-cache payload, fresh or stored."""
    error = entry.get("error")
    return ShardResult(
        benchmark=job.benchmark, dataset=job.dataset,
        status=RunStatus.OK if entry["ok"] else classify_failure(error),
        executable=pair[0], analysis=pair[1],
        profile=entry.get("profile"), output=entry.get("output", ""),
        instr_count=entry.get("instr_count", 0), error=error,
        retried=entry.get("retried", False))


def _failed(error: ReproError, retried: bool = False) -> dict:
    # every failure ships the executing process's black box (no-op if a
    # deeper layer — e.g. the simulator's crash snapshot — already did)
    error.attach_flight(_flight.dump())
    return {"ok": False, "error": error, "retried": retried}


def _simulate(job: ShardJob, executable: Executable, tm) -> dict:
    """Simulate under the job's fuel-retry policy; returns the run-cache
    payload (profile, output, instruction count — or the failure)."""
    policy = RetryPolicy.from_fuel_factor(job.retry_fuel_factor)
    attempt = 1
    while True:
        profile = EdgeProfile()
        try:
            with (_tracing.span("worker.simulate", "worker",
                                benchmark=job.benchmark,
                                dataset=job.dataset, attempt=attempt),
                  tm.span("simulate", category="harness",
                          benchmark=job.benchmark, dataset=job.dataset)):
                # construction can fault too (e.g. the data image exceeds
                # an injected memory budget), so it sits inside the try
                status = Machine(
                    executable, inputs=list(job.inputs),
                    observers=[profile],
                    max_instructions=(job.fuel_budget
                                      * policy.fuel_scale(attempt)),
                    wall_clock_deadline=job.wall_clock_deadline,
                    max_memory_bytes=job.max_memory_bytes,
                    pc_sample_interval=job.pc_sample_interval,
                    engine=job.engine).run()
            return {"ok": True, "profile": profile, "output": status.output,
                    "instr_count": status.instr_count,
                    "retried": attempt > 1}
        except ReproError as exc:
            exc.with_context(benchmark=job.benchmark, dataset=job.dataset)
            if not policy.should_retry(exc, attempt):
                return _failed(exc, retried=attempt > 1)
            attempt += 1
            tm.counter("harness.retries").inc()
            _flight.record("shard.retry", benchmark=job.benchmark,
                           dataset=job.dataset, attempt=attempt,
                           error=exc.code)


def _run_shard_inner(job: ShardJob,
                     cache: ArtifactCache | None) -> ShardResult:
    """The execution kernel: compile → run-cache lookup → fuel retry →
    failure negative-cache → store, for one (benchmark, dataset).

    Both execution modes run exactly this: the serial
    :class:`~repro.harness.runner.SuiteRunner` calls it in-process with
    its own *cache* instance, :func:`run_shard` calls it in a pool
    worker.  Never raises for pipeline failures; a failure after the
    compile phase still carries the compiled artifact so the caller can
    memoize it.
    """
    tm = _telemetry.get()
    with tm.span(f"run:{job.benchmark}/{job.dataset}", category="harness",
                 benchmark=job.benchmark, dataset=job.dataset):
        try:
            pair = _compile_phase(job, cache)
        except ReproError as exc:
            return _result(job, _failed(exc))
        rkey = entry = None
        if cache is not None:
            ckey = compile_key(job.benchmark, get(job.benchmark).source(),
                               job.optimize, version=cache.version)
            rkey = run_key(ckey, job.dataset, job.inputs, job.fuel_budget,
                           job.max_memory_bytes, job.retry_fuel_factor,
                           version=cache.version,
                           engine=resolve_engine_name(job.engine))
            if job.lease_wait_s > 0:
                with _tracing.span("cache.lease_wait", "cache",
                                   benchmark=job.benchmark,
                                   dataset=job.dataset):
                    entry = cache.get_or_wait(rkey, "run",
                                              timeout_s=job.lease_wait_s)
            else:
                entry = cache.get(rkey, "run")
        if entry is None:
            entry = _simulate(job, pair[0], tm)
            # wall-clock timeouts and worker errors are functions of the
            # machine, not of the key: only deterministic failures persist
            if rkey is not None and (entry["ok"] or not isinstance(
                    entry["error"], (SimulationTimeout, WorkerError))):
                cache.put(rkey, "run", entry)
        return _result(job, entry, pair)


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

class ParallelEngine:
    """Shards :class:`ShardJob` orders across a process pool.

    Parameters
    ----------
    jobs:
        Worker-process count (capped at the job count per batch).
    start_method:
        Multiprocessing start method; defaults to ``fork`` where
        available (instant workers, no re-import) and falls back to the
        platform default otherwise.

    Determinism: :meth:`execute` returns results in **submission order**
    regardless of completion order, so callers that merge sequentially
    observe the same ordering a serial runner would produce.
    """

    def __init__(self, jobs: int, start_method: str | None = None) -> None:
        self.jobs = max(1, int(jobs))
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method

    def execute(self, shard_jobs: list[ShardJob]) -> list[ShardResult]:
        """Run every job; one :class:`ShardResult` per job, in order.

        A worker that dies without returning produces a
        ``WORKER_FAILED`` result wrapping
        :class:`~repro.errors.WorkerCrashError`; an undecodable result
        produces one wrapping :class:`~repro.errors.WorkerResultError`.
        """
        if not shard_jobs:
            return []
        tm = _telemetry.get()
        context = multiprocessing.get_context(self.start_method)
        workers = min(self.jobs, len(shard_jobs))
        start = perf_counter()
        results: list[ShardResult] = []
        with tm.span("parallel:pool", category="harness",
                     jobs=len(shard_jobs), workers=workers,
                     start_method=self.start_method):
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context) as pool:
                futures = [pool.submit(run_shard, job) for job in shard_jobs]
                for job, future in zip(shard_jobs, futures):
                    results.append(self._collect(job, future, tm))
            # Crash isolation: one worker dying abruptly breaks the whole
            # ProcessPoolExecutor, poisoning every sibling future with
            # BrokenProcessPool.  Retry each crashed shard in its own
            # single-worker pool so innocent shards recover and only the
            # true culprit reports WORKER_FAILED.
            crashed = [i for i, r in enumerate(results)
                       if r.status is RunStatus.WORKER_FAILED
                       and isinstance(r.error, WorkerCrashError)]
            if crashed:
                for i in crashed:
                    results[i] = self._run_isolated(shard_jobs[i], context,
                                                    tm)
        for result in results:
            if (result.status is RunStatus.WORKER_FAILED
                    and isinstance(result.error, WorkerCrashError)):
                tm.counter("harness.parallel.worker_crashes").inc()
        tm.gauge("harness.parallel.batch_seconds").set(
            perf_counter() - start)
        tm.counter("harness.parallel.shards").inc(len(shard_jobs))
        return results

    def _run_isolated(self, job: ShardJob, context, tm) -> ShardResult:
        """Re-run one crashed shard in a dedicated single-worker pool."""
        with tm.span("parallel:isolate", category="harness",
                     benchmark=job.benchmark, dataset=job.dataset):
            with ProcessPoolExecutor(max_workers=1,
                                     mp_context=context) as pool:
                return self._collect(job, pool.submit(run_shard, job), tm)

    @staticmethod
    def _collect(job: ShardJob, future, tm) -> ShardResult:
        try:
            result = future.result()
        except (BrokenProcessPool, OSError) as exc:
            error = WorkerCrashError(
                f"worker process died before returning "
                f"{job.benchmark}/{job.dataset}: "
                f"{type(exc).__name__}: {exc}",
                benchmark=job.benchmark, dataset=job.dataset)
            return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                               status=RunStatus.WORKER_FAILED, error=error)
        except Exception as exc:
            tm.counter("harness.parallel.result_errors").inc()
            error = WorkerResultError(
                f"worker result for {job.benchmark}/{job.dataset} "
                f"could not be retrieved: {type(exc).__name__}: {exc}",
                benchmark=job.benchmark, dataset=job.dataset)
            return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                               status=RunStatus.WORKER_FAILED, error=error)
        if (not isinstance(result, ShardResult)
                or result.benchmark != job.benchmark
                or result.dataset != job.dataset):
            tm.counter("harness.parallel.result_errors").inc()
            error = WorkerResultError(
                f"worker returned a malformed result for "
                f"{job.benchmark}/{job.dataset}",
                benchmark=job.benchmark, dataset=job.dataset)
            return ShardResult(benchmark=job.benchmark, dataset=job.dataset,
                               status=RunStatus.WORKER_FAILED, error=error)
        return result
