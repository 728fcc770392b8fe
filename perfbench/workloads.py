"""The benchmark's workloads: what set-up does, what one unit runs, and
how each output is checked.

Each workload is serial, single-process and closed-loop: one client runs
one unit, a full CLI invocation at ``--jobs 1``, and starts the next only
when the previous one has ended.

``report_warm``
    The paper report (``python -m repro.harness``) against a filled
    artifact cache.  Set-up fills the cache with one cold report
    (``--cache DIR``, the first run a user makes with a cache), so every
    unit gets 88 hits, 0 misses and 0 stores; the unit's cache line on
    stderr is checked for exactly that.  The report's inputs are the
    fixed 22-benchmark x 3-dataset paper suite, so ``--seed`` selects
    nothing.
``corpus_characterize``
    Set-up generates a 128-program corpus (``python -m repro.gen
    corpus``) 21 times and keeps the median time; the unit
    characterizes it with ``--evidence``.  Many short cold programs make
    the compiler and the analyses the main cost.  ``--seed`` is recorded,
    but every seed maps to corpus seed 7, so that all runs measure the
    same work.  The corpus is twice the 64 programs first planned: on a
    shared 2-vCPU host identical runs of a ~13 s unit spread by 25%
    (quartile distance over median), of a ~30 s unit by 12%.

The full report with ``--no-cache`` (``report_cold``) is not a workload of
its own: at 40-49 s a run on a shared 2-vCPU host, three workloads do not
fit the benchmark's time budget.  It is measured anyway, as
``report_warm``'s set-up, and its traced set-up is the cold report's
attribution.

On that host ``cpu_s`` follows ``wall_s`` to within 0.5%, so their spread
is not scheduling: the per-vCPU throughput moves.  A fixed pure-Python loop
pinned to one vCPU alternates between ~18 ms and ~25 ms per iteration in
phases of a few seconds, and the same report ran in 38 s and in 49 s
minutes apart.  This is why the wall and CPU bounds are at the 25% cap.

References live in ``perfbench/reference``.  They are the outputs of the
same commands on a correct tree, e.g.::

    PYTHONPATH=src python -m repro.harness --no-cache > report.txt
    PYTHONPATH=src python -m repro.gen corpus --seed 7 --count 128 --out C
    PYTHONPATH=src python -m repro.gen characterize --corpus C \\
        --evidence --json corpus-7-128.json
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: benchmarks of the smoke slice: a cheap one, and a cheap one of the
#: sequence-length graphs so that every layer runs
SMOKE_BENCHMARKS = ("queens", "scc")
SUITE_SIZE = 22
DATASETS = 3

CORPUS_SEED = 7
CORPUS_COUNT = 128
SMOKE_CORPUS_COUNT = 4
#: one generation takes ~0.4 s, mostly interpreter start-up and imports; a
#: median of 5 still spread by 26% between runs
CORPUS_SETUP_SAMPLES = 21

_CACHE_LINE = re.compile(r"artifact cache: (\d+) hits, (\d+) misses, "
                         r"(\d+) stores")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the program: ``python -m <entry> <args>``."""

    entry: str
    args: tuple[str, ...]


def _read_reference(name: str) -> bytes:
    return (REFERENCE_DIR / name).read_bytes()


class ReportWarm:
    name = "report_warm"

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        self.cache = work / "cache"
        self.args = ("--cache", str(self.cache), "--jobs", "1")
        if smoke:
            self.args += ("--benchmarks", ",".join(SMOKE_BENCHMARKS))
        benchmarks = len(SMOKE_BENCHMARKS) if smoke else SUITE_SIZE
        self.operations = benchmarks * DATASETS
        self.entries = benchmarks * (DATASETS + 1)  # compile + runs
        self.reference = _read_reference(
            "smoke_report.txt" if smoke else "report.txt")
        self.setup_samples = 1
        self.inputs = {"suite": "paper", "benchmarks": benchmarks}

    def setup_command(self, sample: int) -> Command:
        return Command("repro.harness", self.args)

    def check_setup(self, sample: int, stdout: bytes,
                    stderr: bytes) -> str | None:
        if stdout != self.reference:
            return "cache-filling report differs from the reference"
        return None

    def unit_command(self, unit: int) -> Command:
        return Command("repro.harness", self.args)

    def check_unit(self, unit: int, stdout: bytes,
                   stderr: bytes) -> str | None:
        if stdout != self.reference:
            return "warm report differs from the cold reference"
        found = _CACHE_LINE.findall(stderr.decode("utf-8", "replace"))
        expected = (str(self.entries), "0", "0")
        if not found or found[-1] != expected:
            return (f"warm unit cache line {found[-1:] or 'missing'}, "
                    f"expected {self.entries} hits, 0 misses, 0 stores")
        return None


class CorpusCharacterize:
    name = "corpus_characterize"

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        self.work = work
        self.corpus_seed = CORPUS_SEED
        self.count = SMOKE_CORPUS_COUNT if smoke else CORPUS_COUNT
        self.operations = self.count
        self.reference = _read_reference(
            f"corpus-{self.corpus_seed}-{self.count}.json")
        self.setup_samples = CORPUS_SETUP_SAMPLES
        self.inputs = {"corpus_seed": self.corpus_seed, "count": self.count}

    def _corpus(self, sample: int) -> Path:
        return self.work / f"corpus{sample}"

    def _payload(self, unit: int) -> Path:
        return self.work / f"characterize{unit}.json"

    def setup_command(self, sample: int) -> Command:
        return Command("repro.gen", (
            "corpus", "--seed", str(self.corpus_seed),
            "--count", str(self.count), "--out", str(self._corpus(sample))))

    def check_setup(self, sample: int, stdout: bytes,
                    stderr: bytes) -> str | None:
        if not (self._corpus(sample) / "manifest.json").is_file():
            return "corpus generation wrote no manifest"
        return None

    def unit_command(self, unit: int) -> Command:
        return Command("repro.gen", (
            "characterize", "--corpus", str(self._corpus(0)), "--evidence",
            "--jobs", "1", "--json", str(self._payload(unit))))

    def check_unit(self, unit: int, stdout: bytes,
                   stderr: bytes) -> str | None:
        payload = self._payload(unit)
        if not payload.is_file():
            return "characterize wrote no JSON payload"
        data = payload.read_bytes()
        payload.unlink()
        if data != self.reference:
            return (f"corpus seed {self.corpus_seed} payload differs from "
                    f"the reference")
        return None


WORKLOADS = {cls.name: cls for cls in (ReportWarm, CorpusCharacterize)}

