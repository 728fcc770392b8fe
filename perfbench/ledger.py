"""Steadiness ledger: each workload over several seeds, untraced then
traced, summarized against the bounds in ``BENCHMARK.json``.

Usage (from the root of a source checkout)::

    python3 perfbench/ledger.py --seeds 1-10 --traced-seeds 1-2 \\
        --json perfbench/results/set-a.json
    python3 perfbench/ledger.py --seeds 11-20 --traced-seeds 11-12 \\
        --json perfbench/results/set-b.json
    python3 perfbench/ledger.py --render perfbench/results/set-a.json \\
        perfbench/results/set-b.json --out perfbench/LEDGER.md

For every end-to-end metric it prints the median, quartiles and spread
(quartile distance over the median) next to the metric's bound; for every
set after the first also the drift of the median from the first set's.
From the traced runs it prints each attributed part's share of the traced
wall time, per phase, and whether each predicted dominant layer held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    LAYER_TOTALS, PARTS, layer_shares, spread,
)

#: (workload, phase) -> (predicted dominant part, the metrics that make
#: it up).  report_warm's set-up is the cold report (plus cache stores).
PREDICTIONS = {
    ("report_warm", "setup"): ("sim", ("sim.busy_s",)),
    ("report_warm", "unit"): ("core.orders", ("core.orders.subset_s",
                                              "core.orders.matrix_s")),
    ("corpus_characterize", "unit"): ("bcc+analysis", ("layer.bcc_s",
                                                       "layer.analysis_s")),
}


def seed_range(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else {"correct": False}
    result.update(seed=seed, trace=trace, exit_code=proc.returncode,
                  env=env)
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} "
          f"correct={result.get('correct')}", file=sys.stderr, flush=True)
    return result


def collect(spec: dict, seeds: list[int], traced_seeds: list[int]) -> dict:
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = (
            [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
            + [run_once(workload, s, spec["run_seconds"], 1)
               for s in traced_seeds])
    return runs


def _values(results: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in results
            if r.get("correct") and name in r.get("metrics", {})]


def _mean(traced: list[dict], name: str) -> float:
    return statistics.fmean(_values(traced, name))


def _share_rows(traced: list[dict], prefix: str) -> list[tuple[str, float]]:
    """Shares of the mean traced wall; they sum to 1 because each run's
    parts sum to its traced wall."""
    means = {name: _mean(traced, prefix + name)
             for name in (*PARTS, "traced_s")}
    return list(layer_shares(means).items())


def steadiness(values: list[float], bound: float,
               base: list[float] | None = None) -> dict:
    """A metric's median, quartiles and spread over *values*, and, given
    the baseline set's *base* values, the drift of the median from
    theirs.  Both must stay within *bound*; drift counts either way."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med, s = statistics.median(values), spread(values)
    row = {"median": med, "q1": q1, "q3": q3, "spread": s,
           "spread_ok": s <= bound}
    if base:
        row["base"] = statistics.median(base)
        row["drift"] = med / row["base"] - 1
        row["drift_ok"] = abs(row["drift"]) <= bound
    return row


def render(spec: dict, sets: list[tuple[str, dict]]) -> str:
    """The ledger of every saved set; sets after the first are compared
    with the first."""
    names = [name for name, _ in sets]
    out = ["# perfbench ledger", "",
           f"Sets {', '.join(Path(n).stem for n in names)} of the "
           "benchmark's runs, rendered from the saved results with", "",
           "```sh", "python3 perfbench/ledger.py --render "
           + " ".join(names) + " --out perfbench/LEDGER.md", "```", "",
           "`spread` is the quartile distance over the median of the "
           "untraced runs; `ok` compares it with the metric's bound.  "
           "From the second set on, `drift` is the change of the median "
           "from the first set's, held to the same bound either way.  "
           "Traced tables give each attributed part's share of the traced "
           "wall time; they sum to 100% by construction.", ""]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = sets[0][1]
    for index, (label, runs) in enumerate(sets):
        out += [f"## {Path(label).stem}", ""]
        for workload, results in runs.items():
            base = (baseline.get(workload, []) if index else None)
            out += _workload_section(workload, results, bounds, base)
    return "\n".join(out) + "\n"


def _workload_section(workload: str, results: list[dict],
                      bounds: dict[str, float],
                      baseline: list[dict] | None) -> list[str]:
    plain = [r for r in results if r["trace"] == 0]
    traced = [r for r in results if r["trace"] == 1]
    bad = [r["seed"] for r in results if not r.get("correct")]
    env = next((r["env"] for r in results if r.get("env")), {})
    out = [f"### {workload}", "",
           f"{len(plain)} untraced runs (seeds "
           f"{', '.join(str(r['seed']) for r in plain)}), "
           f"{len(traced)} traced; failed runs: {bad or 'none'}.  "
           f"Environment: python {env.get('python')}, nproc "
           f"{env.get('nproc')}, src {env.get('src_sha256')}, "
           f"git {env.get('git_sha')}, inputs {env.get('inputs')}; "
           f"load averages "
           f"{[r['env']['loadavg'][0] for r in results if r.get('env')]}"
           ".", ""]
    head = "| metric | median | q1 | q3 | spread | bound | ok |"
    rule = "|---|---|---|---|---|---|---|"
    if baseline is not None:
        head += " baseline median | drift |"
        rule += "---|---|"
    out += [head, rule]
    base_plain = [r for r in baseline or [] if r["trace"] == 0]
    for name, bound in bounds.items():
        values = _values(plain, name)
        if len(values) < 2:
            out.append(f"| {name} | n/a | | | | {bound:.0%} | NO |")
            continue
        row = steadiness(values, bound, _values(base_plain, name))
        line = (f"| {name} | {row['median']:.4f} | {row['q1']:.4f} | "
                f"{row['q3']:.4f} | {row['spread']:.2%} | {bound:.0%} | "
                f"{'yes' if row['spread_ok'] else 'NO'} |")
        if baseline is not None:
            line += (f" {row['base']:.4f} | {row['drift']:+.2%} "
                     f"{'ok' if row['drift_ok'] else 'NO'} |"
                     if "drift" in row else " n/a | |")
        out.append(line)
    out.append("")
    out.append("Values by seed: " + "; ".join(
        f"{name} " + ", ".join(f"{v:.4f}" for v in _values(plain, name))
        for name in bounds))
    out.append("")
    if not any(r.get("correct") for r in traced):
        return out
    for phase, prefix in (("unit", ""), ("setup", "setup.")):
        rows = _share_rows(traced, prefix)
        wall = _mean(traced, prefix + "traced_s")
        overhead = (f", overhead ratio (traced / untraced unit wall) "
                    f"{_mean(traced, 'trace.overhead_ratio'):.3f}"
                    if phase == "unit" else "")
        out += [f"Traced {phase}: mean traced wall {wall:.3f} s"
                f"{overhead}.", "",
                "| part | share of traced wall |", "|---|---|"]
        out += [f"| {part} | {share:.1%} |" for part, share in rows]
        out += [f"| total | {sum(s for _, s in rows):.1%} |", ""]
        prediction = PREDICTIONS.get((workload, phase))
        if prediction:
            out.append(_verdict(traced, phase, prefix, *prediction))
            out.append("")
    return out


def _verdict(traced: list[dict], phase: str, prefix: str, label: str,
             members: tuple[str, ...]) -> str:
    """Whether *members* together take more of the traced wall than any
    other attributed part; a member inside a layer is taken out of that
    layer's total first."""
    parts = {part: _mean(traced, prefix + part) for part in PARTS}
    predicted = 0.0
    for name in members:
        value = _mean(traced, prefix + name)
        predicted += value
        if name in parts:
            del parts[name]
        else:
            parts[LAYER_TOTALS[name.split(".")[0]]] -= value
    top, top_value = max(parts.items(), key=lambda item: item[1])
    wall = _mean(traced, prefix + "traced_s")
    held = "HELD" if predicted > top_value else "WRONG"
    return (f"Prediction: {label} dominates the traced {phase} wall: "
            f"{held} ({label} {predicted / wall:.1%}, largest other part "
            f"{top} {top_value / wall:.1%}).")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/ledger.py")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1-2")
    parser.add_argument("--json", default=None,
                        help="write the raw results of the runs here")
    parser.add_argument("--render", nargs="+", default=None,
                        metavar="JSON",
                        help="render saved sets instead of running; the "
                             "first is the baseline of the others")
    parser.add_argument("--out", default=None, help="write the ledger here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.render:
        sets = [(name, json.loads(Path(name).read_text()))
                for name in args.render]
    else:
        runs = collect(spec, seed_range(args.seeds),
                       seed_range(args.traced_seeds)
                       if args.traced_seeds else [])
        if args.json:
            Path(args.json).write_text(json.dumps(runs, indent=1))
        sets = [(args.json or "runs", runs)]
    text = render(spec, sets)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
