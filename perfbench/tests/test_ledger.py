"""The ledger's steadiness verdicts.  Run with
``python3 -m pytest perfbench/tests``."""

import json
from pathlib import Path

from perfbench.ledger import render, steadiness

ROOT = Path(__file__).resolve().parents[2]


def test_spread_over_the_bound_fails():
    assert steadiness([1.0, 1.0, 1.0, 1.0], 0.1)["spread_ok"]
    assert not steadiness([1.0, 2.0, 1.0, 2.0], 0.1)["spread_ok"]


def test_drift_fails_in_either_direction():
    values = [1.0, 1.0, 1.0, 1.0]
    assert steadiness(values, 0.25, [1.1, 1.1])["drift_ok"]
    assert not steadiness(values, 0.25, [1.7, 1.7])["drift_ok"]
    assert not steadiness(values, 0.25, [0.6, 0.6])["drift_ok"]
    assert "drift" not in steadiness(values, 0.25)


def _run(seed: int, trace: int, values: dict[str, float]) -> dict:
    return {"seed": seed, "trace": trace, "correct": True, "env": None,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in values.items()}}


def test_setup_time_is_held_to_its_bound_like_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {"w": [_run(seed, 0, {name: 1.0 for name in names}
                       | {"setup_s": 1.0 + seed % 2})
                  for seed in range(8)]}
    rows = {line.split(" | ")[0][2:]: line
            for line in render(spec, [("a.json", runs)]).splitlines()
            if line.startswith("| ")}
    assert rows["setup_s"].endswith("| NO |")
    assert rows["wall_s"].endswith("| yes |")
