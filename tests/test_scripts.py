"""The scripts under ``scripts/`` that check the solver and compare benchmark
runs, each run as a command at a small size."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300)


def test_exhaustive_crosscheck_all_variants():
    # every labelled graph with n <= 5 under all five variants against
    # oracles.naive_value: TargetSet and both SkipBudgets for every target
    # set up to n = 4, and for two seeded target sets per graph at n = 5
    proc = _script("exhaustive_crosscheck.py", "--max-n", "5", "--variants", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1100 graphs cross-checked, no disagreements" in proc.stdout
    assert "n=4: all 64 labelled graphs agree" in proc.stdout
    assert "n=5: all 1024 labelled graphs agree" in proc.stdout
    assert "target-set and skip states at 2 seeded x per graph" in proc.stdout


def test_exhaustive_crosscheck_seeded_positions():
    # random non-empty positions of seeded G(n, m) with n = 8..10, under
    # Plain, Connected, TargetSet(x), SkipBudget(1, 1, x) and
    # SkipBudget(1, 0, x) with a seeded x per position, against
    # oracles.naive_value
    proc = _script("exhaustive_crosscheck.py", "--sample", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("20 sampled graphs, 60 positions agree under Plain, Connected, "
            "TargetSet and both SkipBudgets") in proc.stdout
    assert "(14 with G - blue split," in proc.stdout


def test_exhaustive_crosscheck_head_modes():
    # analyze_head on every labelled head with n <= 4 and every non-empty K:
    # each has exactly one mode, and none raises InternalError
    proc = _script("exhaustive_crosscheck.py", "--heads", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1023 heads with n <= 4: sa2 628, sb2 320, hold 75" in proc.stdout


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_bench_pairs_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = _script("bench_pairs.py", "--parent", "HEAD", "--pairs", "1",
                   "--workload", "ladder", "--smoke", "--seconds", "1",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["pairs"] == 1 and report["smoke"] is True
    assert len(report["parent_commit"]) == 40
    assert report["environment"]["python"]
    body = report["workloads"]["ladder"]
    (pair,) = body["pairs"]
    assert pair["first"] == "parent"
    for side in ("parent", "change"):
        run = pair[side]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert run["environment"] == report["environment"]
    names = [m["name"] for m in report["end_to_end"]]
    assert sorted(body["metrics"]) == sorted(names)
    for s in body["metrics"].values():
        assert s["parent"]["q1"] <= s["parent"]["median"] <= s["parent"]["q3"]
        assert s["pairs"] == 1 and s["pairs_won"] in (0, 1)
        assert isinstance(s["gain_rule_met"], bool)
    assert "| `ladder` | `wall_s` |" in proc.stdout
    # per-op latencies: summarised per workload, not kept per run
    ops = body["ops"]
    assert ops["ops"] == 7 and "op_ms" not in pair["parent"]
    assert isinstance(ops["rel_change_median"], float)
    assert len(ops["movers"]) == len(ops["at_median"]) == 5
    for o in ops["movers"] + ops["at_median"]:
        assert o["parent_ms"] > 0 and o["change_ms"] > 0 and o["label"]
    assert "| `ladder` | all 7 ops | median change |" in proc.stdout
    # per-layer metrics: one traced run per side, named as in BENCHMARK.json
    assert all(body["traced"][side]["correct"] for side in ("parent", "change"))
    layers = body["layers"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    assert layers and set(layers) <= set(per_layer)
    for name in ("solver.states_expanded", "graphs.component_of.calls"):
        s = layers[name]
        assert s["parent"] > 0 and s["change"] > 0
        assert s["rel_change"] == (s["change"] - s["parent"]) / s["parent"]
        assert s["unit"] == per_layer[name]["unit"]
    assert "| `ladder` | `solver.states_expanded` |" in proc.stdout


def test_bench_pairs_scales_op_latencies(tmp_path):
    # a synthetic run file whose kernel samples all take twice the
    # reference time: every scaled op median is half the raw one
    sys.path.insert(0, str(ROOT / "scripts"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from bench_pairs import OP_MEDIANS
        from calibrate import REFERENCE_S
    finally:
        del sys.path[:2]
    raw = {"a": [0.010, 0.030, 0.020], "b": [0.004, 0.008, 0.006]}
    run = {
        "instances": [{"label": "a"}, {"label": "b"}],
        "timing": {
            "kernel_mids": [0.5 * i for i in range(12)],
            "kernel_s": [2 * REFERENCE_S] * 12,
            "op_index": [[0, 1]] * 3,
            "op_starts": [[1.0 + 2 * r, 1.5 + 2 * r] for r in range(3)],
            "op_latencies": [[raw["a"][r], raw["b"][r]] for r in range(3)],
        },
    }
    out = tmp_path / "run.json"
    out.write_text(json.dumps(run))
    proc = subprocess.run([sys.executable, "-c", OP_MEDIANS, str(ROOT / "scripts"),
                           str(out), str(ROOT)], check=True, text=True,
                          stdout=subprocess.PIPE, timeout=60)
    # the raw medians are 20 and 6 ms
    assert json.loads(proc.stdout) == pytest.approx({"a": 10.0, "b": 3.0})
