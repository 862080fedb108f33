#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and the working tree.

Extracts the committed files of --parent into a temporary directory (with
``git archive``, so that a killed run leaves nothing behind in ``.git``)
and runs ``perfbench/run.py --trace 0`` there and in the working tree, for
each workload --pairs times, alternating which side runs first.  Each run
has a timeout, and the temporary directory is removed however the script
ends.

The JSON written to --out holds, per workload and end-to-end metric (the
names, units and directions come from BENCHMARK.json), both sides' median
with q1 and q3, the relative change of the medians, the pairs the change
won (ties count for neither) and whether the gain rule holds: the change
wins at least nine tenths of the pairs and the medians differ by more than
the parent's q3 - q1.  Every run is kept in full: its metrics, attempted
and failed ops, correctness (every op passed and, on seed 0, the digest of
values, PVs and playout scores matched) and the benchmark's environment
line.  Per workload it also compares the ops: each side's median over the
pairs of each op's median latency, the median over the ops of their
relative change, the ops that moved most in ms, and the ops nearest the
parent's median latency, which set ``op_p50_ms``.  An op's latencies are
read from the ``timing`` block of the run's ``.perfbench_out`` file and
scaled to reference speed by the measured tree's
``perfbench/calibrate.Calibrator`` over the run's kernel samples, as the
benchmark scales its end-to-end times; so drift in the machine's speed does
not read as a change.  After the pairs, each side
runs ``perfbench/run.py --trace 1`` once per workload, and the per-layer
counts that BENCHMARK.json names (its per-layer metrics whose unit is
``count``) are kept under ``layers`` with both sides' values and their
relative change, beside the traced runs' correctness under ``traced``.  A
traced run's times are single samples, too noisy to show a layer's change,
so they are not compared.  The same data is printed as Markdown tables.

Usage: python scripts/bench_pairs.py --parent REV --pairs N
       [--workload W ...] [--seconds S] [--seed S] [--smoke] --out PATH
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder", "strategy", "desk_small")
# a run may take its --seconds plus set-up, the digest check and start-up
RUN_MARGIN_S = 240.0
# ops listed per workload: the largest movers, and those around the median
OPS_LISTED = 5
# reads a run's per-op medians in a child process: the run's file holds
# every op latency, and loading it here would raise this process's peak
# RSS, which each later benchmark run inherits at exec as its own peak
OP_MEDIANS = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from bench_pairs import scaled_op_ms; "
              "print(json.dumps(scaled_op_ms(*sys.argv[2:])))")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, args, trace: int = 0) -> dict:
    """One ``perfbench/run.py --trace <trace>`` run in ``tree``, parsed;
    an untraced run also reads its scaled per-op median latencies."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
           "environment": None, "error": None}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        run["error"] = f"timed out after {args.seconds + RUN_MARGIN_S:g} s"
        return run
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("environment "):
            run["environment"] = json.loads(line[len("environment "):])
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = (f"exit {proc.returncode} without a result: "
                        f"{proc.stderr.strip()[-500:]}")
        return run
    run.update(correct=res["correct"], attempted=res["attempted"],
               failed=res["failed"],
               metrics={k: v["value"] for k, v in res["metrics"].items()})
    if trace:
        return run
    out = tree / ".perfbench_out" / f"{workload}-seed{args.seed}-trace0.json"
    run["op_ms"] = json.loads(subprocess.run(
        [sys.executable, "-c", OP_MEDIANS, str(ROOT / "scripts"), str(out), str(tree)],
        check=True, text=True, stdout=subprocess.PIPE).stdout)
    return run


def scaled_op_ms(out: str, tree: str) -> dict[str, float]:
    """Per op label of the run file ``out``, its median latency in ms,
    scaled to reference speed by ``op_medians`` and ``Calibrator`` of
    ``tree``'s ``perfbench`` over the run's kernel samples, as the run
    scaled its end-to-end times.  Runs in a child process (``OP_MEDIANS``),
    since it imports the measured tree's benchmark modules."""
    sys.path.insert(0, str(Path(tree) / "perfbench"))
    from calibrate import Calibrator
    from run import op_medians
    run = json.loads(Path(out).read_text())
    timing = run["timing"]
    cal = Calibrator()
    cal.mids, cal.secs = timing["kernel_mids"], timing["kernel_s"]
    rounds = [SimpleNamespace(index=index, starts=starts, latencies=latencies)
              for index, starts, latencies in zip(
                  timing["op_index"], timing["op_starts"], timing["op_latencies"])]
    medians = op_medians(run["instances"], rounds, cal)
    return {row["label"]: m * 1e3 for row, m in zip(run["instances"], medians)}


def quartiles(xs: list[float]) -> dict[str, float]:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the relative change of the
    medians, the pairs won and the gain rule, over the pairs in which both
    runs produced the metric."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        par = quartiles([a for a, _ in both])
        chg = quartiles([b for _, b in both])
        won = sum((b < a) if lower else (b > a) for a, b in both)
        gained = (chg["median"] < par["median"]) if lower else (chg["median"] > par["median"])
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": par, "change": chg,
            "rel_change": (chg["median"] - par["median"]) / par["median"]
            if par["median"] else None,
            "pairs_won": won, "pairs": len(both),
            "gain_rule_met": gained and won >= 0.9 * len(both)
            and abs(chg["median"] - par["median"]) > par["q3"] - par["q1"],
        }
    return out


def summarise_layers(traced: dict[str, dict], per_layer: list[dict]) -> dict:
    """Per layer count that both traced runs produced: its unit and
    direction, both sides' values and the relative change.  A traced time
    is a single noisy sample, so only the metrics whose unit is ``count``
    are compared."""
    out = {}
    for m in per_layer:
        name = m["name"]
        if m["unit"] == "count" and all(name in traced[side]["metrics"] for side in ("parent", "change")):
            a, b = (traced[side]["metrics"][name] for side in ("parent", "change"))
            out[name] = {"unit": m["unit"], "better": m["better"],
                         "parent": a, "change": b,
                         "rel_change": (b - a) / a if a else None}
    return out


def summarise_ops(pairs: list[dict]) -> dict:
    """Per op, over the pairs in which both runs timed it: both sides'
    median of its median latency and the relative change; then the median
    of those changes, the ``OPS_LISTED`` ops whose medians moved most in ms
    and the ``OPS_LISTED`` ops nearest the parent's median op latency."""
    timed = [(p["parent"]["op_ms"], p["change"]["op_ms"]) for p in pairs
             if p["parent"].get("op_ms") and p["change"].get("op_ms")]
    ops = []
    for label in timed[0][0] if timed else ():
        both = [(par[label], chg[label]) for par, chg in timed
                if label in par and label in chg]
        if both:
            a = statistics.median(x for x, _ in both)
            b = statistics.median(y for _, y in both)
            ops.append({"label": label, "parent_ms": a, "change_ms": b,
                        "rel_change": (b - a) / a if a else None})
    if not ops:
        return {}
    rels = [o["rel_change"] for o in ops if o["rel_change"] is not None]
    by_parent = sorted(ops, key=lambda o: o["parent_ms"])
    mid = len(by_parent) // 2
    lo = max(0, mid - OPS_LISTED // 2)
    return {
        "ops": len(ops),
        "rel_change_median": statistics.median(rels) if rels else None,
        "movers": sorted(ops, key=lambda o: -abs(o["change_ms"] - o["parent_ms"]))[:OPS_LISTED],
        "at_median": by_parent[lo:lo + OPS_LISTED],
    }


def markdown(report: dict) -> str:
    names = [m["name"] for m in report["end_to_end"]]
    lines = ["| workload | metric | parent median [q1–q3] | change median [q1–q3] "
             "| change | pairs won | gain rule |",
             "|---|---|---|---|---|---|---|"]
    for wl, body in report["workloads"].items():
        for name, s in body["metrics"].items():
            p, c = s["parent"], s["change"]
            rel = "n/a" if s["rel_change"] is None else f"{s['rel_change']:+.1%}"
            lines.append(
                f"| `{wl}` | `{name}` | {p['median']:.4g} [{p['q1']:.4g}–{p['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}–{c['q3']:.4g}] | {rel} "
                f"| {s['pairs_won']}/{s['pairs']} | {'yes' if s['gain_rule_met'] else 'no'} |")
    lines += ["", "| workload | pair | side | first | " + " | ".join(names)
              + " | failed/attempted | correct |",
              "|---|---|---|---|" + "---|" * len(names) + "---|---|"]
    for wl, body in report["workloads"].items():
        for i, pair in enumerate(body["pairs"]):
            for side in ("parent", "change"):
                run = pair[side]
                vals = " | ".join(f"{run['metrics'][n]:.4g}" if n in run["metrics"]
                                  else "–" for n in names)
                lines.append(f"| `{wl}` | {i} | {side} | "
                             f"{'yes' if pair['first'] == side else 'no'} | {vals} "
                             f"| {run['failed']}/{run['attempted']} "
                             f"| {'yes' if run['correct'] else 'no: ' + str(run['error'])} |")
    lines += ["", "| workload | op | listed as | parent ms | change ms | change |",
              "|---|---|---|---|---|---|"]
    for wl, body in report["workloads"].items():
        ops = body["ops"]
        if not ops:
            continue
        rel = ops["rel_change_median"]
        lines.append(f"| `{wl}` | all {ops['ops']} ops | median change | | | "
                     f"{'n/a' if rel is None else f'{rel:+.1%}'} |")
        for listed in ("movers", "at_median"):
            for o in ops[listed]:
                r = "n/a" if o["rel_change"] is None else f"{o['rel_change']:+.1%}"
                lines.append(f"| `{wl}` | {o['label']} | {listed.replace('_', ' ')} "
                             f"| {o['parent_ms']:.4g} | {o['change_ms']:.4g} | {r} |")
    lines += ["", "| workload | layer count | parent | change | change |",
              "|---|---|---|---|---|"]
    for wl, body in report["workloads"].items():
        for name, s in body["layers"].items():
            if not (s["parent"] or s["change"]):
                continue  # a layer the workload does not reach
            rel = "n/a" if s["rel_change"] is None else f"{s['rel_change']:+.1%}"
            lines.append(f"| `{wl}` | `{name}` | {s['parent']:.6g} | {s['change']:.6g} "
                         f"| {rel} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several; default all three")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal instance sizes, for a quick check of the script")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "parent": args.parent,
        "parent_commit": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
        "change": "working tree",
        "change_head": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": "perfbench/run.py --trace 0; per layer --trace 1",
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "pairs": args.pairs,
        "end_to_end": bench["end_to_end"],
        "environment": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp)
        extract(report["parent_commit"], parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for wl in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run = run_bench(trees[side], wl, args)
                    report["environment"] = report["environment"] or run["environment"]
                    print(f"{wl} pair {i} {side}: correct={run['correct']} "
                          f"failed={run['failed']}/{run['attempted']} "
                          f"wall_s={run['metrics'].get('wall_s')}", flush=True)
                pairs.append(pair)
            report["workloads"][wl] = {
                "pairs": pairs,
                "metrics": summarise(pairs, bench["end_to_end"]),
                "ops": summarise_ops(pairs),
            }
            # the per-op latencies of each run live on in the summary only
            for pair in pairs:
                for side in ("parent", "change"):
                    pair[side].pop("op_ms", None)
            traced = {}
            for side in ("parent", "change"):
                traced[side] = run = run_bench(trees[side], wl, args, trace=1)
                print(f"{wl} traced {side}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']}", flush=True)
            report["workloads"][wl]["layers"] = summarise_layers(traced, bench["per_layer"])
            report["workloads"][wl]["traced"] = {
                side: {k: run[k] for k in ("correct", "attempted", "failed", "error")}
                for side, run in traced.items()}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(markdown(report))
    ok = all(p[s]["correct"] for body in report["workloads"].values()
             for p in body["pairs"] + [body["traced"]] for s in ("parent", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
