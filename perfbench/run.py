"""Seeded, single-process performance benchmark of the lcsgame toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see workloads.py): ``ladder`` (deep exact solves), ``strategy``
(exhaustive strategy verification and random playouts) and ``desk_small``
(about 1 400 short calls).  The loop is closed: one caller, one call at
a time, no threads.

``--trace 0`` times batches of repeated set-ups, then runs rounds over the
workload's ops until ``--seconds`` of the run are used, and prints the
end-to-end metrics.  A fixed calibration kernel (calibrate.py) is timed
between ops, and every end-to-end time is scaled to the kernel's reference
speed, so that the drift of a shared machine's speed does not move it.
``--trace 1`` runs one untraced round and then one round with span tracing
at the module boundaries, and prints the per-layer metrics plus the tracing
overhead.
Every result is checked; the last line of standard output is one JSON
object, and the exit code is 0 only if every op ran and passed its checks.
Instance identities, environment and metrics also go to
``.perfbench_out/`` in the repository root, next to the traced spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKLOAD_NAMES = ("ladder", "strategy", "desk_small")
DEFAULT_SEED = 0
# Set-up is timed in SETUP_BATCHES batches of repeats lasting at least
# SETUP_BATCH_S each, before the first round, with a calibration sample
# between batches; setup_s is the median of the batches' scaled per-set-up
# times.
SETUP_BATCHES = 8
SETUP_BATCH_S = 0.1
# No round starts, and no op either, once this much of the run is gone, so
# that a run ends inside three minutes even when the program gets slower;
# an op not started counts as failed.
RUN_DEADLINE_S = 150.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

GRAPH_FUNCS = ("component_of", "components_within", "largest_component_order",
               "neighborhood", "induced")


@dataclass
class Round:
    wall: float
    index: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    records: list[dict | None] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)


def _import_program():
    """Import the package from this checkout's ``src``, or explain why not."""
    src = ROOT / "src"
    if not (src / "lcsgame" / "__init__.py").is_file():
        raise ImportError(f"no lcsgame package under {src}")
    sys.path.insert(0, str(src))
    import lcsgame
    if Path(lcsgame.__file__).resolve().parent != (src / "lcsgame").resolve():
        raise ImportError(f"lcsgame was imported from {lcsgame.__file__}, not {src}")


class SetupSampler:
    """Times batches of repeated set-ups, each scaled to reference speed."""

    def __init__(self, build, seed: int, smoke: bool, cal):
        from tracing import NullTracer
        def rebuild():
            return build(seed, NullTracer(), smoke)
        t0 = time.perf_counter()
        self.ops = rebuild()
        self.per_batch = max(1, math.ceil(SETUP_BATCH_S / (time.perf_counter() - t0)))
        spans = []
        cal.sample()
        for _ in range(SETUP_BATCHES):
            t0 = time.perf_counter()
            for _ in range(self.per_batch):
                rebuild()
            spans.append((t0, time.perf_counter()))
            cal.sample()
        self.spans = spans
        self.raw = [(t1 - t0) / self.per_batch for t0, t1 in spans]
        self.times = [x * cal.scale(t0, t1) for x, (t0, t1) in zip(self.raw, spans)]


def run_round(ops, tr, deadline: float, cal=None, stop_at: float | None = None,
              expected: list[float] | None = None) -> Round:
    """A pass over the ops.  With *stop_at* (a perf_counter time), an op that
    would end after it, judged by its *expected* latency, is skipped.  With a
    calibrator, a kernel sample is taken between ops whenever its interval
    has passed, and once at the end."""
    from lcsgame.engine import BudgetExceededError
    gc.collect()
    rnd = Round(0.0)
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if stop_at is not None and time.perf_counter() + expected[i] > stop_at:
            continue
        if cal is not None:
            cal.maybe_sample()
        tr.op_id = i
        t0 = time.perf_counter()
        try:
            if time.monotonic() > deadline:
                raise BudgetExceededError("run deadline passed before the op started")
            rec, err = tr.call("bench.op", op.run, tr), None
        except BudgetExceededError as exc:
            rec, err = None, f"budget exceeded: {exc}"
        except Exception:  # one op's crash is a failed op, not a failed run
            rec, err = None, traceback.format_exc(limit=4)
        rnd.latencies.append(time.perf_counter() - t0)
        rnd.index.append(i)
        rnd.starts.append(t0)
        rnd.records.append(rec)
        rnd.errors.append(err)
    if cal is not None:
        cal.sample()
    rnd.wall = time.perf_counter() - start
    return rnd


def op_medians(ops, rounds: list[Round], cal) -> list[float]:
    """Per op, the median over the rounds that ran it of its latency, scaled
    to reference speed (unscaled without a calibrator)."""
    runs: list[list[float]] = [[] for _ in ops]
    for rnd in rounds:
        for i, lat, t0 in zip(rnd.index, rnd.latencies, rnd.starts):
            runs[i].append(lat if cal is None else lat * cal.scale(t0, t0 + lat))
    return [statistics.median(x) for x in runs]


def check_round(ops, rnd: Round, reference: Round | None) -> list[str | None]:
    """Failure message per op run: the op raised, failed its check, or
    (against the whole first round) returned a different record."""
    out = []
    for i, err, rec in zip(rnd.index, rnd.errors, rnd.records):
        if err is None and reference is not None:
            if reference.errors[i] is not None:
                err = reference.errors[i]
            elif rec != reference.records[i]:
                err = "record differs from the first round of the same inputs"
        elif err is None:
            try:
                err = ops[i].check(rec)
            except Exception:
                err = "check raised: " + traceback.format_exc(limit=4)
        out.append(err)
    return out


def tail_latency(latencies: list[float]):
    """(percentile, value) at the highest listed percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = n - int(-(-p * n // 100))  # samples above the nearest rank
        if beyond >= 10:
            return p, ordered[n - beyond - 1]
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "loop": "closed, 1 caller, no threads",
    }


def instance_rows(ops, rounds: list[Round]) -> list[dict]:
    from workloads import edge_hash
    rows = []
    runs = Counter(i for rnd in rounds for i in rnd.index)
    for i, (op, median_s) in enumerate(zip(ops, op_medians(ops, rounds, None))):
        rec = rounds[0].records[i]
        row = {"kind": op.kind, "label": op.label,
               "median_ms": round(median_s * 1e3, 3), "runs": runs[i]}
        if op.graph is not None:
            row.update(n=op.graph.n, m=op.graph.edge_count, edges=edge_hash(op.graph))
        if rec is not None:
            row.update({k: rec[k] for k in ("value", "states", "nodes", "min", "max")
                        if k in rec})
        rows.append(row)
    return rows


def _digest_problem(workload: str, ops, records, seed: int, smoke: bool) -> str | None:
    """On the default seed, compare the digest of all values, PVs and
    playout scores with the one recorded in digests.json."""
    from workloads import records_digest
    if seed != DEFAULT_SEED or smoke:
        return None
    digest = records_digest(ops, records)
    want = json.loads(DIGESTS.read_text()).get(workload)
    if want != digest:
        return (f"digest {digest} of values, PVs and playout scores differs "
                f"from the recorded {want}")
    print(f"digest of values, PVs and playout scores matches ({digest[:16]})")
    return None


def _layer_metrics(tr, base: Round, traced: Round, probe) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for f in GRAPH_FUNCS:
        m[f"graphs.{f}.calls"] = (tr.calls(f"graphs.{f}"), "count")
        m[f"graphs.{f}.self_s"] = (tr.seconds(f"graphs.{f}", "self"), "s")
    cg_s = tr.seconds("solver.cg")
    states = tr.counters.get("solver.states_expanded", 0)
    m["solver.cg.calls"] = (tr.calls("solver.cg"), "count")
    m["solver.cg.s"] = (cg_s, "s")
    m["solver.cg.self_s"] = (tr.seconds("solver.cg", "self"), "s")
    m["solver.states_expanded"] = (states, "count")
    m["solver.states_per_s"] = (states / cg_s if cg_s else 0.0, "1/s")
    m["solver.pv.s"] = (tr.seconds("solver.pv"), "s")
    m["solver.bytes_per_state"] = (
        probe.rss_growth / probe.rss_states if probe.rss_states else 0.0, "B")
    for f in ("analyze_head", "can_force_cds_within", "is_a_perfect"):
        m[f"solver.{f}.calls"] = (tr.calls(f"solver.{f}"), "count")
        m[f"solver.{f}.s"] = (tr.seconds(f"solver.{f}"), "s")
    m["engine.verify.calls"] = (tr.calls("engine.verify"), "count")
    m["engine.verify.s"] = (tr.seconds("engine.verify"), "s")
    m["engine.verify.self_s"] = (tr.seconds("engine.verify", "self"), "s")
    playouts = tr.counters.get("engine.playouts", 0)
    playout_s = tr.seconds("engine.playouts")
    m["engine.playouts"] = (playouts, "count")
    m["engine.playouts_per_s"] = (playouts / playout_s if playout_s else 0.0, "1/s")
    m["engine.playouts.self_s"] = (tr.seconds("engine.playouts", "self"), "s")
    for f in ("legal_moves", "apply_move"):
        m[f"engine.{f}.calls"] = (tr.calls(f"engine.{f}"), "count")
        m[f"engine.{f}.self_s"] = (tr.seconds(f"engine.{f}", "self"), "s")
    m["strategies.choose.calls"] = (tr.calls("strategies.choose"), "count")
    m["strategies.choose.self_s"] = (tr.seconds("strategies.choose", "self"), "s")
    m["qgraph.cg_qgraph.calls"] = (tr.calls("qgraph.cg_qgraph"), "count")
    m["qgraph.cg_qgraph.s"] = (tr.seconds("qgraph.cg_qgraph"), "s")
    m["qgraph.cg_qgraph.self_s"] = (tr.seconds("qgraph.cg_qgraph", "self"), "s")
    m["qgraph.validate_tree.s"] = (tr.seconds("qgraph.validate_tree"), "s")
    m["qgraph.nodes_evaluated"] = (tr.counters.get("qgraph.nodes_evaluated", 0), "count")
    m["generators.s"] = (tr.seconds("generators"), "s")
    m["reductions.s"] = (tr.seconds("reductions"), "s")
    m["trace.overhead_s"] = (traced.wall - base.wall, "s")
    return m


def _report_failures(ops, failures: list[str | None]) -> int:
    failed = 0
    for op, err in zip(ops, failures):
        if err is not None:
            failed += 1
            if failed <= 20:
                print(f"FAILED {op.kind} [{op.label}]: {err.strip()}")
    return failed


def run_workload(args) -> int:
    from calibrate import REFERENCE_S, Calibrator
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS
    build = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print("environment " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        tracer = Tracer()
        ops = build(args.seed, tracer, args.smoke)
        probe = NullTracer(rss_probe=True)
        rounds = [run_round(ops, probe, deadline)]
        tracer.install()
        try:
            rounds.append(run_round(ops, tracer, deadline))
        finally:
            tracer.uninstall()
        metrics = _layer_metrics(tracer, rounds[0], rounds[1], probe)
    else:
        cal = Calibrator()
        stop_at = time.perf_counter() + args.seconds
        setup = SetupSampler(build, args.seed, args.smoke, cal)
        ops = setup.ops
        null = NullTracer()
        rounds = [run_round(ops, null, deadline, cal)]
        # Later rounds run the same ops on a fragmented heap, which can only
        # raise the peak, by an amount that depends on which ops fit in.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while time.perf_counter() < stop_at:
            rnd = run_round(ops, null, deadline, cal, stop_at, rounds[0].latencies)
            if not rnd.latencies:
                break
            rounds.append(rnd)

    per_round = [check_round(ops, rnd, None if i == 0 else rounds[0])
                 for i, rnd in enumerate(rounds)]
    failures = [err for errs in per_round for err in errs]
    attempted = len(failures)
    failed = _report_failures([ops[i] for rnd in rounds for i in rnd.index], failures)
    if not args.trace:
        medians = op_medians(ops, rounds, cal)
        broken = {i for rnd, errs in zip(rounds, per_round)
                  for i, err in zip(rnd.index, errs) if err}
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "wall_s": (sum(medians), "s"),
            "ops_per_s": ((len(ops) - len(broken)) / sum(medians), "ops/s"),
            "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    digest_err = _digest_problem(args.workload, ops, rounds[0].records, args.seed,
                                 args.smoke)
    if digest_err:
        print(f"FAILED digest: {digest_err}")
    correct = failed == 0 and digest_err is None

    rows = instance_rows(ops, rounds)
    for row in rows if len(rows) <= 40 else ():
        print("instance " + json.dumps(row, sort_keys=True))
    if len(rows) > 40:
        print(f"instance identities of {len(rows)} ops are in the results file")
    print(f"rounds {len(rounds)}, ops per round {len(ops)}, "
          f"attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f}")
    if not args.trace:
        print(f"setup_s from {len(setup.times)} batches of {setup.per_batch} set-ups; "
              f"unscaled median {statistics.median(setup.raw):.6g} s")
        raw = op_medians(ops, rounds, None)
        print(f"calibration: {cal.samples} kernel samples, median "
              f"{cal.median_s() * 1e3:.3f} ms against the reference "
              f"{REFERENCE_S * 1e3:.3f} ms; unscaled op_p50_ms "
              f"{statistics.median(raw) * 1e3:.6g}, unscaled wall_s {sum(raw):.6g}")
        tail = tail_latency([lat * cal.scale(t0, t0 + lat) for r in rounds
                             for lat, t0 in zip(r.latencies, r.starts)])
        if tail is None:
            print(f"op_tail_ms absent: {attempted} op samples are too few")
        else:
            print(f"op_tail_ms {tail[1] * 1e3:.3f} ms at p{tail[0]:g} "
                  f"of {attempted} op samples")
    else:
        print(f"spans {tracer.spans_started} recorded, {tracer.spans_kept} kept; "
              f"tracing overhead {metrics['trace.overhead_s'][0]:.3f} s "
              f"(traced round {rounds[1].wall:.3f} s, untraced {rounds[0].wall:.3f} s)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.tsv")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "rounds": [r.wall for r in rounds], "instances": rows,
        "metrics": result_metrics,
        "failures": [f for f in failures if f is not None][:50],
        "timing": None if args.trace else {
            "kernel_mids": cal.mids, "kernel_s": cal.secs,
            "setup_spans": setup.spans, "setup_raw": setup.raw,
            "op_index": [r.index for r in rounds],
            "op_starts": [r.starts for r in rounds],
            "op_latencies": [r.latencies for r in rounds]},
    }, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process: peak RSS only grows, and lazy caches
    of one workload must not carry into the next."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} exited {proc.returncode} without a result")
            return proc.returncode or 1
        status = status or proc.returncode
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal instance sizes, for a quick check of the output")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
