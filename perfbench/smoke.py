"""Smoke test of the benchmark: every workload at minimal size.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload it runs ``run.py --smoke`` untraced and traced, and checks
that the run passes, that the last line is the result object, and that it
names exactly the end-to-end (untraced) or per-layer (traced) metrics of
BENCHMARK.json, each with its unit.  It also checks that the benchmark
refuses to run, without printing a result, in a copy that holds only
BENCHMARK.json and the benchmark's own files.  Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 300


def _run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"], ROOT)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not a JSON result"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"attempted={result.get('attempted')} failed={result.get('failed')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{where}: {name} has unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors


def check_bare_copy(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail, not report."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                       "--seed", "1", "--seconds", "1", "--trace", "0"],
                    bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["bare copy: exit code 0 without the program"]
    if '"metrics"' in proc.stdout:
        return ["bare copy: printed a result without the program"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} trace {trace}: {'FAILED' if found else 'ok'}")
            errors += found
    errors += check_bare_copy(spec)
    for err in errors:
        print("FAILED " + err)
    print("smoke test " + ("passed" if not errors else f"failed ({len(errors)} problems)"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
