"""Smoke test of the benchmark at tiny size; run from the repository root.

    python3 perfbench/selftest.py

For every workload, with --trace 0 and --trace 1, it checks that the last
stdout line is a JSON object with exactly the keys correct, attempted,
failed and metrics, and that every metric BENCHMARK.json names for that mode
is present with its unit and a finite value.  It also checks that the
benchmark refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

TINY = ["--seed", "3", "--seconds", "1", "--max-scans", "2"]


def check_line(line: str, wanted: dict) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in W.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace), *TINY],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = check_line(proc.stdout.strip().splitlines()[-1], wanted)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", W.WORKLOADS[0], *TINY],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failures += not refused
    print(f"without src/: {'refused' if refused else 'FAIL: exit 0 or printed a result'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
