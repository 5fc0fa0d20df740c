"""ddforge benchmark: order scans and deep-schedule simulation.

Run from the repository root:

    python3 perfbench/run.py --workload order-d4 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each workload runs in its own process against the package in ./src.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The
full record of a run (environment, per-scan outcomes, failures by class and
layer) is written to perfbench/out/.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads as W  # noqa: E402

# setup_s is the median of SETUP_RUNS cold set-ups, each scaled by the Python
# reference kernel timed right after it in the same interpreter.  Over eight
# batches of 15 probes its spread was 0.09, against 0.18 for the fastest
# unscaled probe and 0.21 for the fastest scaled one.
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
# One BLAS thread: a closed loop of one client, and double-precision results
# that do not depend on how OpenBLAS splits its work between threads.
BLAS_THREADS = "1"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("DDFORGE_SEED", None)
    return env


def setup_seconds(workload: str, env: dict) -> list[tuple[float, float]]:
    """(set-up seconds, Python kernel ms) of SETUP_RUNS fresh interpreters."""
    specs = json.dumps(W.model_specs(workload))
    probes = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), specs],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        seconds, kernel_ms = proc.stdout.strip().splitlines()[-1].split()
        probes.append((float(seconds), float(kernel_ms)))
    return probes


def run_workload(root: Path, args, workload: str) -> dict:
    env = child_env(root)
    out_dir = HERE / "out"
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir),
    ]
    if args.max_scans:
        cmd += ["--max-scans", str(args.max_scans)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: measuring process exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (root / "src").resolve()
    if not Path(report["ddforge_file"]).resolve().is_relative_to(src):
        raise RuntimeError(f"measured {report['ddforge_file']}, not the package under {src}")
    report.update(workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if not args.trace:
        probes = setup_seconds(workload, env)
        report["setup_probes"] = probes
        report["setup_s"] = statistics.median(s * hostspeed.NOMINAL_MS["python"] / k for s, k in probes)
    report["scan_counts"] = {
        "pass_size": report["pass_size"], "passes": report["passes"], "attempted": report["attempted"],
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    return report


def metric_units(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def contract_line(report: dict) -> dict:
    """The last stdout line: every metric of BENCHMARK.json for this mode."""
    if report["trace"]:
        units = metric_units("per_layer")
        values = report["per_layer"]
    else:
        units = metric_units("end_to_end")
        e2e = report["end_to_end"]
        values = {
            "setup_s": report["setup_s"],
            "scan_p50_ms": e2e["scan_p50_ms"],
            "scan_tail_ms": e2e["scan_tail_ms"],
            "ok_share": e2e["ok_share"],
            "oracle_ok_share": e2e["oracle_ok_share"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    return {
        "correct": report["broken"] == 0,
        "attempted": report["attempted"],
        "failed": report["broken"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def describe(report: dict) -> list[str]:
    acc = report["accounting"]
    status = ", ".join(f"{k} {v}" for k, v in sorted(acc["by_status"].items()))
    errors = ", ".join(f"{k} {v}" for k, v in sorted(acc["by_error"].items())) or "none"
    lines = [f"== {report['workload']} (seed {report['seed']}, {report['scan_counts']})",
             f"   checks: {status}; exceptions: {errors}"]
    if report["trace"]:
        cli = report["cli"]
        lines.append(f"   cli agreement: {len(cli['runs'])} runs, {cli['failed']} failed, "
                     f"{cli['disagree']} disagree; failures by layer: {report['failures_by_layer']}")
        for name, value in sorted(report["per_layer"].items()):
            lines.append(f"   {name:28s} {value:.6g}")
        return lines
    e2e = report["end_to_end"]
    lines.append(f"   setup_s         {report['setup_s']:.4f} s")
    lines.append(f"   scan_p50_ms     {e2e['scan_p50_ms']:.3f} ms")
    lines.append(f"   scan_tail_ms    {e2e['scan_tail_ms']:.3f} ms  (p{e2e['tail_percentile']} of "
                 f"{e2e['scans']} scans, {e2e['tail_beyond']} beyond)")
    lines.append(f"   ok_share        {e2e['ok_share']:.4f}")
    lines.append(f"   oracle_ok_share {e2e['oracle_ok_share']:.4f}  ({e2e['oracle_checked']} values checked)")
    lines.append(f"   peak_rss_mb     {report['peak_rss_mb']:.1f} MB")
    host = report["host_speed"]
    lines.append(f"   times scaled to the {host['kernel']} kernel's nominal {host['nominal_ms']} ms; wall p50 "
                 f"{e2e['wall_p50_ms']:.3f} ms, tail {e2e['wall_tail_ms']:.3f} ms")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ddforge benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-scans", type=int, default=None, help="cap on scans per pass (smoke runs)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ddforge" / "__init__.py").is_file():
        print(f"error: no ddforge sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2

    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        report = run_workload(root, args, name)
        print("\n".join(describe(report)), flush=True)
        results[name] = contract_line(report)
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
