"""Run one workload in this process: time its scans, check every output.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints one
JSON object as its last stdout line.  With --trace 1 every scan runs twice,
untraced and traced, and the per-layer numbers come from the traced copies
(plus, on order-d4, the CLI agreement check).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import ddforge  # noqa: E402
from ddforge import analysis, bath, cli, evolution, sequences  # noqa: E402

# A raising scan is charged this much plus its own time.  It stands for
# +inf: longer than any scan of a run of at most 60 s can take, so it ranks
# above every completed scan, and JSON stays finite.
FAILED_SCAN_MS = 60_000.0
FUNCTIONALS = ("E_flip", "E_dephase", "E_total")


def blas_threads() -> int | None:
    """Size of the OpenBLAS pool numpy is linked against, if it can be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "ddforge": ddforge.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Scan preparation and execution
# ---------------------------------------------------------------------------

class Inputs:
    """Bath models, grids and references, built before any timing starts."""

    def __init__(self, workload: str):
        self.models = {
            (d, s, preset): bath.build_model(bath.ModelSpec(d=d, seed=s, preset=preset))
            for d, s, preset in W.model_specs(workload)
        }
        self.alphas = {key: bath.alpha(ops) for key, ops in self.models.items()}
        ref_file = HERE / "references" / ("deep.json" if workload == "simulate-deep" else "order.json")
        self.refs = json.loads(ref_file.read_text())["points"]

    def order_call(self, scan: W.OrderScan):
        key = (scan.d, scan.bath_seeds[0], scan.preset)
        grid = analysis.default_t_grid(self.alphas[key], *scan.window)
        spec = bath.ModelSpec(d=scan.d, seed=scan.bath_seeds[0], preset=scan.preset)
        seeds = list(scan.bath_seeds) if len(scan.bath_seeds) > 1 else None
        return scan.family.spec, spec, grid, seeds

    def deep_call(self, scan: W.DeepScan):
        key = (4, scan.bath_seed, "generic")
        durations = [at / self.alphas[key] for at in W.DEEP_ALPHA_T]
        return scan.family, self.models[key], durations


def run_order(call, precision):
    family, spec, grid, seeds = call
    rows = analysis.evaluate_scan(family, spec, grid, seeds=seeds, precision=precision, dps=W.EXTENDED_DPS)
    fits = {k: analysis.fit_order(grid, [r[k] for r in rows]) for k in FUNCTIONALS}
    return rows, fits


def run_deep(call):
    family, ops, durations = call
    out = []
    for t in durations:
        seq = sequences.build_sequence(family.name, t, **dict(family.params))
        u = evolution.sequence_unitary(seq, ops)
        out.append((seq.pulse_count, evolution.entanglement_fidelity(u)))
    return out


def expected_pulses(f: W.Family) -> int:
    """Closed-form pulse count of a deep schedule."""
    p = dict(f.params)
    if f.name == "cdd":
        # Post-cancellation counts 4, 14, 60, 238, 956, 3822, 15292 for m = 1..7.
        return (14 * 4 ** p["m"] - 9 * (-1) ** p["m"] - 5) // 15
    if f.name == "udd2":
        return sequences.udd2_count(p["n"])
    if f.name == "cudd":
        return sequences.cudd_count(p["m"], p["n"])
    if f.name == "cpmg-udd":
        # 4c Uhrig blocks of m Z pulses plus 2c X pulses on block boundaries.
        return 4 * p["c"] * p["m"] + 2 * p["c"]
    raise ValueError(f"no closed-form count for {f.label}")


class Outcome:
    """What one timed scan produced and how its checks came out.

    status is "ok", "miss" (an accuracy check failed: pinned slope or stored
    reference), "raised" (a numeric-domain ArithmeticError) or "broken" (an
    output no ddforge result may have, or any other exception).
    """

    def __init__(self, label: str, ms: float):
        self.label = label
        self.ms = ms
        self.status = "ok"
        self.error = None
        self.detail = {}
        self.oracle_checked = 0
        self.oracle_ok = 0
        self.scale = 1.0  # host-speed factor (hostspeed.py) for timed scans

    @property
    def sample_ms(self) -> float:
        ms = self.ms * self.scale
        return ms + FAILED_SCAN_MS if self.error else ms


def check_order(scan: W.OrderScan, call, result, error, inputs: Inputs, out: Outcome) -> None:
    refs = inputs.refs
    grid = call[2]
    ends = ((0, scan.window[0]), (len(grid) - 1, scan.window[1]))
    ref_rows = []
    for i, at in ends:
        per_seed = [refs[W.ref_key(scan.family, scan.preset, scan.d, s, at)] for s in scan.bath_seeds]
        ref_rows.append((i, {k: sum(r[k] for r in per_seed) / len(per_seed) for k in FUNCTIONALS}))

    if error is not None:
        out.error = type(error).__name__
        out.status = "raised" if isinstance(error, ArithmeticError) else "broken"
        out.detail["message"] = str(error)[:200]
        out.oracle_checked = sum(1 for _, ref in ref_rows for k in FUNCTIONALS if ref[k] != 0.0)
        return

    rows, fits = result
    well_formed = len(rows) == len(grid) and all(
        r["t"] == float(t) and all(math.isfinite(r[k]) and r[k] >= 0.0 for k in FUNCTIONALS)
        for r, t in zip(rows, grid)
    )
    if not well_formed:
        out.status = "broken"
        out.detail["message"] = "malformed scan rows"
        return

    out.detail["slopes"] = {k: fits[k].slope for k in FUNCTIONALS}
    misses = []
    for functional, lo, hi in W.pinned_orders(scan):
        slope = fits[functional].slope
        if slope is None or not lo <= slope <= hi:
            misses.append(f"{functional} slope {slope} outside [{lo}, {hi}]")
    for i, ref in ref_rows:
        for k in FUNCTIONALS:
            if ref[k] == 0.0:
                continue
            out.oracle_checked += 1
            if W.within_rtol(rows[i][k], ref[k]):
                out.oracle_ok += 1
    if misses:
        out.status = "miss"
        out.detail["misses"] = misses


def check_deep(scan: W.DeepScan, result, error, inputs: Inputs, out: Outcome) -> None:
    if error is not None:
        out.error = type(error).__name__
        out.status = "broken"
        out.detail["message"] = str(error)[:200]
        out.oracle_checked = len(W.DEEP_ALPHA_T)
        return
    want = expected_pulses(scan.family)
    problems = []
    for (pulses, fe), at in zip(result, W.DEEP_ALPHA_T):
        if pulses != want:
            problems.append(f"{pulses} pulses, closed form gives {want}")
        ref = inputs.refs[W.ref_key(scan.family, "generic", 4, scan.bath_seed, at)]["F_e"]
        out.oracle_checked += 1
        if abs(fe - ref) <= W.fe_tolerance(pulses):
            out.oracle_ok += 1
        else:
            problems.append(f"F_e {fe!r} vs reference {ref!r} at alpha*t={at:g}")
    out.detail["F_e"] = [fe for _, fe in result]
    if problems:
        out.status = "broken"
        out.detail["problems"] = problems


def timed_scan(scan, inputs: Inputs) -> Outcome:
    deep = isinstance(scan, W.DeepScan)
    call = inputs.deep_call(scan) if deep else inputs.order_call(scan)
    result = error = None
    t0 = time.perf_counter()
    try:
        result = run_deep(call) if deep else run_order(call, scan.precision)
    except Exception as exc:  # every scan runs to an outcome; the class is recorded
        error = exc
    out = Outcome(scan.label, (time.perf_counter() - t0) * 1e3)
    if deep:
        check_deep(scan, result, error, inputs, out)
    else:
        check_order(scan, call, result, error, inputs, out)
    return out


def run_passes(scans, inputs, seed, indices: range, speed: hostspeed.HostSpeed) -> tuple[list[Outcome], float]:
    outcomes = []
    t0 = time.perf_counter()
    for p in indices:
        for scan in W.shuffled(scans, seed, p):
            before = speed.sample()
            out = timed_scan(scan, inputs)
            out.scale = speed.scale(before, speed.sample())
            outcomes.append(out)
    return outcomes, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(outcomes: list[Outcome], pass_size: int) -> dict:
    samples = [o.sample_ms for o in outcomes]
    pct = W.tail_percentile(pass_size)
    tail = percentile(samples, pct)
    checked = sum(o.oracle_checked for o in outcomes)
    walls = [o.ms + FAILED_SCAN_MS if o.error else o.ms for o in outcomes]
    return {
        "scan_p50_ms": percentile(samples, 50),
        "scan_tail_ms": tail,
        "wall_p50_ms": percentile(walls, 50),
        "wall_tail_ms": percentile(walls, pct),
        "tail_percentile": pct,
        "tail_beyond": sum(1 for s in samples if s > tail),
        "scans": len(samples),
        "ok_share": sum(1 for o in outcomes if o.status == "ok") / len(outcomes),
        "oracle_ok_share": sum(o.oracle_ok for o in outcomes) / checked,
        "oracle_checked": checked,
    }


def accounting(outcomes: list[Outcome]) -> dict:
    """Per-scan outcome counts by status, exception class and family label."""
    by_status: dict = {}
    by_error: dict = {}
    by_scan: dict = {}
    for o in outcomes:
        by_status[o.status] = by_status.get(o.status, 0) + 1
        if o.error:
            by_error[o.error] = by_error.get(o.error, 0) + 1
        entry = by_scan.setdefault(o.label, {"status": o.status, "oracle_ok": [o.oracle_ok, o.oracle_checked], **o.detail})
        entry.setdefault("ms", []).append(round(o.ms, 3))
        if o.error:
            entry["error"] = o.error
    return {"by_status": by_status, "by_error": by_error, "scans": by_scan}


def untraced_passes(inputs: Inputs, scans, seed: int, passes: int, speed: hostspeed.HostSpeed):
    """Warm up, then `passes` untraced passes: outcomes and wall time."""
    timed_scan(scans[0], inputs)  # first-call costs stay out of the timings
    hostspeed.kernel_ms(speed.kind)
    return run_passes(scans, inputs, seed, range(passes), speed)


# ---------------------------------------------------------------------------
# Traced run and the CLI agreement check
# ---------------------------------------------------------------------------

def cli_agreement(seed: int, tracer, scratch: Path) -> dict:
    """ddforge order through cli.main versus the same scan through the API."""
    results = []
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for f, preset, window in W.ORDER_D4:
            csv_path, summary_path = scratch / "scan.csv", scratch / "fit.json"
            argv = ["order", f.name]
            for k, v in f.params:
                argv += [f"--{k}", str(v)]
            argv += ["--seed", str(seed), "--d", "4", "--preset", preset,
                     "--at-min", repr(window[0]), "--at-max", repr(window[1]),
                     "--no-meta", "--out", str(csv_path), "--summary", str(summary_path)]
            entry = {"family": f.label, "argv": argv}
            for path in (csv_path, summary_path):
                path.unlink(missing_ok=True)
            with tracer.root("cli-check", f.label):
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        entry["exit"] = cli.main(argv)
                except Exception as exc:  # a traceback escaping main() is what is recorded
                    entry["exit"] = None
                    entry["escaped"] = type(exc).__name__
                try:
                    spec = bath.ModelSpec(d=4, seed=seed, preset=preset)
                    grid = analysis.default_t_grid(bath.alpha(bath.build_model(spec)), *window)
                    rows = analysis.evaluate_scan(f.spec, spec, grid)
                    buf = io.StringIO()
                    analysis.write_scan_csv(rows, buf, meta=False)
                    entry["api"] = "ok"
                except ArithmeticError as exc:
                    entry["api"] = type(exc).__name__
                    buf = None
            if entry["exit"] == 0 and buf is not None:
                entry["agree"] = csv_path.read_text(encoding="utf-8") == buf.getvalue()
            else:
                entry["agree"] = buf is None and entry["exit"] != 0
            results.append(entry)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "runs": results,
        "failed": sum(1 for r in results if r["exit"] != 0),
        "disagree": sum(1 for r in results if not r["agree"]),
    }


def paired_pass(scans, inputs: Inputs, seed: int, index: int, tracer) -> tuple[list[Outcome], list[float]]:
    """One pass in which every scan runs twice, untraced and traced.

    The two copies run back to back, in alternating order, so drift and
    first-call costs fall evenly on both.  Returns the outcomes and the
    [untraced, traced] wall times.
    """
    outcomes, walls = [], [0.0, 0.0]
    for i, scan in enumerate(W.shuffled(scans, seed, index)):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            if with_trace:
                with tracer.installed(), tracer.root("scan", scan.label):
                    outcomes.append(timed_scan(scan, inputs))
            else:
                outcomes.append(timed_scan(scan, inputs))
            walls[with_trace] += time.perf_counter() - t0
    return outcomes, walls


def traced(workload, seed, seconds, max_scans, out_dir: Path) -> dict:
    """Paired passes (each about twice a plain one); per-layer numbers per pass."""
    inputs = Inputs(workload)
    scans = W.pass_scans(workload)[:max_scans]
    tracer = tracing.Tracer()
    passes = W.pass_count(workload, seconds / 2)
    timed_scan(scans[0], inputs)
    outcomes, walls = [], [0.0, 0.0]
    for index in range(passes):
        more, more_walls = paired_pass(scans, inputs, seed, index, tracer)
        outcomes += more
        walls = [walls[0] + more_walls[0], walls[1] + more_walls[1]]
    layer = tracer.layer_metrics(passes, walls[1])
    layer["trace.overhead_share"] = walls[1] / walls[0] - 1.0
    cli_result = {"runs": [], "failed": 0, "disagree": 0}
    if workload == "order-d4":
        mark = len(tracer.spans)
        with tracer.installed():
            cli_result = cli_agreement(seed, tracer, out_dir / f"cli-{os.getpid()}")
        layer.update(tracer.cli_metrics(mark))
        layer["cli.failed"] = cli_result["failed"]
    spans_file = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_file)
    return {
        "outcomes": outcomes,
        "passes": passes,
        "per_layer": layer,
        "failures_by_layer": tracer.failures_by_layer(),
        "cli": cli_result,
        "spans_file": str(spans_file),
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "pass_size": len(scans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-scans", type=int, default=None)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        report = traced(args.workload, args.seed, args.seconds, args.max_scans, out_dir)
        outcomes = report.pop("outcomes")
        report["accounting"] = accounting(outcomes)
        broken = sum(1 for o in outcomes if o.status == "broken") + report["cli"]["disagree"]
    else:
        inputs = Inputs(args.workload)
        scans = W.pass_scans(args.workload)[: args.max_scans]
        passes = W.pass_count(args.workload, args.seconds)
        speed = hostspeed.HostSpeed(W.SPEED_KERNEL[args.workload])
        outcomes, wall = untraced_passes(inputs, scans, args.seed, passes, speed)
        report = {
            "end_to_end": end_to_end(outcomes, len(scans)),
            "host_speed": {
                "kernel": speed.kind,
                "nominal_ms": hostspeed.NOMINAL_MS[speed.kind],
                "samples_ms": speed.samples,
            },
            "passes": passes,
            "pass_size": len(scans),
            "measured_wall_s": wall,
            "accounting": accounting(outcomes),
        }
        broken = sum(1 for o in outcomes if o.status == "broken")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["attempted"] = len(outcomes)
    report["broken"] = broken
    report["environment"] = environment()
    report["ddforge_file"] = ddforge.__file__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
