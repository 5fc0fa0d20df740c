"""Generate the stored references the benchmark checks outputs against.

    PYTHONPATH=src python3 perfbench/make_references.py order   # d=4 order scans
    PYTHONPATH=src python3 perfbench/make_references.py d64     # d=64 order scans
    PYTHONPATH=src python3 perfbench/make_references.py deep    # F_e of deep schedules
    PYTHONPATH=src python3 perfbench/make_references.py compare # d64 engine vs mpmath at d=4

order: E_flip, E_dephase and E_total in mpmath at ORDER_DPS digits (the timed
extended runs use 40), at the two grid endpoints of every scan the d=4
workloads run, so the timed runs do no extra work for them.  The whole
pipeline stays in mpmath up to the norms.  ddforge.highprec is not used:
it rounds the generator to double before splitting it into Pauli blocks, so
its E_dephase carries an absolute error near 1e-20 (3.8e-4 relative for
CUDD(3,3) at alpha*t = 3e-4, seed 12) and it returns 0 for full CDD's
E_dephase, whose value is about 4e-39.

d64: the same quantities at d=64 from the double-double engine in ddarith.py;
mpmath did not finish one 128x128 point in five CPU-minutes.

deep: the entanglement fidelity of every simulate-deep schedule in mpmath at
DEEP_DPS digits.

The mpmath composition caches one propagator per distinct free interval,
keyed by its exact length where the schedule has exact instants, and applies
pulses as row operations.  Each part rewrites its points and stamps the file
with the engine, precision and package versions.  On one core, order takes
about ten minutes, d64 a few minutes and deep about half an hour.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import ddarith  # noqa: E402
import workloads as W  # noqa: E402
import ddforge  # noqa: E402
from ddforge import analysis, bath, evolution, sequences  # noqa: E402

ORDER_DPS = 50
DEEP_DPS = 30
FUNCTIONALS = ("E_flip", "E_dephase", "E_total")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mp.__version__, "ddforge": ddforge.__version__}


def _to_mp(a: np.ndarray) -> mp.matrix:
    out = mp.matrix(a.shape[0], a.shape[1])
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i, j] = mp.mpc(complex(a[i, j]).real, complex(a[i, j]).imag)
    return out


def _apply_pulse(u: mp.matrix, axis: str, d: int) -> None:
    """u <- (sigma_axis (x) I_d) u, in place, as row operations."""
    for j in range(2 * d):
        for i in range(d):
            top, bottom = u[i, j], u[d + i, j]
            if axis == "X":
                u[i, j], u[d + i, j] = bottom, top
            elif axis == "Y":
                u[i, j], u[d + i, j] = -1j * bottom, 1j * top
            else:
                u[d + i, j] = -bottom


def _mp_scalar(x) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


def mp_unitary(seq, ops) -> mp.matrix:
    """The schedule's unitary in mpmath at the working precision."""
    d = ops.dim
    n = 2 * d
    evals, q = mp.eighe(_to_mp(bath.total_hamiltonian(ops)))
    q_h = q.transpose_conj()
    total = mp.mpf(seq.total_duration)
    cache = {}

    def advance(u, start, stop):
        exact = isinstance(start, Fraction) and isinstance(stop, Fraction)
        key = stop - start if exact else (start, stop)
        if key not in cache:
            dt = (_mp_scalar(stop) - _mp_scalar(start)) * total
            cache[key] = q * mp.diag([mp.exp(-1j * evals[k] * dt) for k in range(n)]) * q_h
        return cache[key] * u

    u = mp.eye(n)
    prev = Fraction(0)
    for p in seq.pulses:
        if p.instant > prev:
            u = advance(u, prev, p.instant)
        _apply_pulse(u, p.axis.value, d)
        prev = p.instant
    if prev < 1:
        u = advance(u, prev, Fraction(1))
    return u


def mp_error_functionals(seq, ops) -> dict:
    """E_flip, E_dephase, E_total as ddforge defines them, all in mpmath."""
    d = ops.dim
    n = 2 * d
    ctrl = _to_mp(np.kron(evolution.control_product(seq), np.eye(d)))
    x = ctrl.transpose_conj() * mp_unitary(seq, ops) - mp.eye(n)
    log_u, term = mp.matrix(n), mp.eye(n)
    floor = mp.mpf(10) ** (-(mp.mp.dps + 10))
    for k in range(1, 1000):
        term = term * x
        log_u += term * (mp.mpf(-1) ** (k + 1) / k)
        if mp.mnorm(term, "f") < floor:
            break
    m = 1j * log_u  # exp(-iM) = ctrl^+ U

    def norm(block) -> mp.mpf:
        a = mp.matrix(d)
        for i in range(d):
            for j in range(d):
                a[i, j] = (block(i, j) + mp.conj(block(j, i))) / 2
        if all(a[i, j] == 0 for i in range(d) for j in range(d)):
            return mp.mpf(0)
        return max(abs(v) for v in mp.eighe(a)[0])

    e_flip = max(
        norm(lambda i, j: (m[i, d + j] + m[d + i, j]) / 2),
        norm(lambda i, j: 1j * (m[i, d + j] - m[d + i, j]) / 2),
    )
    e_dephase = norm(lambda i, j: (m[i, j] - m[d + i, d + j]) / 2)
    return {"E_flip": e_flip, "E_dephase": e_dephase, "E_total": max(e_flip, e_dephase)}


def order_points(d: int):
    """(family, preset, seed, window) of every scan of the order workloads at d."""
    if d == 4:
        return [(f, preset, s, window) for f, preset, window in W.ORDER_D4 for s in W.POOL_D4]
    return [(f, "generic", s, W.STANDARD_GRID) for f in W.ORDER_D64 for s in W.POOL_D64]


def endpoint_sequences(d: int):
    for f, preset, s, window in order_points(d):
        ops = bath.build_model(bath.ModelSpec(d=d, seed=s, preset=preset))
        grid = analysis.default_t_grid(bath.alpha(ops), *window)
        for t, at in ((grid[0], window[0]), (grid[-1], window[1])):
            seq = sequences.build_sequence(f.name, float(t), **dict(f.params))
            yield W.ref_key(f, preset, d, s, at), seq, ops


def order_refs(d: int) -> dict:
    points = {}
    for key, seq, ops in endpoint_sequences(d):
        t0 = time.perf_counter()
        if d == 4:
            with mp.workdps(ORDER_DPS):
                points[key] = {k: float(v) for k, v in mp_error_functionals(seq, ops).items()}
        else:
            points[key] = ddarith.error_functionals(seq, ops)
        print(f"{key}  {time.perf_counter() - t0:.1f} s", flush=True)
    return points


def deep_refs() -> dict:
    points = {}
    with mp.workdps(DEEP_DPS):
        for scan in W.deep_scans():
            ops = bath.build_model(bath.ModelSpec(d=4, seed=scan.bath_seed))
            a = bath.alpha(ops)
            for at in W.DEEP_ALPHA_T:
                seq = sequences.build_sequence(scan.family.name, at / a, **dict(scan.family.params))
                t0 = time.perf_counter()
                u = mp_unitary(seq, ops)
                d = ops.dim
                fe = sum(abs(u[i, j] + u[d + i, d + j]) ** 2 for i in range(d) for j in range(d)) / (4 * d)
                key = W.ref_key(scan.family, "generic", 4, scan.bath_seed, at)
                points[key] = {"F_e": float(fe), "one_minus_F_e": mp.nstr(1 - fe, 12)}
                print(f"{key}  {seq.pulse_count} pulses  1-F_e={mp.nstr(1 - fe, 6)}  "
                      f"{time.perf_counter() - t0:.1f} s", flush=True)
    return points


def compare() -> int:
    """Largest relative gap between ddarith and the stored d=4 mpmath references."""
    refs = json.loads((HERE / "references" / "order.json").read_text())["points"]
    worst = {}
    for key, seq, ops in endpoint_sequences(4):
        got = ddarith.error_functionals(seq, ops)
        for k in FUNCTIONALS:
            ref = refs[key][k]
            if ref > 1e-26:
                gap = abs(got[k] - ref) / ref
                if gap > worst.get(k, (0.0, ""))[0]:
                    worst[k] = (gap, key)
    for k, (gap, key) in worst.items():
        print(f"{k}: largest relative gap {gap:.2e} where the reference exceeds 1e-26 ({key})")
    return 0


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ("order", "d64", "deep", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    part = argv[0]
    if part == "compare":
        return compare()
    path = HERE / "references" / ("deep.json" if part == "deep" else "order.json")
    data = json.loads(path.read_text()) if path.exists() else {"points": {}}
    data["points"].update(deep_refs() if part == "deep" else order_refs(4 if part == "order" else 64))
    engine = {
        "order": f"mpmath, dps {ORDER_DPS}",
        "d64": "double-double (ddarith.py)",
        "deep": f"mpmath, dps {DEEP_DPS}",
    }[part]
    data["parts"] = {**data.get("parts", {}), part: {"engine": engine, "versions": versions()}}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data['points'])} points to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
