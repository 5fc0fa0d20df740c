"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Scans use bath dimension 4 (8x8 total matrices) and finish in
seconds; the steepest fits run on the extended-precision engine because
their residuals sit below the double-precision extraction floor.
"""

import numpy as np
from _reference import expm_segment, pauli_reassemble, unitary_log

from ddforge.analysis import crossover, evaluate_scan, fit_order, order_scan
from ddforge.bath import ModelSpec, alpha, build_model, spectral_norm
from ddforge.effective import (
    magnus_cdd_predict,
    pauli_decompose,
    sequence_effective,
)
from ddforge.evolution import sequence_unitary
from ddforge.sequences import (
    PauliAxis,
    a_n,
    cdd_full,
    cdd_xx,
    commensurate_grid,
    cpmg,
    cudd,
    udd2_approx,
    udd2_count,
    udd_sequence,
)

SEED = 7
GENERIC = ModelSpec(d=4, seed=SEED)
PURE_DEPHASING = ModelSpec(d=4, seed=SEED, preset="pure_dephasing")

RNG = np.random.default_rng(1234)


def report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def grid(at_min=1e-3, at_max=1e-2, points=8, model_alpha=1.0):
    return np.geomspace(at_min / model_alpha, at_max / model_alpha, points)


def test_criterion_1_udd_order_theorem():
    model_alpha = alpha(build_model(GENERIC))
    ts = grid(model_alpha=model_alpha)
    flip_slopes, dephase_slopes = [], []
    for n in range(1, 5):
        precision = "double" if n <= 2 else "extended"
        rows = evaluate_scan({"name": "udd", "n": n}, GENERIC, ts, precision=precision)
        flip_slopes.append(fit_order(ts, [r["E_flip"] for r in rows]).slope)
        dephase_slopes.append(fit_order(ts, [r["E_dephase"] for r in rows]).slope)
    ok = all(abs(s - (n + 1)) <= 0.25 for n, s in zip(range(1, 5), flip_slopes)) and all(
        abs(s - 1.0) <= 0.1 for s in dephase_slopes
    )
    report(
        1,
        ok,
        "UDD flip slopes n=1..4: ["
        + ", ".join(f"{s:.3f}" for s in flip_slopes)
        + "] (want n+1 +-0.25); dephase slopes: ["
        + ", ".join(f"{s:.3f}" for s in dephase_slopes)
        + "] (want 1 +-0.1)",
    )


def test_criterion_2_cpmg_dephasing_order():
    t = 1.0
    builds = {
        "classic": cpmg(t, PauliAxis.X),
        "uhrig-2": udd_sequence(2, t, PauliAxis.X),
        "concat-2": cdd_xx(2, t),
    }
    reference = [(p.instant, p.axis) for p in builds["classic"].pulses]
    identical = all([(p.instant, p.axis) for p in seq.pulses] == reference for seq in builds.values())

    ts = grid()
    fit = order_scan({"name": "cpmg", "axis": "X"}, PURE_DEPHASING, ts, "E_dephase")
    ok = identical and abs(fit.slope - 3.0) <= 0.25
    report(
        2,
        ok,
        f"three CPMG builds pulse-for-pulse identical: {identical}; "
        f"pure-dephasing E_dephase slope {fit.slope:.3f} (want 3 +-0.25)",
    )


def test_criterion_3_cudd_order():
    fit22 = order_scan({"name": "cudd", "m": 2, "n": 2}, GENERIC, grid(), "E_total")
    # The m = n = 3 residual falls below the double extraction floor on the
    # standard window; fit it on a reduced grid with the extended engine.
    fit33 = order_scan(
        {"name": "cudd", "m": 3, "n": 3}, GENERIC, grid(3e-4, 3e-3), "E_total", precision="extended"
    )
    ok = fit22.slope >= 3.0 - 0.25 and fit33.slope >= 4.0 - 0.3
    report(
        3,
        ok,
        f"CUDD(2,2) E_total slope {fit22.slope:.3f} (want >= 2.75); "
        f"CUDD(3,3) slope {fit33.slope:.3f} on reduced grid (want >= 3.7)",
    )


def test_criterion_4_magnus_predictor():
    ops = build_model(PURE_DEPHASING)
    rel_devs = []
    for tau0 in (0.01, 0.005):
        _, az_pred, tau1 = magnus_cdd_predict(ops.a0, ops.az, tau0, 1)
        eff = sequence_effective(cdd_xx(1, total_duration=tau1), ops)
        rel_devs.append(spectral_norm(eff.az - az_pred) / spectral_norm(eff.az))
    ratio = rel_devs[0] / rel_devs[1]
    decreasing = rel_devs[0] > rel_devs[1]
    ok = decreasing and abs(ratio - 2.0) <= 0.3
    report(
        4,
        ok,
        f"relative deviation {rel_devs[0]:.2e} -> {rel_devs[1]:.2e} under tau0 halving, "
        f"ratio {ratio:.3f} (stated requirement 2 +-0.3; the leading correction to the "
        f"level-1 step is a pure-bath term, so the measured deviation shrinks "
        f"quadratically and the ratio sits at 4)",
    )


def test_criterion_5_pulse_counts_exact():
    rec = 0
    recursion_ok = True
    for n in range(31):
        if n:
            rec = 2 * rec + 2 * (-1) ** (n - 1)
        recursion_ok &= rec == a_n(n)

    cudd_ok = True
    for m in range(1, 6):
        for n in range(0, 7):
            seq = cudd(m, n)
            cudd_ok &= seq.axis_count(PauliAxis.Z) == m * 2**n
            cudd_ok &= seq.axis_count(PauliAxis.X) == a_n(n)

    udd2_ok = all(udd2_count(n) == n * (n + 1) ** 3 + n for n in range(1, 13))
    udd2_ok &= all(udd2_approx(n).pulse_count == udd2_count(n) for n in range(1, 6))

    counts = [cdd_full(m).pulse_count for m in range(8)]
    ratios = {m: counts[m + 1] / counts[m] for m in range(3, 7)}
    ratio_ok = all(3.5 <= r <= 4.0 for r in ratios.values())

    ok = recursion_ok and cudd_ok and udd2_ok and ratio_ok
    report(
        5,
        ok,
        f"a_n recursion==closed form (n<=30): {recursion_ok}; CUDD axis counts (m<=5,n<=6): {cudd_ok}; "
        f"udd2 counts (n<=12): {udd2_ok}; CDD ratios m=3..6: "
        + str({m: round(r, 4) for m, r in ratios.items()})
        + " vs stated [3.5, 4.0] -> "
        + ("all inside" if ratio_ok else "m=4 and m=6 exceed 4.0 (merged recursion forces counts 60, 238, 956, 3822, 15292)"),
    )


def test_criterion_6_d_approx_deviation():
    x = np.linspace(0.0, 1.0, 1_000_000)
    dev = np.abs(np.sin(np.pi * x / 2) ** 2 - (-2 * x**3 + 3 * x**2))
    worst = float(dev.max())
    ok = 0.008 <= worst <= 0.012
    report(6, ok, f"max |sin^2(pi x/2) - d_approx(x)| over 1e6-point grid = {worst:.6f} (want in [0.008, 0.012])")


def test_criterion_7_commensurability():
    divides_cube = True
    for n in range(1, 13):
        outer = udd2_approx(n).filter_axis(PauliAxis.X)
        d_outer = commensurate_grid(outer)
        divides_cube &= (n + 1) ** 3 % d_outer == 0

    divides_quarter = True
    for n in (1, 5, 9):  # n+1 in {2, 6, 10}: n+1 = 2l with l odd
        outer = udd2_approx(n).filter_axis(PauliAxis.X)
        d_outer = commensurate_grid(outer)
        divides_quarter &= ((n + 1) ** 3 // 4) % d_outer == 0

    cross = crossover()
    ok = divides_cube and divides_quarter and cross == 11
    report(
        7,
        ok,
        f"outer grid divides (n+1)^3 for n<=12: {divides_cube}; divides (n+1)^3/4 for n+1 in "
        f"{{2,6,10}}: {divides_quarter}; crossover = {cross} (want 11)",
    )


def test_criterion_8_numeric_kernels():
    worst_roundtrip = 0.0
    for _ in range(5):
        g = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
        h = (g + g.conj().T) / 2
        h *= 3.0 / np.abs(np.linalg.eigvalsh(h)).max()  # |H t| = 3 with t = 1
        m = unitary_log(expm_segment(h, 1.0))
        worst_roundtrip = max(worst_roundtrip, float(np.abs(m - h).max()))

    worst_reassembly = 0.0
    for _ in range(5):
        g = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
        m = (g + g.conj().T) / 2
        eff = pauli_decompose(m, t=0.7)
        worst_reassembly = max(worst_reassembly, float(np.abs(pauli_reassemble(eff) - m).max()))

    worst_unitarity = 0.0
    for seed in (1, 2, 3):
        ops = build_model(ModelSpec(d=4, seed=seed))
        for seq in (udd_sequence(4, 0.3), cudd(2, 2, 0.3), cdd_full(3, 0.3)):
            u = sequence_unitary(seq, ops).u
            worst_unitarity = max(worst_unitarity, float(np.abs(u.conj().T @ u - np.eye(8)).max()))

    ok = worst_roundtrip < 1e-9 and worst_reassembly < 1e-12 and worst_unitarity < 1e-10
    report(
        8,
        ok,
        f"expm/log roundtrip {worst_roundtrip:.2e} (<1e-9); Pauli reassembly {worst_reassembly:.2e} "
        f"(<1e-12); sequence unitarity {worst_unitarity:.2e} (<1e-10)",
    )


def test_criterion_9_cycle_iteration():
    ts = np.geomspace(3e-3, 3e-2, 8)
    slopes, fixed_t_values = [], []
    for c in (1, 2, 4):
        rows = evaluate_scan({"name": "cpmg-udd", "m": 2, "c": c}, GENERIC, ts)
        slopes.append(fit_order(ts, [r["E_total"] for r in rows]).slope)
        fixed_t_values.append(rows[-1]["E_total"])
    decreasing = fixed_t_values[0] > fixed_t_values[1] > fixed_t_values[2]
    same_order = all(abs(s - slopes[0]) <= 0.25 for s in slopes[1:])
    ok = decreasing and same_order
    report(
        9,
        ok,
        f"E_total at fixed t for c=1,2,4: [{fixed_t_values[0]:.3e}, {fixed_t_values[1]:.3e}, "
        f"{fixed_t_values[2]:.3e}] strictly decreasing: {decreasing}; fitted orders "
        f"[{', '.join(f'{s:.3f}' for s in slopes)}] unchanged +-0.25: {same_order}",
    )
