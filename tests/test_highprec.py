import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from _reference import term_counts

from ddforge import analysis, highprec
from ddforge.analysis import default_t_grid, evaluate_scan
from ddforge.bath import SIGMA, ModelSpec, alpha, build_model, total_hamiltonian
from ddforge.cli import main
from ddforge.effective import (DOUBLE, BranchAmbiguityError, error_functionals, evaluate, point_effective,
                               sequence_effective, series_terms)
from ddforge.evolution import _segment_plan, conjugate_frame, control_product, pulse_unitary, segment_count
from ddforge.highprec import EXTENDED, sequence_error_functionals
from ddforge.sequences import (CODE_AXIS, Pulse, PulseSequence, _exact_gaps, build_sequence, cdd_full, cudd,
                               schedule_from_json, schedule_to_json, udd_sequence)

REFERENCES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "references" / "order.json").read_text()
)["points"]


@pytest.fixture(scope="module")
def ops():
    return build_model(ModelSpec(d=4, seed=7))


class TestCrossValidation:
    def test_free_evolution_matches_double(self, ops):
        t = 0.05
        seq = PulseSequence(t, ())
        lo = error_functionals(sequence_effective(seq, ops))
        hi = sequence_error_functionals(seq, ops)
        for key in lo:
            assert hi[key] == pytest.approx(lo[key], rel=1e-11)

    def test_udd2_matches_double_where_signal_is_clean(self, ops):
        # At alpha*t = 5e-2 the flip residual of the two-pulse Uhrig schedule
        # is ~1e-5, far above the double roundoff floor.
        seq = udd_sequence(2, 0.05)
        lo = error_functionals(sequence_effective(seq, ops))
        hi = sequence_error_functionals(seq, ops)
        assert hi["E_flip"] == pytest.approx(lo["E_flip"], rel=1e-8)
        assert hi["E_dephase"] == pytest.approx(lo["E_dephase"], rel=1e-9)

    def test_blocks_match_double_where_signal_is_clean(self, ops):
        # Each Pauli block on its own, not only the norms the functionals
        # keep: CDD-2 pulses about X, Y and Z, so every frame enters.  The
        # double blocks are good to a few eps of the largest one, a_0.
        seq = cdd_full(2, 0.05)
        lo = sequence_effective(seq, ops)
        hi, _ = point_effective(seq, ops, EXTENDED)
        for (g, a), (_, b) in zip(hi.items(), lo.items()):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(lo.a0).max(), g

    def test_exact_instants_used(self, ops):
        # Rational instants must be converted exactly, not through floats.
        seq = cudd(2, 2, total_duration=0.02)
        hi = sequence_error_functionals(seq, ops)
        lo = error_functionals(sequence_effective(seq, ops))
        assert hi["E_total"] == pytest.approx(lo["E_total"], rel=1e-6)

    @pytest.mark.parametrize("seq", [
        *(build_sequence(name, 1.0, **params) for name, params in
          [("cdd", {"m": 3}), ("udd", {"n": 3}), ("udd2", {"n": 3}), ("cpmg-udd", {"m": 3, "c": 4})]),
        schedule_from_json(schedule_to_json(cdd_full(3))), schedule_from_json(schedule_to_json(cudd(3, 2))),
        cdd_full(3).filter_axis("X"), cudd(3, 2).filter_axis("Z"),
        PulseSequence(1.0, (Pulse(Fraction(0), "X"), Pulse(0.3, "Z"), Pulse(Fraction(1), "Y"))),
        PulseSequence(1.0, (Pulse(0.0, "Z"), Pulse(Fraction(1, 3), "X"), Pulse(2 / 3, "Y"), Pulse(1.0, "X"))),
    ], ids=["cdd-params0", "udd-params1", "udd2-params2", "cpmg-udd-params3", "json-cdd-3", "json-cudd-3,2",
            "cdd-3[X]", "cudd-3,2[Z]", "exact-edges", "float-edges"])
    def test_segment_gaps_are_exact(self, seq):
        # Exact, float and mixed instants: each exact gap is the difference of its ends' values as the pulses
        # hold them (a Fraction, or a float read exactly), and the double engine composes its correctly
        # rounded float; between two float instants that is the float difference, which IEEE rounds so.
        bounds = [Fraction(0), *(Fraction(p.instant) for p in seq.pulses), Fraction(1)]
        kept = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
        gaps, ids = _exact_gaps(seq)
        assert len(set(gaps)) == len(gaps)
        assert [gaps[i] for i in ids] == [b - a for a, b in kept]
        plan = _segment_plan(seq)
        floats = plan.float_gaps[plan.pair_gaps[plan.pairs]].tolist()
        assert floats == [float(b - a) for a, b in kept]
        held = [(a, b) for a, b in kept if Fraction(float(a)) == a and Fraction(float(b)) == b]
        assert [float(b - a) for a, b in held] == [float(b) - float(a) for a, b in held]

    @pytest.mark.parametrize("name, params", [
        ("se", {}), ("cpmg", {"axis": "X"}), ("pdd", {"n": 5}), ("pdd", {"n": 7}), ("icpmg", {"c": 3}),
        ("icpmg", {"c": 4}), ("udd", {"n": 2}), ("cdd", {"m": 3}), ("cddxx", {"n": 5}), ("cudd", {"m": 2, "n": 3}),
        ("cpmg-udd", {"m": 1, "c": 3}), ("cpmg-udd", {"m": 2, "c": 2}), ("udd2", {"n": 1}), ("udd2", {"n": 2}),
    ])
    def test_gap_rules_agree_on_exact_families(self, name, params):
        # One gap rule for both engines: the plan holds the exact lengths, the double engine's view of
        # them is each one's float, and every segment keeps its exact length's id, one id per length.
        seq = build_sequence(name, 1.0, **params)
        assert seq.exact.all()
        exact, ids = _exact_gaps(seq)
        plan = _segment_plan(seq)
        assert plan.gaps == exact and len(set(exact)) == len(exact)
        assert plan.float_gaps.tolist() == [float(gap) for gap in exact]
        assert plan.pair_gaps[plan.pairs].tolist() == ids.tolist()

    @pytest.mark.parametrize("name, params, how, lengths", [
        ("pdd", {"n": 5}, "built", 1), ("pdd", {"n": 6}, "built", 1),
        ("udd2", {"n": 2}, "json", 2), ("cpmg-udd", {"m": 2, "c": 3}, "json", 2),
    ], ids=["PDD-5", "PDD-6", "UDD2-2-json", "CPMG-UDD(2,3)-json"])
    def test_flat_plans_hold_one_gap_per_exact_length(self, name, params, how, lengths):
        # Non-dyadic exact instants: differences of their rounded floats split these into 4, 3, 9 and 11 lengths.
        seq = build_sequence(name, 1.0, **params)
        seq = schedule_from_json(schedule_to_json(seq)) if how == "json" else seq
        assert seq.blocks is None and len(_segment_plan(seq).gaps) == lengths

    def test_both_engines_read_one_plan(self, ops, monkeypatch):
        # A flat schedule of one chunk: each engine composes its flat pulses, from the one plan kept with it.
        from ddforge import evolution

        seq, plans, plan = build_sequence("pdd", 0.05, n=5), [], evolution._segment_plan
        monkeypatch.setattr(evolution, "_segment_plan", lambda flat: plans.append(plan(flat)) or plans[-1])
        for engine in (DOUBLE, EXTENDED):
            evaluate(seq, ops, [0.01, 0.02], engine)
        assert len(plans) == 2 and plans[0] is plans[1] is plan(seq)
        assert sum(isinstance(value, evolution.SegmentPlan) for value in seq._cache.values()) == 1


class TestExactSegmentEnds:
    # An exact instant below 1 whose float rounds to 1.0 ends a nonzero segment; the float 1.0 read it as zero.
    NEAR_ONE = Fraction(2**60 - 1, 2**60)

    def test_last_segment_kept(self):
        seq = PulseSequence(0.01, [Pulse(Fraction(1, 3), "X"), Pulse(self.NEAR_ONE, "Z")])
        assert seq.instants[-1] == 1.0 and segment_count(seq) == 3
        gaps, ids = _exact_gaps(seq)
        assert Fraction(1, 2**60) in gaps and [gaps[i] for i in ids] == [Fraction(1, 3), self.NEAR_ONE - Fraction(1, 3),
                                                                         Fraction(1, 2**60)]

    def test_extended_engine_composes_it(self, ops):
        # The Z pulse 2^-60 t before the end leaves a last segment of that length.  Composed, it gives
        # E_flip = 2^-59 t and leaves E_dephase near CDD-4's (about 4e-38); dropped, both read about 2^-60 t.
        t = 1e-5 / alpha(ops)
        seq = PulseSequence(t, [*cdd_full(4).pulses, Pulse(self.NEAR_ONE, "Z")])
        values = sequence_error_functionals(seq, ops)
        assert values["E_flip"] == pytest.approx(2**-59 * t, rel=1e-6)
        assert values["E_dephase"] < 1e-30


# x = scale * gap * t of a leaf, and lam = |tan(M/2)| of a log: zero, the
# smallest floats, values up to and past each series' reach, and inf.
SERIES_GRID = np.array([0.0, 1e-300, 1e-100, 1e-30, 1e-16, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 2.0, 10.0,
                        40.0, 70.0, 1e3, 1e300, np.inf])


@pytest.mark.parametrize("series", ["leaves", "log"])
def test_series_terms_match_the_term_loop(series):
    # The extended engine's series counted term by term, as it did before one
    # rule counted every series of both engines from a table of bounds.
    with np.errstate(divide="ignore"):
        logs = np.log(SERIES_GRID[:, None] * [1.0, 0.5])
    if series == "leaves":
        table, log_term = logs[..., None] * highprec._TERMS - highprec._LOG_FACTORIALS, \
            lambda j: j * logs - math.lgamma(j + 2)
    else:
        table, log_term = 2 * highprec._TERMS * logs[..., None] - highprec._LOG_ODDS, \
            lambda j: 2 * j * logs - math.log(2 * j + 1)
    counts = series_terms(table, highprec._TERM_TOL)
    assert counts.tolist() == term_counts(log_term, logs.shape, highprec._TERM_TOL).tolist()
    assert counts[0].tolist() == [0, 0] and counts[-1].tolist() == [-1, -1]
    assert len(set(counts.ravel().tolist())) >= 10


class TestBelowDoubleFloor:
    def test_udd4_flip_scales_as_fifth_power(self, ops):
        # (alpha t)^5 at these durations is 1e-15..1e-12: invisible to the
        # double path, clean in extended precision.
        e1 = sequence_error_functionals(udd_sequence(4, 1e-3), ops)["E_flip"]
        e2 = sequence_error_functionals(udd_sequence(4, 2e-3), ops)["E_flip"]
        assert e2 / e1 == pytest.approx(2**5, rel=0.05)


class TestBranchBehaviour:
    def test_large_phase_raises(self, ops):
        with pytest.raises(BranchAmbiguityError):
            sequence_error_functionals(PulseSequence(2.5, ()), ops)

    def test_effective_duration_normalization(self, ops):
        t = 0.03
        eff, _ = point_effective(udd_sequence(1, t), ops, EXTENDED)
        assert eff.t == t
        reconstructed = error_functionals(eff)
        assert reconstructed["E_dephase"] == pytest.approx(t * 1.0, rel=1e-2)


# ---------------------------------------------------------------------------
# The double-double engine against an mpmath oracle at 50 digits
# ---------------------------------------------------------------------------

ORACLE_DPS = 50


def _to_mp(a: np.ndarray) -> mp.matrix:
    n, m = a.shape
    out = mp.matrix(n, m)
    for i in range(n):
        for j in range(m):
            v = complex(a[i, j])
            if v != 0:
                out[i, j] = mp.mpc(v.real, v.imag)
    return out


def _matrix_loop_generator(seq, ops, dps):
    """Reference: the generator M as composed and logged with mpmath.matrix products.

    One eigendecomposition per call, dense pulse and control-frame factors,
    every segment factor rebuilt where it is used, and the Mercator series
    on U - I: an algorithm independent of the engine's.
    """
    d = ops.dim
    with mp.workdps(dps):
        h = _to_mp(total_hamiltonian(ops))
        evals, q = mp.eighe(h)
        q_h = q.transpose_conj()
        t = mp.mpf(seq.total_duration)

        def segment(dt):
            phases = mp.diag([mp.exp(-1j * evals[k] * dt) for k in range(2 * d)])
            return q * phases * q_h

        u = mp.eye(2 * d)
        prev = mp.mpf(0)
        for p in seq.pulses:
            frac = mp.mpf(p.instant.numerator) / p.instant.denominator if p.is_exact else mp.mpf(p.instant)
            if frac > prev:
                u = segment((frac - prev) * t) * u
            u = _to_mp(pulse_unitary(p.axis, d)) * u
            prev = frac
        if prev < 1:
            u = segment((1 - prev) * t) * u
        u = _to_mp(np.kron(control_product(seq), np.eye(d))).transpose_conj() * u

        n = u.rows
        x = u - mp.eye(n)
        term = mp.eye(n)
        total = mp.matrix(n)
        floor = mp.mpf(10) ** (-(dps + 6))
        prev_norm = mp.inf
        for k in range(1, 1000):
            term = term * x
            norm = mp.mnorm(term, "f")
            assert not (k > 3 and norm > prev_norm), "reference series diverged"
            prev_norm = norm
            total += term * (mp.mpf(-1) ** (k + 1) / k)
            if norm < floor:
                break
        m = 1j * total
        return (m + m.transpose_conj()) * mp.mpf("0.5")


def _pauli_sums(entry, d):
    """tr_qubit[(sigma_g (x) I) M] / 2 = a_g t for g = 0, x, y, z, as d x d lists of mpc."""
    def block(g, i, j):
        m00, m11 = entry(i, j), entry(i + d, j + d)
        m01, m10 = entry(i, j + d), entry(i + d, j)
        return {"0": m00 + m11, "x": m01 + m10, "y": 1j * (m01 - m10), "z": m00 - m11}[g] / 2

    return {g: [[block(g, i, j) for j in range(d)] for i in range(d)] for g in "0xyz"}


IDENTITY_FAMILIES = {
    "udd3": {"name": "udd", "n": 3},
    "udd4": {"name": "udd", "n": 4},
    "cudd22": {"name": "cudd", "m": 2, "n": 2},
    "cdd3": {"name": "cdd", "m": 3},  # X, Y and Z pulses
    "se": {"name": "se"},  # one pulse: the control frame is a net Z rotation
}
IDENTITY_MODELS = {
    "spin1": ModelSpec(d=2, seed=3, preset="spin_bath(1)"),
    "d4": ModelSpec(d=4, seed=7),
}
_ORACLE = {}


def _oracle_blocks(family, model, seq, ops, dps=ORACLE_DPS):
    key = (family, model, seq.total_duration, dps)
    if key not in _ORACLE:
        m = _matrix_loop_generator(seq, ops, dps)
        _ORACLE[key] = _pauli_sums(lambda i, j: m[i, j], ops.dim)
    return _ORACLE[key]


class TestMatrixLoopIdentity:
    @pytest.mark.parametrize("oracle_dps", [30, 40, 50])
    @pytest.mark.parametrize("model", sorted(IDENTITY_MODELS))
    @pytest.mark.parametrize("family", sorted(IDENTITY_FAMILIES))
    def test_generator_equals_matrix_loop(self, monkeypatch, family, model, oracle_dps):
        # Every extended point of a two-duration scan has its four Pauli
        # blocks (from the double-double log, before any rounding) within
        # 1e-28 of the mpmath oracle at 30, 40 and 50 digits: the agreement
        # does not hinge on the oracle's working precision.
        captured = []

        def compose(seq, ops, durations):
            captured.append([seq, ops, list(durations)])
            return EXTENDED.compose(seq, ops, durations)

        def log(w, errors):
            out = EXTENDED.log(w, errors)
            captured[-1].append(out[0])
            return out

        monkeypatch.setitem(analysis.ENGINES, "extended", replace(EXTENDED, compose=compose, log=log))
        spec = IDENTITY_MODELS[model]
        grid = default_t_grid(alpha(build_model(spec)), 1e-3, 4e-3, 4)[::3]
        evaluate_scan(IDENTITY_FAMILIES[family], spec, grid, precision="extended")
        assert [durations for _, _, durations, _ in captured] == [list(grid)]
        worst = 0
        with mp.workdps(oracle_dps):
            for seq, ops, durations, (hi, lo) in captured:
                for g, t in enumerate(durations):
                    reference = _oracle_blocks(family, model, seq.with_duration(t), ops, oracle_dps)

                    def entry(i, j):
                        # log = hi + lo entrywise, complex, and M = i log.
                        return 1j * (mp.mpc(hi[g, i, j]) + mp.mpc(lo[g, i, j]))

                    blocks = _pauli_sums(entry, ops.dim)
                    for key, block in blocks.items():
                        for row, ref_row in zip(block, reference[key]):
                            worst = max(worst, *(abs(a - b) for a, b in zip(row, ref_row)))
        assert worst < 1e-28


def _step(gap: Fraction, t: float, scale: float, copies: int) -> tuple[int, int]:
    """The Taylor step gap * t * scale / copies as ``highprec._compose`` forms it, an unreduced (n, d)."""
    (t_num, t_den), (s_num, s_den) = t.as_integer_ratio(), scale.as_integer_ratio()
    return gap.numerator * t_num * s_num, gap.denominator * t_den * s_den * copies


class TestEnginePieces:
    @pytest.mark.parametrize("n", [8, 128])
    def test_matmul_matches_mpmath(self, n):
        # Complex (hi, lo) stacks whose items lie 2^40 to 2^60 apart and whose entries spread over
        # a factor 4 on top of their normal scatter; the slicing grids must follow each row and
        # column.  At 128 a few rows are checked, each against every column.
        rng = np.random.default_rng(n)

        def stack(exponents):
            scale = np.exp2(rng.integers(-2, 1, size=(3, n, n)) + np.array(exponents)[:, None, None])
            hi = (rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))) * scale
            return highprec._two_sum(hi, hi * rng.normal(size=hi.shape) * 2.0**-54)

        x, y = stack([-60, 0, 60]), stack([40, -20, 0])
        hi, lo = highprec._matmul(x, y)
        rows = range(n) if n <= 8 else (0, 41, 86, n - 1)
        with mp.workdps(40):
            for g in range(3):
                bound = 2.0**-100 * np.linalg.norm(x[0][g]) * np.linalg.norm(y[0][g])
                cols = [[mp.mpc(y[0][g, k, j]) + mp.mpc(y[1][g, k, j]) for k in range(n)] for j in range(n)]
                for i in rows:
                    row = [mp.mpc(x[0][g, i, k]) + mp.mpc(x[1][g, i, k]) for k in range(n)]
                    for j, col in enumerate(cols):
                        exact = mp.fdot(row, col)
                        assert abs(exact - mp.mpc(hi[g, i, j]) - mp.mpc(lo[g, i, j])) <= bound, (g, i, j)

    @pytest.mark.parametrize("n, d", [
        (0, 7),
        _step(Fraction(3, 8), 0.0123, 4.0, 3),
        _step(Fraction(1, 6), 0.0123, 0.125, 1),
        (10**400 + 7, 3**900),
        (2**3000 + 1, 3**2000 * 5),
    ], ids=["zero", "dyadic", "sixth", "huge", "huge-tiny"])
    def test_integer_step_equals_fraction_step(self, n, d):
        # Taylor steps gap * t * scale / copies of a dyadic gap and of PDD-5's 1/6, and integers far beyond a
        # double's range.  The steps were float(x), float(x - Fraction(float(x))) of x = Fraction(n, d).
        x = Fraction(n, d)
        want = (float(x), float(x - Fraction(float(x))))
        assert [v.hex() for v in highprec._dd(n, d)] == [v.hex() for v in want]

    def test_second_scan_forms_no_hamiltonian_and_no_held_power(self, monkeypatch):
        # H, its scale and the powers of k are kept with the model: none is formed by build_model, and a
        # second scan under the same model forms none of them again.
        spec = ModelSpec(d=4, seed=7)
        ops = build_model(spec)
        assert highprec._scale not in ops._cache
        formed = {"H": 0, "powers": 0}
        hamiltonian, matmul = highprec.total_hamiltonian, highprec._matmul

        def counting_hamiltonian(model):
            formed["H"] += 1
            return hamiltonian(model)

        def counting_matmul(x, y):
            kept = ops._cache.get(highprec._scale)
            formed["powers"] += kept is not None and y is kept[1]
            return matmul(x, y)

        def kept_powers():
            return {key[1]: value for key, value in ops._cache.items()
                    if isinstance(key, tuple) and key[0] is highprec._power}

        monkeypatch.setattr(highprec, "total_hamiltonian", counting_hamiltonian)
        monkeypatch.setattr(highprec, "_matmul", counting_matmul)
        grid = default_t_grid(alpha(ops), points=4)
        first = evaluate_scan({"name": "cudd", "m": 2, "n": 2}, spec, grid, precision="extended")
        powers = kept_powers()
        assert sorted(powers) == list(range(1, len(powers) + 1)) and len(powers) > 1
        assert formed == {"H": 1, "powers": len(powers) - 1}
        again = evaluate_scan({"name": "cudd", "m": 2, "n": 2}, spec, grid, precision="extended")
        assert formed == {"H": 1, "powers": len(powers) - 1}
        again_powers = kept_powers()
        assert again_powers.keys() == powers.keys() and all(again_powers[j] is powers[j] for j in powers)
        assert again == first

    def test_racing_threads_form_the_serial_powers(self):
        # Eight threads ask a fresh model for k^12 at once; each power is kept whole once written, so every
        # thread's result holds the bits of a serial call on another fresh copy of the model.
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        model = build_model(ModelSpec(d=4, seed=7))
        serial = highprec._power(replace(model), 12)
        ops, start = replace(model), threading.Barrier(8)

        def power(_):
            start.wait()
            return highprec._power(ops, 12)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(power, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert all(hi.tobytes() == serial[0].tobytes() and lo.tobytes() == serial[1].tobytes() for hi, lo in results)
        assert all(result is results[0] for result in results)

    @pytest.mark.parametrize("code", range(4))
    def test_frame_conjugation_equals_dense_product(self, code):
        # The signed-row helper both engines use gives exactly the dense F^+ x F.
        rng = np.random.default_rng(code)
        d = 3
        x = rng.normal(size=(2, 5, 2 * d, 2 * d)) + 1j * rng.normal(size=(2, 5, 2 * d, 2 * d))
        frame = np.kron(SIGMA[CODE_AXIS[code]], np.eye(d))
        assert conjugate_frame(x, code).tobytes() == (frame.conj().T @ x @ frame).tobytes()


class TestSeriesLog:
    def test_divergence_detected(self, ops):
        with pytest.raises(BranchAmbiguityError, match="series log diverging"):
            point_effective(PulseSequence(2.5, ()), ops, EXTENDED)


class TestPauliSplit:
    def test_tiny_dephasing_block_matches_dps50_reference(self):
        # CUDD(3,3) at alpha*t = 3e-4 (the acceptance window's short end):
        # E_dephase is about 1e-14 while the pure-bath block is 3e-4, so a
        # split after rounding M to complex128 was off by up to 1e-4
        # relative.  Reference: full mpmath pipeline at 50 digits.
        model = build_model(ModelSpec(d=4, seed=7))
        t = float(default_t_grid(alpha(model), 3e-4, 3e-3)[0])
        funcs = sequence_error_functionals(cudd(3, 3, total_duration=t), model)
        assert funcs["E_dephase"] == pytest.approx(CUDD33_SEED7_E_DEPHASE_AT_3E_4, rel=1e-14, abs=0)


# perfbench/references/order.json, key 'cudd(m=3,n=3)|generic|d4|seed7|at=3e-04'
# (mpmath at 50 digits, blocks split and normed in mpmath).
CUDD33_SEED7_E_DEPHASE_AT_3E_4 = 4.368260584930163e-17


class TestPrecisionFloor:
    @pytest.mark.parametrize("dps", ["5", "0", "-3"])
    def test_cli_exits_with_usage_error(self, capsys, dps):
        # The extended engine carries a fixed double-double precision, so
        # --dps is no option at all: any value is a usage error.
        code = main(["order", "udd", "--n", "2", "--precision", "extended", "--points", "4",
                     "--seed", "7", "--dps", dps])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unrecognized arguments: --dps {dps}" in err


class TestStacking:
    @pytest.mark.parametrize("family", ["udd4", "cudd22", "cdd3", "se"])
    def test_items_equal_single_point_calls(self, ops, family):
        # A scan's grid composes as one stack; each item must hold exactly
        # what a point at its duration gives, its float floor included.
        grid = list(default_t_grid(alpha(ops), 1e-3, 1e-2, 5))
        params = dict(IDENTITY_FAMILIES[family])
        seq = build_sequence(params.pop("name"), grid[0], **params)
        stacked, errors, _ = evaluate(seq, ops, grid, EXTENDED)
        assert errors == [None] * len(grid)
        funcs = {**error_functionals(stacked), "floor": stacked.floor}
        for g, t in enumerate(grid):
            single, _ = point_effective(seq.with_duration(t), ops, EXTENDED)
            assert type(single.floor) is float and single.floor == stacked.floor[g] > 0
            for (_, a), (_, b) in zip(stacked.items(), single.items()):
                assert a[g].tobytes() == b.tobytes()
            point = sequence_error_functionals(seq.with_duration(t), ops)
            assert point == {key: float(value[g]) for key, value in funcs.items()}

    def test_scan_rows_carry_the_floor(self):
        spec = ModelSpec(d=4, seed=7)
        grid = default_t_grid(alpha(build_model(spec)), points=4)
        rows = evaluate_scan({"name": "udd", "n": 3}, spec, grid, precision="extended", seeds=[7, 8])
        assert all(0 < row["floor"] < 1e-30 for row in rows)


class TestFloor:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("at", [1e-3, 1e-2])
    @pytest.mark.parametrize("m", [3, 4])
    def test_floor_bounds_oracle_error(self, m, at, seed):
        # The E_dephase of CDD-3/4 is 1e-40 to 1e-21, down to and below the
        # engine's reach; against the mpmath references (50 digits) the
        # error stays below a tenth of the reported floor.  Over all 760
        # nonzero stored d = 4 values the worst within the floor reads 0.93 of
        # it; 481 values above 10^15 floors exceed it by at most 7 ulps.
        ops = build_model(ModelSpec(d=4, seed=seed))
        funcs = sequence_error_functionals(cdd_full(m, at / alpha(ops)), ops)
        reference = REFERENCES[f"cdd(m={m})|generic|d4|seed{seed}|at={at:.0e}"]["E_dephase"]
        assert abs(funcs["E_dephase"] - reference) < 0.1 * funcs["floor"]

    def test_cli_exits_when_a_fitted_value_is_below_the_floor(self, capsys):
        # CDD-4's E_dephase at alpha*t = 1e-3 is 3.9e-39, far below the
        # engine's floor; the scan must not fit it silently.
        code = main(["order", "cdd", "--m", "4", "--precision", "extended", "--functional", "dephase",
                     "--seed", "7", "--points", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: E_dephase = ")
        assert "roundoff floor" in captured.err
        assert "slope" not in captured.out

    def test_cli_checks_written_functionals(self, capsys, tmp_path):
        # The flip fit alone is resolved; a CSV would also carry E_dephase.
        argv = ["order", "cdd", "--m", "4", "--precision", "extended", "--seed", "7", "--points", "4"]
        assert main(argv) == 0
        assert main([*argv, "--out", str(tmp_path / "scan.csv")]) == 3
        assert not (tmp_path / "scan.csv").exists()
        capsys.readouterr()

    def test_compare_checks_printed_functionals(self, capsys):
        code = main(["compare", "--seq", "cdd,m=4", "--t", "0.001", "--seed", "7", "--precision", "extended"])
        assert code == 3
        assert "roundoff floor" in capsys.readouterr().err


class TestDeepSchedules:
    @pytest.mark.parametrize("name, params", [("cdd", {"m": 7}), ("udd2", {"n": 11})], ids=["CDD-7", "UDD2-11"])
    def test_extracts_and_agrees_with_double(self, name, params):
        ops = build_model(ModelSpec(d=4, seed=7))
        grid = [at / alpha(ops) for at in (1e-2, 1e-1)]
        eff, errors, _ = evaluate(build_sequence(name, 1.0, **params), ops, grid, EXTENDED)
        funcs = {**error_functionals(eff), "floor": eff.floor}
        assert errors == [None, None]
        assert all(np.isfinite(value).all() for value in funcs.values())
        assert (funcs["floor"] > 0).all()
        for g, t in enumerate(grid):
            double = sequence_effective(build_sequence(name, t, **params), ops)
            for key, value in error_functionals(double).items():
                if value > double.floor:
                    assert abs(funcs[key][g] - value) <= double.floor + funcs["floor"][g]


class TestLargeBath:
    def test_d64_udd3_point_matches_reference(self):
        # mpmath cannot finish a d = 64 point; the reference comes from the
        # independent double-double engine perfbench/ddarith.py.
        ops = build_model(ModelSpec(d=64, seed=7))
        funcs = sequence_error_functionals(udd_sequence(3, 1e-3 / alpha(ops)), ops)
        reference = REFERENCES["udd(n=3)|generic|d64|seed7|at=1e-03"]
        for key, value in reference.items():
            assert funcs[key] == pytest.approx(value, rel=1e-6)
