import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import fzero

from ddforge import highprec
from ddforge.analysis import default_t_grid, evaluate_scan
from ddforge.bath import ModelSpec, alpha, build_model, total_hamiltonian
from ddforge.cli import main
from ddforge.effective import BranchAmbiguityError, error_functionals, sequence_effective
from ddforge.evolution import control_product, pulse_unitary
from ddforge.highprec import sequence_effective as sequence_effective_hp
from ddforge.highprec import sequence_error_functionals
from ddforge.sequences import PulseSequence, cudd, udd_sequence


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

    def test_exact_instants_used(self, ops):
        # Rational instants must be converted exactly, not through floats.
        seq = cudd(2, 2, total_duration=0.02)
        hi = sequence_error_functionals(seq, ops)
        lo = error_functionals(sequence_effective(seq, ops))
        assert hi["E_total"] == pytest.approx(lo["E_total"], rel=1e-6)


class TestBelowDoubleFloor:
    def test_udd4_flip_scales_as_fifth_power(self, ops):
        # (alpha t)^5 at these durations is 1e-15..1e-12: invisible to the
        # double path, clean in extended precision.
        e1 = sequence_error_functionals(udd_sequence(4, 1e-3), ops)["E_flip"]
        e2 = sequence_error_functionals(udd_sequence(4, 2e-3), ops)["E_flip"]
        assert e2 / e1 == pytest.approx(2**5, rel=0.05)

    def test_dps_controls_floor(self, ops):
        seq = udd_sequence(4, 1e-3)
        coarse = sequence_error_functionals(seq, ops, dps=30)["E_flip"]
        fine = sequence_error_functionals(seq, ops, dps=50)["E_flip"]
        assert coarse == pytest.approx(fine, rel=1e-8)


class TestThreadSafety:
    def test_threaded_extended_scan_matches_serial(self, ops):
        # mpmath precision is process-global; the engine serializes its
        # workdps blocks so threaded scans cannot interleave precisions.
        from ddforge.analysis import evaluate_scan
        from ddforge.bath import ModelSpec

        spec = ModelSpec(d=4, seed=7)
        grid = [1e-3, 2e-3, 4e-3, 8e-3]
        serial = evaluate_scan({"name": "udd", "n": 3}, spec, grid, precision="extended", jobs=1)
        threaded = evaluate_scan({"name": "udd", "n": 3}, spec, grid, precision="extended", jobs=4)
        assert serial == threaded


class TestBranchBehaviour:
    def test_large_phase_raises(self, ops):
        with pytest.raises(BranchAmbiguityError):
            sequence_error_functionals(PulseSequence(2.5, ()), ops)

    def test_effective_duration_normalization(self, ops):
        t = 0.03
        eff = sequence_effective_hp(udd_sequence(1, t), ops)
        assert eff.t == t
        reconstructed = error_functionals(eff)
        assert reconstructed["E_dephase"] == pytest.approx(t * 1.0, rel=1e-2)


# ---------------------------------------------------------------------------
# The raw-tuple engine against the mpmath.matrix loop it replaced
# ---------------------------------------------------------------------------

def _entries(a: mp.matrix) -> list:
    """Rows of (re, im) raw mpf tuples of an mpmath matrix; a real entry has im = 0."""
    return [
        [
            a[i, j]._mpc_ if hasattr(a[i, j], "_mpc_") else (a[i, j]._mpf_, fzero)
            for j in range(a.cols)
        ]
        for i in range(a.rows)
    ]


def _matrix_loop_generator(seq, ops, dps):
    """Reference: the generator M as composed and logged with mpmath.matrix products.

    One eigendecomposition per call, dense pulse and control-frame factors,
    every segment factor rebuilt where it is used.
    """
    d = ops.dim
    with mp.workdps(dps):
        h = highprec._to_mp(total_hamiltonian(ops))
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
            u = highprec._to_mp(pulse_unitary(p.axis, d)) * u
            prev = frac
        if prev < 1:
            u = segment((1 - prev) * t) * u
        u = highprec._to_mp(np.kron(control_product(seq), np.eye(d))).transpose_conj() * u

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
        m = (m + m.transpose_conj()) * mp.mpf("0.5")
        return _entries(m)


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


class TestMatrixLoopIdentity:
    @pytest.mark.parametrize("dps", [30, 40, 50])
    @pytest.mark.parametrize("model", sorted(IDENTITY_MODELS))
    @pytest.mark.parametrize("family", sorted(IDENTITY_FAMILIES))
    def test_generator_equals_matrix_loop(self, monkeypatch, family, model, dps):
        # Every extended point of a two-duration scan, serial and threaded,
        # holds exactly the mpf tuples of the reference loop.
        captured = []
        generator = highprec._generator

        def spy(seq, ops, dps_):
            m = generator(seq, ops, dps_)
            captured.append((seq, ops, m))
            return m

        monkeypatch.setattr(highprec, "_generator", spy)
        spec = IDENTITY_MODELS[model]
        grid = default_t_grid(alpha(build_model(spec)), 1e-3, 4e-3, 4)[::3]
        for jobs in (1, 2):
            evaluate_scan(IDENTITY_FAMILIES[family], spec, grid, precision="extended", dps=dps, jobs=jobs)
        assert sorted(seq.total_duration for seq, _, _ in captured) == sorted([*grid, *grid])
        references = {}
        for seq, ops, m in captured:
            key = seq.total_duration
            if key not in references:
                references[key] = _matrix_loop_generator(seq, ops, dps)
            assert m == references[key]


class TestEigensystem:
    def test_once_per_model_and_precision(self, monkeypatch):
        calls = []
        eighe = mp.eighe

        def counting_eighe(*args, **kwargs):
            calls.append(mp.mp.dps)
            return eighe(*args, **kwargs)

        monkeypatch.setattr(mp, "eighe", counting_eighe)
        model = build_model(ModelSpec(d=2, seed=3, preset="spin_bath(1)"))
        assert "extended_eigensystems" not in vars(model)
        assert calls == []
        for t in (0.004, 0.006, 0.008):
            sequence_effective_hp(udd_sequence(3, t), model, dps=30)
        sequence_effective_hp(cudd(2, 2, total_duration=0.005), model, dps=30)
        assert calls == [30]
        sequence_effective_hp(udd_sequence(3, 0.004), model, dps=40)
        assert calls == [30, 40]
        cached = model.extended_eigensystems
        assert sorted(cached) == [30, 40]
        assert cached[30][1] != cached[40][1]
        other = build_model(ModelSpec(d=2, seed=3, preset="spin_bath(1)"))
        sequence_effective_hp(udd_sequence(3, 0.004), other, dps=30)
        assert calls == [30, 40, 30]


class TestSeriesLog:
    def test_divergence_detected(self, ops):
        with pytest.raises(BranchAmbiguityError, match="series log diverging"):
            sequence_effective_hp(PulseSequence(2.5, ()), ops)


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
    @pytest.mark.parametrize("dps", [15, 5, 0, -3])
    def test_too_few_digits_rejected(self, ops, dps):
        with pytest.raises(ValueError, match="at least 16 digits"):
            sequence_effective_hp(udd_sequence(2, 0.01), ops, dps=dps)

    def test_sixteen_digits_accepted(self, ops):
        eff = sequence_effective_hp(udd_sequence(2, 0.01), ops, dps=16)
        assert eff.t == 0.01

    @pytest.mark.parametrize("dps", ["5", "0", "-3"])
    def test_cli_exits_with_usage_error(self, capsys, dps):
        code = main(["order", "udd", "--n", "2", "--precision", "extended", "--points", "4",
                     "--seed", "7", "--dps", dps])
        err = capsys.readouterr().err
        assert code == 2
        assert "at least 16 digits" in err
