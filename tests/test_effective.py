import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from _reference import expm_segment, pauli_reassemble, unitary_log

from ddforge import effective
from ddforge.bath import SIGMA, BathOperators, ModelSpec, alpha, build_model, spectral_norm
from ddforge.effective import (
    DOUBLE,
    BranchAmbiguityError,
    _principal_logs,
    error_functionals,
    evaluate,
    magnus_cdd_predict,
    pauli_decompose,
    point_effective,
    sequence_effective,
)
from ddforge.evolution import sequence_deviation, sequence_unitary
from ddforge.highprec import EXTENDED
from ddforge.sequences import PauliAxis, PulseSequence, build_sequence, cdd_full, cdd_xx, cudd, udd_sequence

RNG = np.random.default_rng(77)


def random_hermitian(d, scale=1.0):
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    a = (g + g.conj().T) / 2
    return a * (scale / np.abs(np.linalg.eigvalsh(a)).max())


def dephasing_ops(d=4, a0_scale=1.0, az_scale=1.0):
    zero = np.zeros((d, d), dtype=complex)
    return BathOperators(
        a0=random_hermitian(d, a0_scale),
        ax=zero.copy(),
        ay=zero.copy(),
        az=random_hermitian(d, az_scale),
    )


class TestUnitaryLog:
    def test_identity(self):
        assert np.abs(unitary_log(np.eye(6))).max() < 1e-12

    @pytest.mark.parametrize("scale", [0.5, 1.5, 3.0])
    def test_roundtrip_random_hermitian(self, scale):
        h = random_hermitian(8, scale)
        m = unitary_log(expm_segment(h, 1.0))
        assert np.abs(m - h).max() < 1e-10

    def test_minus_identity_raises(self):
        with pytest.raises(BranchAmbiguityError):
            unitary_log(-np.eye(4))

    def test_margin(self):
        # Eigenphase at pi - 0.05 sits inside the 0.1 rad safety margin.
        u = np.diag([np.exp(-1j * (np.pi - 0.05)), 1.0, 1.0, 1.0])
        with pytest.raises(BranchAmbiguityError) as err:
            unitary_log(u)
        assert abs(err.value.eigenphase) > np.pi - 0.1

    def test_inside_margin_ok(self):
        phase = np.pi - 0.2
        u = np.diag([np.exp(-1j * phase), 1.0, 1.0, 1.0])
        m = unitary_log(u)
        assert np.abs(np.linalg.eigvalsh(m)).max() == pytest.approx(phase, abs=1e-12)

    def test_degenerate_plus_minus_phases(self):
        # Phases +q and -q share cos q; the Cayley form maps them to the
        # distinct eigenvalues +-tan(q/2).  Conjugate by a random unitary to
        # hide the basis.
        q = 0.9
        diag = np.diag(np.exp(-1j * np.array([q, -q, q, -q])))
        v = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))[0]
        u = v @ diag @ v.conj().T
        m = unitary_log(u)
        evals, evecs = np.linalg.eigh(m)
        assert np.abs((evecs * np.exp(-1j * evals)) @ evecs.conj().T - u).max() < 1e-10

    @pytest.mark.parametrize("scale", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_roundtrip_near_identity(self, scale):
        # Decoupled schedules leave ctrl^+ U this close to the identity; the
        # error must stay at rounding level relative to the generator.
        h = random_hermitian(8, scale)
        m = unitary_log(expm_segment(h, 1.0))
        assert np.abs(m - h).max() < 1e-11 * scale

    def test_small_flip_under_larger_bath_block(self):
        # A 1e-9 flip coupling under a 1e-2 pure-bath term: the residual the
        # order fits read must survive the log to 1e-6 relative.
        a0, ax = random_hermitian(4, 1e-2), random_hermitian(4, 1e-9)
        h = np.kron(np.eye(2), a0) + np.kron(SIGMA["X"], ax)
        eff = pauli_decompose(unitary_log(expm_segment(h, 1.0)), t=1.0)
        assert spectral_norm(eff.ax - ax) < 1e-6 * spectral_norm(ax)

    def test_minus_identity_in_stack(self):
        # An eigenvalue exactly at -1 makes 2I + W singular; only that item
        # fails, and the others get the logs they get on their own.
        from ddforge.effective import _principal_logs

        good = [expm_segment(random_hermitian(4, s), 1.0) for s in (0.5, 2.0)]
        errors = [None] * 3
        m, _ = _principal_logs(np.stack([good[0], -np.eye(4, dtype=complex), good[1]]) - np.eye(4), errors)
        assert errors[0] is None and errors[2] is None
        assert type(errors[1]) is BranchAmbiguityError
        assert errors[1].eigenphase == np.pi
        for g, u in zip((0, 2), good):
            assert m[g].tobytes() == unitary_log(u).tobytes()

    def test_non_unitary_input_fails_reconstruction(self):
        u = expm_segment(random_hermitian(4, 0.5), 1.0)
        u[0, 1] += 1e-6
        with pytest.raises(ArithmeticError, match="log reconstruction residual") as err:
            unitary_log(u)
        assert type(err.value) is ArithmeticError

    def test_hermitian_output(self):
        u = expm_segment(random_hermitian(8, 2.0), 1.0)
        m = unitary_log(u)
        assert np.abs(m - m.conj().T).max() < 1e-14


def cayley_size(w):
    """|Z|_F of Z = (2I + W)^-1 W, the quantity that picks the series log (< 1/2) or eigh."""
    return np.linalg.norm(np.linalg.solve(w + 2 * np.eye(w.shape[-1]), w))


def deviation_with_phases(phases, rng):
    """W = U - I for U = V diag(exp(-i phases)) V^+, V a random unitary, formed from expm1."""
    n = len(phases)
    v = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return (v * np.expm1(-1j * np.asarray(phases))) @ v.conj().T


class TestSeriesLog:
    def test_stack_on_both_sides_of_switch_equals_separate_calls(self, monkeypatch):
        # Items below and above SERIES_BOUND, one whose |Z^2|_F underflows, one
        # singular item and one that fails its reconstruction, in one stack,
        # the series items with mixed term counts: every generator, error and
        # |M| bound is the one a call on that item alone gives, which skips the
        # branches the other items take.
        rng = np.random.default_rng(5)
        w = np.stack([deviation_with_phases(rng.uniform(-s, s, 8), rng) for s in (1e-4, 0.05, 2.5, 0.3, 1e-170)]
                     + [-2 * np.eye(8, dtype=complex), 0.01 * np.eye(8, dtype=complex)])
        sizes = [cayley_size(item) for item in w[:5]]
        assert sizes[0] < sizes[1] < effective.SERIES_BOUND <= sizes[2] and sizes[3] < effective.SERIES_BOUND
        assert w[4].any() and not np.any(w[4] @ w[4])
        counts, series_terms = [], effective.series_terms
        monkeypatch.setattr(effective, "series_terms", lambda *args: counts.append(series_terms(*args)) or counts[-1])
        errors = [None] * len(w)
        m, phase = _principal_logs(w, errors)
        assert len(set(counts[0][[0, 1, 3]].tolist())) == 3
        for g in range(len(w)):
            errors_one = [None]
            m_one, phase_one = _principal_logs(w[g:g + 1], errors_one)
            assert type(errors[g]) is type(errors_one[0]) and str(errors[g]) == str(errors_one[0])
            if errors[g] is None:
                assert m[g].tobytes() == m_one[0].tobytes()
                assert phase[g].tobytes() == phase_one[0].tobytes()
        assert errors[:5] == [None] * 5 and type(errors[5]) is BranchAmbiguityError
        assert type(errors[6]) is ArithmeticError and phase[4] > 0

    @pytest.mark.parametrize("d", [1, 4, 16, 64])
    @pytest.mark.parametrize("largest", [1e-6, 1e-4, 1e-2, 0.3, 0.9])
    def test_matches_eigh_within_one_floor(self, monkeypatch, d, largest):
        # One eigenphase at -largest, the others spread below it, kept small
        # enough at large phases that |Z|_F < 1/2 and the series is taken.
        n = 2 * d
        rng = np.random.default_rng(d)
        spread = min(1.0, 0.1 / (largest / 2 * np.sqrt(max(n - 1, 1))))
        phases = np.concatenate(([-largest], largest * spread * rng.uniform(-1, 1, n - 1)))
        w = deviation_with_phases(phases, rng)[None]
        assert cayley_size(w[0]) < effective.SERIES_BOUND
        errors, errors_eigh = [None], [None]
        m, bound = _principal_logs(w, errors)
        monkeypatch.setattr(effective, "SERIES_BOUND", 0.0)
        m_eigh, exact = _principal_logs(w, errors_eigh)
        assert errors == errors_eigh == [None]
        assert exact[0] == pytest.approx(largest, rel=1e-12)
        assert np.abs(m - m_eigh).max() <= effective.FLOOR_UNIT * exact[0]
        assert bound[0] >= exact[0] * (1 - 1e-14)  # an upper bound up to rounding
        assert np.array_equal(m[0], m[0].conj().T)

    @pytest.mark.parametrize("scale", [0.05, 2.0], ids=["series", "eigh"])
    def test_non_unitary_input_fails_reconstruction_on_either_path(self, scale):
        u = expm_segment(random_hermitian(4, scale), 1.0)
        u[0, 1] += 1e-6
        w = u - np.eye(4)
        assert (cayley_size(w) < effective.SERIES_BOUND) == (scale < 1)
        with pytest.raises(ArithmeticError, match="log reconstruction residual") as err:
            unitary_log(u)
        assert type(err.value) is ArithmeticError


class TestPauliDecompose:
    def test_pure_z_block(self):
        b = random_hermitian(4)
        eff = pauli_decompose(np.kron(SIGMA["Z"], b), t=1.0)
        assert np.abs(eff.az - b).max() < 1e-14
        for block in (eff.a0, eff.ax, eff.ay):
            assert np.abs(block).max() < 1e-14

    def test_pure_identity_block(self):
        b = random_hermitian(4)
        eff = pauli_decompose(np.kron(np.eye(2), b), t=2.0)
        assert np.abs(eff.a0 - b / 2.0).max() < 1e-14

    def test_reassembly_exact(self):
        m = random_hermitian(8, 1.7)
        eff = pauli_decompose(m, t=0.3)
        assert np.abs(pauli_reassemble(eff) - m).max() < 1e-12

    def test_roundtrip_through_log(self):
        blocks = {g: random_hermitian(4, 0.2) for g in "0xyz"}
        gamma_sigma = {"0": "I", "x": "X", "y": "Y", "z": "Z"}
        m = sum(np.kron(SIGMA[gamma_sigma[g]], blocks[g]) for g in "0xyz")
        eff = pauli_decompose(unitary_log(expm_segment(m, 1.0)), t=1.0)
        for g, recovered in zip("0xyz", (eff.a0, eff.ax, eff.ay, eff.az)):
            assert np.abs(recovered - blocks[g]).max() < 1e-10


class TestErrorFunctionals:
    def test_zero_couplings(self):
        eff = pauli_decompose(np.kron(np.eye(2), random_hermitian(4)), t=1.0)
        funcs = error_functionals(eff)
        assert funcs["E_flip"] < 1e-14 and funcs["E_dephase"] < 1e-14 and funcs["E_total"] < 1e-14

    def test_pure_dephasing_no_pulses(self):
        ops = dephasing_ops()
        t = 0.05
        eff = sequence_effective(PulseSequence(t, ()), ops)
        funcs = error_functionals(eff)
        assert funcs["E_flip"] < 1e-13
        assert funcs["E_dephase"] == pytest.approx(t * spectral_norm(ops.az), rel=1e-9)
        assert funcs["E_total"] == funcs["E_dephase"]

    def test_scaling_with_t(self):
        eff = pauli_decompose(np.kron(SIGMA["X"], np.eye(4)), t=0.5)
        assert error_functionals(eff)["E_flip"] == pytest.approx(1.0)

    @staticmethod
    def per_block(eff) -> dict:
        # The functionals from three separate spectral_norm calls, one per block.
        e_flip = eff.t * np.maximum(spectral_norm(eff.ax), spectral_norm(eff.ay))
        e_dephase = eff.t * spectral_norm(eff.az)
        return {"E_flip": e_flip, "E_dephase": e_dephase, "E_total": np.maximum(e_flip, e_dephase)}

    @pytest.mark.parametrize("d, preset", [(4, "generic"), (64, "generic"), (4, "pure_dephasing")])
    def test_stacked_norms_equal_per_block_norms(self, d, preset):
        ops = build_model(ModelSpec(d=d, seed=7, preset=preset))
        eff, errors, _ = evaluate(udd_sequence(3, 0.01), ops, GRID / alpha(ops), DOUBLE)
        assert errors == [None] * len(GRID)
        if preset == "pure_dephasing":
            assert not eff.ax.any() and not eff.ay.any()
        funcs, want = error_functionals(eff), self.per_block(eff)
        assert funcs.keys() == want.keys()
        for key in want:
            assert np.array_equal(funcs[key], want[key])
        # The functionals read x, y and z as one view of the array the split writes.
        assert np.shares_memory(eff.couplings, eff.ax) and np.array_equal(eff.couplings, [eff.ax, eff.ay, eff.az])

    @pytest.mark.parametrize("point", [False, True], ids=["stack", "point"])
    @pytest.mark.parametrize("engine", [DOUBLE, EXTENDED], ids=["double", "extended"])
    def test_blocks_are_one_array_on_both_engines(self, engine, point):
        # Both engines' splits write the four blocks into one array, and point_effective's generator is
        # its item 0: a0..az, items() and the couplings the functionals read are views of it.
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = udd_sequence(3, 0.01 / alpha(ops))
        eff = point_effective(seq, ops, engine)[0] if point else evaluate(seq, ops, GRID / alpha(ops), engine)[0]
        assert eff.blocks.shape == (4, *np.shape(eff.t), 4, 4)
        assert [name for name, _ in eff.items()] == ["0", "x", "y", "z"]
        for g, (name, block) in enumerate(eff.items()):
            assert block is not eff.blocks and np.shares_memory(block, eff.blocks)
            assert np.array_equal(block, eff.blocks[g]) and np.shares_memory(getattr(eff, f"a{name}"), eff.blocks[g])
        assert np.shares_memory(eff.couplings, eff.ax) and np.array_equal(eff.couplings, [eff.ax, eff.ay, eff.az])

    @pytest.mark.parametrize("preset", ["generic", "pure_dephasing"])
    def test_single_point_gives_floats(self, preset):
        ops = build_model(ModelSpec(d=4, seed=7, preset=preset))
        eff = sequence_effective(udd_sequence(3, 0.01 / alpha(ops)), ops)
        funcs, want = error_functionals(eff), self.per_block(eff)
        for key in want:
            assert type(funcs[key]) is float and funcs[key] == want[key]


class TestSequenceEffective:
    def test_free_evolution_recovers_hamiltonian(self):
        ops = build_model(ModelSpec(d=4, seed=31))
        t = 0.05
        eff = sequence_effective(PulseSequence(t, ()), ops)
        for want, got in zip((ops.a0, ops.ax, ops.ay, ops.az), (eff.a0, eff.ax, eff.ay, eff.az)):
            assert np.abs(got - want).max() < 1e-10

    def test_odd_pulse_count_stays_in_branch(self):
        # The net control rotation is removed before the log, so odd-count
        # Z-pulse schedules extract cleanly.
        ops = build_model(ModelSpec(d=4, seed=31))
        eff = sequence_effective(udd_sequence(3, 0.01), ops)
        assert error_functionals(eff)["E_dephase"] == pytest.approx(0.01, rel=1e-3)

    @pytest.mark.parametrize("at", [1e-100, 1e-170])
    def test_floor_stays_positive_where_squares_underflow(self, at):
        # Below alpha t of about 1e-81 the squares behind |Z^2|_F underflow, and the floor read 0.0.
        # From |Z|_F it stays positive and scales with t: per unit alpha t within 1.6x of the floor at
        # 1e-60, where |Z^2|_F holds (|Z|_F bounds the eigenphases less tightly).
        ops = build_model(ModelSpec(d=4, seed=7))
        (held, _, _), (lost, errors, _) = (evaluate(udd_sequence(2), ops, [x / alpha(ops)], DOUBLE) for x in (1e-60, at))
        assert errors == [None]
        assert held.floor[0] / 1e-60 <= lost.floor[0] / at <= 1.6 * held.floor[0] / 1e-60

    def test_branch_error_carries_t(self):
        # H = sigma_z x I has eigenvalues +-1, so eigenphases sit at +-t.
        d = 4
        zero = np.zeros((d, d), dtype=complex)
        ops = BathOperators(a0=zero.copy(), ax=zero.copy(), ay=zero.copy(), az=np.eye(d, dtype=complex))
        t = np.pi - 0.05
        with pytest.raises(BranchAmbiguityError) as err:
            sequence_effective(PulseSequence(t, ()), ops)
        assert err.value.t == t


GRID = np.geomspace(1e-3, 1e-2, 8)
SCHEDULES = pytest.mark.parametrize(
    "seq", [udd_sequence(3, 0.01), cudd(2, 2, 0.01), cdd_full(3, 0.01)], ids=["UDD-3", "CUDD(2,2)", "CDD-3"]
)


def symmetrized_norm(a):
    # Reference: the spectral norm of the Hermitian part, as the functionals
    # once computed it.
    if not np.any(a):
        return 0.0
    return float(np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2)).max())


class TestStackedExtraction:
    @pytest.mark.parametrize("d", [4, 16])
    @SCHEDULES
    def test_items_bit_equal_to_single_extractions(self, seq, d):
        # A scan's grid composes as one stack; each item must hold exactly
        # what a point at its own duration gives, floor included.
        ops = build_model(ModelSpec(d=d, seed=7))
        eff, errors, _ = evaluate(seq, ops, GRID, DOUBLE)
        assert errors == [None] * len(GRID)
        funcs = error_functionals(eff)
        for g, t in enumerate(GRID):
            single = sequence_effective(seq.with_duration(t), ops)
            assert eff.t[g] == single.t and eff.floor[g] == single.floor
            for (_, block), (_, want) in zip(eff.items(), single.items()):
                assert block[g].tobytes() == want.tobytes()
            for key, value in error_functionals(single).items():
                assert type(value) is float
                assert funcs[key][g] == value

    def test_branch_error_recorded_per_item(self):
        d = 4
        zero = np.zeros((d, d), dtype=complex)
        ops = BathOperators(a0=zero.copy(), ax=zero.copy(), ay=zero.copy(), az=np.eye(d, dtype=complex))
        durations = [0.5, np.pi - 0.05, 1.0]
        _, errors, _ = evaluate(PulseSequence(1.0, (), label="free"), ops, durations, DOUBLE)
        assert errors[0] is None and errors[2] is None
        with pytest.raises(BranchAmbiguityError) as single:
            sequence_effective(PulseSequence(durations[1], (), label="free"), ops)
        assert type(errors[1]) is BranchAmbiguityError
        assert str(errors[1]) == str(single.value) and "(schedule 'free' at t=3.09159)" in str(errors[1])
        assert errors[1].t == single.value.t == durations[1]
        assert errors[1].eigenphase == single.value.eigenphase

    @SCHEDULES
    def test_unitary_effective_matches_sequence_effective(self, seq):
        # The W a sequence_unitary carries, read in place of composing, extracts to the bits of a fresh double point.
        ops = build_model(ModelSpec(d=4, seed=7))
        carried = dataclasses.replace(DOUBLE, compose=lambda seq, ops, durations: (sequence_unitary(seq, ops).w[None], [None]))
        from_unitary, _ = point_effective(seq, ops, carried)
        direct = sequence_effective(seq, ops)
        assert from_unitary.floor == direct.floor
        for (_, got), (_, want) in zip(from_unitary.items(), direct.items()):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_compare_prints_point_effective_values(self, monkeypatch, capsys, precision):
        # compare's E columns are error_functionals(point_effective(seq, model, engine)), called with those three
        # arguments only: the bits of a fresh point on the engine, whose double compose is effective's
        # sequence_deviation (in double, F_e reads that point's W; extended, it composes in double on its own).
        from ddforge import analysis, cli

        engine, points, deviations = analysis.ENGINES[precision], [], []

        def recording_point(seq, ops, point_engine):
            points.append(point_effective(seq, ops, point_engine))
            return points[-1]

        def recording_deviation(seq, ops, durations):
            deviations.append(list(durations))
            return sequence_deviation(seq, ops, durations)

        monkeypatch.setattr(effective, "point_effective", recording_point)
        monkeypatch.setattr(effective, "sequence_deviation", recording_deviation)
        code = cli.main(["compare", "--seq", "udd,n=3", "--seq", "cudd,m=2,n=2", "--seq", "cdd,m=3",
                         "--t", "0.01", "--seed", "7", "--precision", precision])
        out = capsys.readouterr().out
        assert code == 0
        assert deviations == ([[0.01]] * 3 if precision == "double" else [])
        ops = build_model(ModelSpec(seed=7))
        rows = out.splitlines()[1:]
        assert len(rows) == len(points) == 3
        for seq, row, (got, _) in zip([udd_sequence(3, 0.01), cudd(2, 2, 0.01), cdd_full(3, 0.01)], rows, points):
            want, _ = point_effective(seq, ops, engine)
            assert got.floor == want.floor
            for (_, block), (_, ref) in zip(got.items(), want.items()):
                assert block.tobytes() == ref.tobytes()
            funcs = error_functionals(want)
            assert row.split()[0] == seq.label
            assert row.split()[2:5] == [f"{funcs[key]:.4e}" for key in ("E_flip", "E_dephase", "E_total")]


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references"


def reference_points(dims):
    """(key, schedule, model, stored functionals) of each stored oracle point at the given dims ("d4", "d64")."""
    refs = json.loads((REFERENCES / "order.json").read_text())["points"]
    models = {}
    for key, want in refs.items():
        family, preset, dim, seed, at = key.split("|")
        if dim not in dims:
            continue
        name, params = family.rstrip(")").split("(")
        params = {k: PauliAxis(v) if k == "axis" else int(v) for k, v in (p.split("=") for p in params.split(",") if p)}
        if (dim, seed, preset) not in models:
            models[dim, seed, preset] = build_model(ModelSpec(d=int(dim[1:]), seed=int(seed[4:]), preset=preset))
        ops = models[dim, seed, preset]
        yield key, build_sequence(name, float(at[3:]) / alpha(ops), **params), ops, want


def test_floor_bounds_error_against_reference():
    # Every stored d = 4 point of the mpmath oracle: each functional's error
    # stays below the floor the double point reports.
    for key, seq, ops, want in reference_points({"d4"}):
        eff = sequence_effective(seq, ops)
        for functional, value in error_functionals(eff).items():
            assert abs(value - want[functional]) <= eff.floor, (key, functional)


def test_series_bound_on_reference_points(monkeypatch):
    # On every stored point (d = 4 and 64) the series log's |M| bound lies
    # between the eigenphases' largest magnitude and 1.3 times it.
    ratios = []
    for key, seq, ops, _ in reference_points({"d4", "d64"}):
        w, _ = sequence_deviation(seq, ops, [seq.total_duration])
        errors = [None]
        _, bound = _principal_logs(w, errors)
        with monkeypatch.context() as patch:
            patch.setattr(effective, "SERIES_BOUND", 0.0)
            _, exact = _principal_logs(w, [None])
        assert errors == [None] and cayley_size(w[0]) < effective.SERIES_BOUND, key
        ratios.append(bound[0] / exact[0])
    assert len(ratios) == 340
    assert 1 <= min(ratios) and max(ratios) <= 1.3


class TestSpectralNorm:
    @pytest.mark.parametrize("d", [4, 16])
    @SCHEDULES
    def test_pauli_blocks_equal_symmetrized_norm(self, seq, d):
        # eigvalsh reads one triangle; the extracted blocks are exactly
        # Hermitian, so symmetrizing first changes no bit.
        eff = sequence_effective(seq, build_model(ModelSpec(d=d, seed=7)))
        for _, block in eff.items():
            assert np.array_equal(block, block.conj().T)
            got = np.float64(spectral_norm(block))
            assert got.tobytes() == np.float64(symmetrized_norm(block)).tobytes()

    def test_stack_gives_one_norm_per_matrix(self):
        # With a zero block, as the flip blocks of a pure-dephasing model are, or with none, each norm has
        # the bits of a call on its matrix alone.
        for middle in (np.zeros((5, 5), dtype=complex), random_hermitian(5, 1.0)):
            stack = np.stack([random_hermitian(5, 0.5), middle, random_hermitian(5, 2.0)])
            norms = spectral_norm(stack)
            assert norms.shape == (3,)
            assert [x.tobytes() for x in norms] == [np.float64(spectral_norm(a)).tobytes() for a in stack]
            assert spectral_norm(stack.reshape(3, 1, 5, 5)).shape == (3, 1)

    def test_zero_and_empty_matrices_keep_their_norms(self):
        # Zero blocks were masked out of the stacked eigvalsh and given 0.0; the whole stack now goes through,
        # and these are the masked path's values, bit for bit: +0.0 for a zero or empty matrix.
        empty = spectral_norm(np.zeros((0, 0), complex))
        assert type(empty) is float and np.float64(empty).tobytes() == np.float64(0.0).tobytes()
        for stack in (np.zeros((2, 0, 0), complex), np.zeros((3, 4, 4), complex)):
            assert spectral_norm(stack).tobytes() == np.zeros(len(stack)).tobytes()
        a = random_hermitian(5, 2.5)
        mixed = np.stack([a, np.zeros((5, 5), complex), np.diag([0.5, -3.0, 0, 0, 1]).astype(complex), -a])
        alone = np.abs(np.linalg.eigvalsh(a)).max()
        assert spectral_norm(mixed).tobytes() == np.array([alone, 0.0, 3.0, alone]).tobytes()

    @pytest.mark.parametrize("d", [0, 1, 2, 5, 16, 64])
    def test_single_matrix_is_a_stack_of_one(self, d):
        # A float with the bits of the stacked path, and of the largest |eigvalsh| of the matrix itself.
        for a in (random_hermitian(d, 1.5) if d else np.zeros((0, 0), complex), np.zeros((d, d), complex)):
            got = spectral_norm(a)
            assert type(got) is float
            assert np.float64(got).tobytes() == spectral_norm(a[None])[0].tobytes()
            if a.any():
                assert got == float(np.abs(np.linalg.eigvalsh(a)).max())


class TestMagnusPredictor:
    def test_commuting_bath_gives_zero(self):
        a0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        az = np.diag([0.5, -0.5, 1.0]).astype(complex)
        for level in (1, 2, 3):
            _, az_n, _ = magnus_cdd_predict(a0, az, 0.1, level)
            assert np.abs(az_n).max() < 1e-15

    def test_single_step_hermitian(self):
        a0, az = random_hermitian(4), random_hermitian(4)
        _, az1, tau1 = magnus_cdd_predict(a0, az, 0.2, 1)
        assert np.allclose(az1, 1j * 0.1 * (a0 @ az - az @ a0))
        assert np.abs(az1 - az1.conj().T).max() < 1e-14
        assert tau1 == pytest.approx(0.4)

    def test_duration_doubling(self):
        a0, az = random_hermitian(4), random_hermitian(4)
        assert magnus_cdd_predict(a0, az, 0.25, 4)[2] == pytest.approx(0.25 * 16)

    def test_level_zero_is_input(self):
        a0, az = random_hermitian(4), random_hermitian(4)
        out0, outz, tau = magnus_cdd_predict(a0, az, 0.3, 0)
        assert np.allclose(out0, a0) and np.allclose(outz, az) and tau == 0.3

    def test_prediction_converges_to_extraction(self):
        # Deviation from the extracted dephasing block vanishes as tau0 -> 0
        # (quadratically in relative terms for the level-1 step).
        ops = dephasing_ops()
        rels = []
        for tau0 in (0.02, 0.01, 0.005):
            _, az_pred, tau1 = magnus_cdd_predict(ops.a0, ops.az, tau0, 1)
            eff = sequence_effective(cdd_xx(1, total_duration=tau1), ops)
            rels.append(spectral_norm(eff.az - az_pred) / spectral_norm(eff.az))
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 1e-4
        assert rels[0] / rels[1] == pytest.approx(4.0, abs=0.5)

    def test_validation(self):
        a = random_hermitian(3)
        with pytest.raises(ValueError):
            magnus_cdd_predict(a, a, -1.0, 1)
        with pytest.raises(ValueError):
            magnus_cdd_predict(a, a, 0.1, -1)

    @pytest.mark.parametrize("tau0", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_tau0(self, tau0):
        a = random_hermitian(3)
        with pytest.raises(ValueError, match=f"tau0 = {tau0}; durations must be finite and > 0"):
            magnus_cdd_predict(a, a, tau0, 1)
