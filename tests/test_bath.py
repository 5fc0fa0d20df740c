import json
import math

import numpy as np
import pytest

from ddforge.bath import (
    GAMMAS,
    BathOperators,
    ModelSpec,
    alpha,
    build_model,
    spec_from_dict,
    spec_from_json,
    spec_to_json,
    spectral_norm,
    total_hamiltonian,
)
from ddforge.evolution import eigensystem, frame_eigenvectors


def svd_norm(a):
    # Independent spectral-norm oracle: largest singular value.
    return np.linalg.svd(a, compute_uv=False)[0] if np.any(a) else 0.0


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec(seed=1)
        assert spec.d == 4
        assert spec.norm_targets == {g: 1.0 for g in GAMMAS}

    def test_pure_dephasing_forces_zero_transverse(self):
        spec = ModelSpec(seed=1, preset="pure_dephasing")
        assert spec.norm_targets["x"] == 0.0 and spec.norm_targets["y"] == 0.0
        with pytest.raises(ValueError):
            ModelSpec(seed=1, preset="pure_dephasing", norm_targets={"x": 0.5})

    def test_anisotropic_limit(self):
        spec = ModelSpec(seed=1, preset="anisotropic")
        assert spec.norm_targets["z"] <= 0.1 * min(spec.norm_targets["x"], spec.norm_targets["y"])
        with pytest.raises(ValueError):
            ModelSpec(seed=1, preset="anisotropic", norm_targets={"z": 0.5})

    def test_spin_bath_dimension(self):
        assert ModelSpec(d=8, seed=1, preset="spin_bath(3)").d == 8
        with pytest.raises(ValueError):
            ModelSpec(d=4, seed=1, preset="spin_bath(3)")

    def test_spin_bath_needs_a_spin(self):
        # spin_bath(0) drew all-zero operators, and scaling them to their targets divided by zero.
        with pytest.raises(ValueError, match=r"preset 'spin_bath\(0\)' has no bath spin"):
            ModelSpec(d=1, preset="spin_bath(0)")

    def test_rejects_unknown_preset_and_channel(self):
        with pytest.raises(ValueError):
            ModelSpec(seed=1, preset="thermal")
        with pytest.raises(ValueError):
            ModelSpec(seed=1, norm_targets={"w": 1.0})
        with pytest.raises(ValueError):
            ModelSpec(seed=1, norm_targets={"x": -1.0})


    @pytest.mark.parametrize("seed", [-1, 2.0, "7"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # A negative seed used to fail inside numpy's generator, naming neither the key nor the value.
        with pytest.raises(ValueError, match=rf"^model key 'seed' must be a non-negative integer, got {seed!r}$"):
            ModelSpec(seed=seed)

    @pytest.mark.parametrize("channel, value", [("x", math.nan), ("0", math.inf), ("z", -math.inf)],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_norm_target(self, channel, value):
        # NaN passed the old "value < 0" check and ended in a LinAlgError when the model was drawn.
        with pytest.raises(ValueError, match=rf"^norm target '{channel}' = {value!r}; norm targets must be finite"):
            ModelSpec(seed=1, norm_targets={channel: value})


class TestBuildModel:
    def test_norm_scaling(self):
        ops = build_model(ModelSpec(d=4, seed=11))
        for _, a in ops.items():
            assert svd_norm(a) == pytest.approx(1.0, abs=1e-10)

    def test_custom_targets(self):
        ops = build_model(ModelSpec(d=4, seed=11, norm_targets={"x": 0.25, "z": 2.0}))
        assert svd_norm(ops.ax) == pytest.approx(0.25, abs=1e-10)
        assert svd_norm(ops.az) == pytest.approx(2.0, abs=1e-10)

    def test_pure_dephasing_zeros(self):
        ops = build_model(ModelSpec(d=4, seed=11, preset="pure_dephasing"))
        assert not np.any(ops.ax) and not np.any(ops.ay)
        assert np.any(ops.az)

    def test_hermiticity(self):
        ops = build_model(ModelSpec(d=8, seed=3))
        for _, a in ops.items():
            assert np.abs(a - a.conj().T).max() < 1e-12

    def test_seed_determinism(self):
        spec = ModelSpec(d=4, seed=99)
        first, second = build_model(spec), build_model(spec)
        for (_, a), (_, b) in zip(first.items(), second.items()):
            assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = build_model(ModelSpec(d=4, seed=1)).a0
        b = build_model(ModelSpec(d=4, seed=2)).a0
        assert np.any(a != b)

    def test_spin_bath(self):
        ops = build_model(ModelSpec(d=4, seed=5, preset="spin_bath(2)"))
        assert ops.dim == 4
        for _, a in ops.items():
            assert svd_norm(a) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_model(ModelSpec(d=128, seed=1))

    def test_results_read_only(self):
        ops = build_model(ModelSpec(d=4, seed=1))
        with pytest.raises(ValueError):
            ops.a0[0, 0] = 1.0


class TestBathOperators:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            BathOperators(a0=eye, ax=bad, ay=eye.copy(), az=eye.copy())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BathOperators(
                a0=np.eye(2, dtype=complex),
                ax=np.eye(3, dtype=complex),
                ay=np.eye(2, dtype=complex),
                az=np.eye(2, dtype=complex),
            )


class TestEigensystem:
    def test_not_computed_by_build_model(self):
        ops = build_model(ModelSpec(d=4, seed=3))
        assert eigensystem not in ops._cache

    def test_matches_total_hamiltonian(self):
        ops = build_model(ModelSpec(d=4, seed=3))
        evals, evecs = eigensystem(ops)
        ref_evals, ref_evecs = np.linalg.eigh(total_hamiltonian(ops))
        assert np.array_equal(evals, ref_evals) and np.array_equal(evecs, ref_evecs)

    def test_read_only(self):
        evals, evecs = eigensystem(build_model(ModelSpec(d=4, seed=3)))
        with pytest.raises(ValueError):
            evals[0] = 0.0
        with pytest.raises(ValueError):
            evecs[0, 0] = 0.0

    def test_computed_once_per_model(self, monkeypatch):
        from ddforge.evolution import sequence_unitary
        from ddforge.sequences import cpmg, udd_sequence

        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        ops = build_model(ModelSpec(d=4, seed=3))
        other = build_model(ModelSpec(d=4, seed=4))
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for seq in (cpmg(0.1), udd_sequence(3, 0.1), udd_sequence(3, 0.2)):
            sequence_unitary(seq, ops)
        assert len(calls) == 1
        sequence_unitary(cpmg(0.1), other)
        assert len(calls) == 2
        assert eigensystem(ops) is eigensystem(ops)


class TestTotalHamiltonian:
    def test_identity_bath(self):
        d = 3
        zero = np.zeros((d, d), dtype=complex)
        ops = BathOperators(a0=np.eye(d, dtype=complex), ax=zero.copy(), ay=zero.copy(), az=zero.copy())
        assert np.allclose(total_hamiltonian(ops), np.eye(2 * d))

    def test_sigma_z_structure(self):
        zero = np.zeros((2, 2), dtype=complex)
        az = np.diag([1.0, -1.0]).astype(complex)
        ops = BathOperators(a0=zero.copy(), ax=zero.copy(), ay=zero.copy(), az=az)
        assert np.allclose(total_hamiltonian(ops), np.diag([1, -1, -1, 1]))

    def test_triangle_inequality(self):
        ops = build_model(ModelSpec(d=4, seed=21))
        total = sum(svd_norm(a) for _, a in ops.items())
        assert svd_norm(total_hamiltonian(ops)) <= total + 1e-10

    def test_hermitian(self):
        h = total_hamiltonian(build_model(ModelSpec(d=4, seed=2)))
        assert np.abs(h - h.conj().T).max() < 1e-12


class TestAlpha:
    def test_unit_targets(self):
        assert alpha(build_model(ModelSpec(d=4, seed=1))) == pytest.approx(1.0, abs=1e-10)

    def test_pure_bath(self):
        ops = build_model(ModelSpec(d=4, seed=1, norm_targets={"0": 2.0, "x": 0, "y": 0, "z": 0}))
        assert alpha(ops) == pytest.approx(2.0, abs=1e-10)

    def test_zero_model(self):
        ops = build_model(ModelSpec(d=4, seed=1, norm_targets={g: 0.0 for g in GAMMAS}))
        assert alpha(ops) == 0.0

    def test_kept_with_the_model(self):
        ops = build_model(ModelSpec(d=4, seed=1, norm_targets={"x": 0.5, "z": 3.0}))
        assert alpha not in ops._cache
        assert alpha(ops) == max(spectral_norm(a) for _, a in ops.items()) == pytest.approx(3.0, abs=1e-10)
        assert alpha in ops._cache


class TestKept:
    # bath.kept is the one memo rule: make runs once per (owner, args), and every call returns the kept object.
    class Owner:
        def __init__(self):
            self._cache = {}

    def test_make_runs_once_per_owner_and_args(self):
        from ddforge.bath import kept

        calls = []

        @kept
        def make(owner, *args):
            calls.append((owner, args))
            return object()

        a, b = self.Owner(), self.Owner()
        first, fourth = make(a), make(a, 4)
        assert make(a) is first and make(a, 4) is fourth and make(a, 5) is not fourth
        assert make(b) is not first
        assert calls == [(a, ()), (a, (4,)), (a, (5,)), (b, ())]
        assert a._cache.keys() == {make, (make, 4), (make, 5)} and b._cache.keys() == {make}

    def test_retimed_copies_share_entries(self):
        from ddforge.bath import kept
        from ddforge.sequences import build_sequence

        calls = []
        plan = kept(lambda seq, d: calls.append(d) or object())
        seq = build_sequence("cdd", 0.01, m=3)
        again = seq.with_duration(0.02)
        assert plan(again, 4) is plan(seq, 4) is not plan(seq, 8)
        assert calls == [4, 8]


class TestModelMemo:
    def test_equal_specs_give_one_model(self):
        spec = ModelSpec(d=4, seed=7, norm_targets={"x": 0.5, "z": 0.25})
        ops = build_model(spec)
        assert build_model(spec) is ops
        assert build_model(ModelSpec(d=4, seed=7, norm_targets={"z": 0.25, "x": 0.5})) is ops
        assert build_model(ModelSpec(d=4, seed=7, norm_targets={"x": 0.5, "z": 0.25, "0": 1})) is ops

    @pytest.mark.parametrize("other", [
        ModelSpec(d=8, seed=7, norm_targets={"x": 0.5, "z": 0.25}),
        ModelSpec(d=4, seed=8, norm_targets={"x": 0.5, "z": 0.25}),
        ModelSpec(d=4, seed=7, preset="anisotropic", norm_targets={"x": 0.5, "z": 0.025}),
        ModelSpec(d=4, seed=7, norm_targets={"x": 0.5, "z": 0.5}),
        ModelSpec(d=4, seed=True, norm_targets={"x": 0.5, "z": 0.25}),
    ], ids=["d", "seed", "preset", "targets", "seed-type"])
    def test_any_field_differing_gives_another(self, other):
        assert build_model(other) is not build_model(ModelSpec(d=4, seed=7, norm_targets={"x": 0.5, "z": 0.25}))

    def test_frame_eigenvectors_are_signed_rows(self):
        # Per Pauli code (I, X, Z, Y), F^+ V = F V for F = sigma (x) I_d and its conjugate, formed once per model.
        from ddforge.bath import CODE_AXIS, SIGMA

        ops = build_model(ModelSpec(d=4, seed=3))
        vectors, conjugates = frame_eigenvectors(ops)
        evecs = eigensystem(ops)[1]
        for code, axis in enumerate(CODE_AXIS):
            assert np.array_equal(vectors[code], np.kron(SIGMA[axis], np.eye(4)) @ evecs)
        assert np.array_equal(conjugates, vectors.conj())
        assert not vectors.flags.writeable and not conjugates.flags.writeable
        assert frame_eigenvectors(ops) is frame_eigenvectors(ops)

    def test_equals_a_fresh_draw(self):
        from ddforge import bath

        ops = build_model(ModelSpec(d=4, seed=7))
        eigensystem(ops)
        bath._model.cache_clear()
        fresh = build_model(ModelSpec(d=4, seed=7))
        assert fresh is not ops and eigensystem not in fresh._cache
        assert [a.tobytes() for _, a in fresh.items()] == [a.tobytes() for _, a in ops.items()]

    def test_failed_build_is_not_cached(self):
        from ddforge import bath

        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds the cap 64"):
                build_model(ModelSpec(d=128, seed=1))
        assert bath._model.cache_info().currsize == 0


class TestSpecJson:
    def test_round_trip(self):
        spec = ModelSpec(d=8, seed=42, preset="spin_bath(3)", norm_targets={"z": 0.5})
        back = spec_from_json(spec_to_json(spec))
        assert back == spec

    def test_layout(self):
        data = json.loads(spec_to_json(ModelSpec(d=4, seed=7)))
        assert list(data) == ["d", "seed", "preset", "norm_targets"]
        assert list(data["norm_targets"]) == ["0", "x", "y", "z"]

    @pytest.mark.parametrize("text, message", [
        ('{"seed": 2.9}', "model key 'seed' must be an integer, got 2.9"),
        ('{"d": 4.7}', "model key 'd' must be an integer, got 4.7"),
        ('{"d": true}', "model key 'd' must be an integer, got True"),
        ('{"d": "4"}', "model key 'd' must be an integer, got '4'"),
        ("[1, 2]", "model must hold a JSON object, not list"),
        ('{"norm_targets": {"x": "0.5"}}', "model norm_targets key 'x' must be a number, got '0.5'"),
        ('{"seed": 7, "dim": 8}', "unknown model key 'dim'; expected one of d, seed, preset, norm_targets"),
    ], ids=["float-seed", "float-d", "boolean-d", "string-d", "list", "string-target", "unknown-key"])
    def test_mistyped_json_is_rejected(self, text, message):
        # Read as is, these gave seed 2, d = 4, d = 1 and d = 4, or raised AttributeError or TypeError.
        with pytest.raises(ValueError) as exc:
            spec_from_json(text)
        assert str(exc.value) == message

    def test_integer_targets_and_missing_keys_are_read(self):
        assert spec_from_dict({"seed": 3, "norm_targets": {"x": 1}}) == ModelSpec(seed=3, norm_targets={"x": 1.0})

    def test_spectral_norm_matches_svd(self):
        ops = build_model(ModelSpec(d=6, seed=13, norm_targets={"x": 0.3}))
        for _, a in ops.items():
            assert spectral_norm(a) == pytest.approx(svd_norm(a), abs=1e-12)
