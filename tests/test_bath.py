import contextlib
import io
import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ddforge import cli
from ddforge.analysis import check_grid, count_compare, crossover
from ddforge.bath import (
    GAMMAS,
    BathOperators,
    ModelSpec,
    alpha,
    build_model,
    check_count,
    check_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_json,
    spectral_norm,
    total_hamiltonian,
)
from ddforge.effective import magnus_cdd_predict
from ddforge.evolution import eigensystem, frame_eigenvectors
from ddforge.sequences import (
    a_n,
    build_sequence,
    cdd_count_estimate,
    cdd_full,
    cdd_xx,
    cpmg_udd,
    cudd,
    cudd_count,
    icpmg,
    pdd,
    schedule_from_dict,
    udd2_approx,
    udd2_count,
    udd_instants,
    udd_sequence,
)


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
        with pytest.raises(ValueError, match=r"^spin_bath k must be a positive integer, got 0$"):
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
    ], ids=["d", "seed", "preset", "targets"])
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
        ('{"seed": 2.9}', "model key 'seed' must be a non-negative integer, got 2.9"),
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


def _cli(*argv, config=None, env=False):
    """A count site reached through ``cli.main``: call(value) runs argv, each "{}" replaced by the value.

    config(value) is written to c.json first, and env puts the value in DDFORGE_SEED.  A failed run must be a
    usage error with empty stdout, and raises its error line as a ValueError.
    """
    def call(value):
        if config is not None:
            Path("c.json").write_text(json.dumps(config(value)))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"DDFORGE_SEED": str(value)} if env else {}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(value) for a in argv])
        if code:
            assert (code, out.getvalue()) == (2, "")
            raise ValueError(err.getvalue().removeprefix("error: ").removesuffix("\n"))
    return call


# Every count site: how to reach it, the name its message gives, its least value, and the values it must refuse
# (None: least - 1, True and 2.5).  Options parsed as integers and counts read from a pattern are never a bool
# or a float there, and a pulse's den is typed by the schedule's key rule first.
COUNT_SITES = {
    "udd_instants": (udd_instants, "n", 0, None),
    "udd_sequence": (udd_sequence, "n", 1, None),
    "build_sequence": (lambda v: build_sequence("udd", n=v), "n", 1, None),
    "pdd": (pdd, "n", 1, None),
    "udd2_approx": (udd2_approx, "n", 1, None),
    "udd2_count": (udd2_count, "n", 1, None),
    "icpmg": (icpmg, "c", 1, None),
    "cdd_full": (cdd_full, "m", 0, None),
    "cdd_xx": (cdd_xx, "n", 0, None),
    "cudd-m": (lambda v: cudd(v, 0), "m", 1, None),
    "cudd-n": (lambda v: cudd(1, v), "n", 0, None),
    "cudd_count-m": (lambda v: cudd_count(v, 0), "m", 1, None),
    "cudd_count-n": (lambda v: cudd_count(1, v), "n", 0, None),
    "cpmg_udd-m": (lambda v: cpmg_udd(v, 1), "m", 1, None),
    "cpmg_udd-cycles": (lambda v: cpmg_udd(1, v), "c", 1, None),
    "a_n": (a_n, "n", 0, None),
    "cdd_count_estimate": (cdd_count_estimate, "m", 0, None),
    "den": (lambda v: schedule_from_dict({"total_duration": 1.0, "pulses": [{"axis": "X", "num": 0, "den": v}]}),
            "schedule pulse 0 key 'den'", 1, (0,)),
    "check_grid": (lambda v: check_grid(1e-3, 1e-2, v), "points", 4, None),
    "count_compare": (count_compare, "m_max", 1, None),
    "crossover": (crossover, "n_max", 1, None),
    "model-d": (lambda v: ModelSpec(d=v), "model key 'd'", 1, None),
    "model-seed": (lambda v: ModelSpec(seed=v), "model key 'seed'", 0, None),
    "spin_bath": (lambda v: ModelSpec(d=2**v, preset=f"spin_bath({v})"), "spin_bath k", 1, (0,)),
    "check_spec": (lambda v: check_spec({"seed": v}, "m.json"), "model key 'seed' in m.json", 0, None),
    "magnus_cdd_predict": (lambda v: magnus_cdd_predict(np.eye(2), np.eye(2), 0.1, v), "level", 0, None),
    "DDFORGE_SEED": (_cli("order", "none", "--points", "4", env=True), "DDFORGE_SEED", 0, ("-1", "True", "2.5")),
    "--seed": (_cli("order", "none", "--points", "4", "--seed", "{}"), "--seed", 0, (-1,)),
    "config-seed": (_cli("order", "none", "--points", "4", "--config", "c.json", config=lambda v: {"seed": v}),
                    "config key 'seed' in c.json", 0, None),
    "--seeds": (_cli("order", "none", "--points", "4", "--config", "c.json", config=lambda v: {"seeds": [v]}),
                "seeds[0]", 0, None),
    "--level": (_cli("predict-magnus", "--halvings", "0", "--level", "{}"), "--level", 0, (-1,)),
    "--halvings": (_cli("predict-magnus", "--halvings", "{}"), "--halvings", 0, (-1,)),
}


class TestCountRule:
    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_every_site_takes_its_least_and_names_the_rest(self, site, tmp_path, monkeypatch):
        # Each site had its own message, or none: bools passed (n=True built UDD-True), floats ended in a TypeError.
        call, name, least, refused = COUNT_SITES[site]
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DDFORGE_SEED", raising=False)
        try:
            call(least)
        except ValueError as err:  # past the count: crossover(1) finds no crossover
            assert str(err) == f"no crossover up to {name}={least}"
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        for value in (least - 1, True, 2.5) if refused is None else refused:
            with pytest.raises(ValueError) as err:
                call(value)
            assert str(err.value) == f"{name} must be {kind}, got {value!r}"

    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(3)], ids=["zero", "int", "int64", "uint8"])
    def test_integers_pass_as_given(self, value):
        assert check_count(value, "n") is value
