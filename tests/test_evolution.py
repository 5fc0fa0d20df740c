import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from _reference import expm_segment

from ddforge import evolution, highprec
from ddforge.analysis import default_t_grid, evaluate_scan
from ddforge.bath import SIGMA, BathOperators, ModelSpec, alpha, build_model, kept, total_hamiltonian
from ddforge.effective import FLOOR_UNIT, error_functionals, sequence_effective
from ddforge.evolution import (
    STACK_BYTES,
    UnitaryResult,
    _product,
    conjugate_frame,
    control_product,
    entanglement_fidelity,
    pulse_unitary,
    reduce_pairwise,
    reduction_plan,
    segment_count,
    sequence_deviation,
    sequence_unitary,
    stack_points,
)
from ddforge.sequences import (
    Blocks,
    PauliAxis,
    Pulse,
    PulseSequence,
    build_sequence,
    cdd_full,
    cpmg,
    cudd,
    schedule_from_json,
    schedule_to_json,
    spin_echo,
    udd_sequence,
)

RNG = np.random.default_rng(2024)
REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references"
# The simulate-deep points' bits, which a faster composition must keep: the key is "family,param=value,...@alpha t".
DEEP_BITS = json.loads((Path(__file__).resolve().parent / "golden" / "deep-bits.json").read_text())


def random_hermitian(d, scale=1.0):
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    a = (g + g.conj().T) / 2
    return a * (scale / np.abs(np.linalg.eigvalsh(a)).max())


def series_expm(h, dt, terms=30):
    # Independent oracle: truncated Taylor series of exp(-i h dt).
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * dt * h) / k
        out = out + term
    return out


def dephasing_model(seed=3, with_a0=False):
    d = 4
    zero = np.zeros((d, d), dtype=complex)
    az = random_hermitian(d)
    a0 = random_hermitian(d) if with_a0 else zero.copy()
    return BathOperators(a0=a0, ax=zero.copy(), ay=zero.copy(), az=az)


class TestExpmSegment:
    def test_zero_duration(self):
        h = random_hermitian(5)
        assert np.allclose(expm_segment(h, 0.0), np.eye(5))

    def test_diagonal_pi(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(expm_segment(h, math.pi), -np.eye(2), atol=1e-12)

    def test_matches_series(self):
        h = random_hermitian(6, scale=0.8)
        assert np.abs(expm_segment(h, 0.5) - series_expm(h, 0.5)).max() < 1e-12

    def test_semigroup(self):
        h = random_hermitian(6)
        u = expm_segment(h, 0.3)
        assert np.abs(u @ u - expm_segment(h, 0.6)).max() < 1e-11

    def test_unitarity(self):
        u = expm_segment(random_hermitian(8, scale=2.0), 1.3)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_segment(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestPulseUnitary:
    def test_involution(self):
        for axis in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z):
            u = pulse_unitary(axis, 3)
            assert np.allclose(u @ u, np.eye(6))

    def test_pauli_algebra(self):
        zx = pulse_unitary(PauliAxis.Z, 2) @ pulse_unitary(PauliAxis.X, 2)
        assert np.allclose(zx, 1j * np.kron(SIGMA["Y"], np.eye(2)))

    def test_commutes_with_bath_operator(self):
        b = random_hermitian(4)
        lifted = np.kron(np.eye(2), b)
        u = pulse_unitary(PauliAxis.X, 4)
        assert np.abs(u @ lifted - lifted @ u).max() < 1e-12

    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            pulse_unitary(PauliAxis.I, 2)


def dense_sequence_unitary(seq, ops):
    # Reference composition: a fresh eigendecomposition of H and every pulse
    # as a dense (sigma_a (x) I_d) matmul.
    evals, evecs = np.linalg.eigh(total_hamiltonian(ops))
    evecs_h = evecs.conj().T
    d = ops.dim
    u = np.eye(2 * d, dtype=complex)
    prev = 0.0
    for p in seq.pulses:
        frac = p.t_frac
        if frac > prev:
            dt = (frac - prev) * seq.total_duration
            u = (evecs * np.exp(-1j * evals * dt)) @ (evecs_h @ u)
        u = pulse_unitary(p.axis, d) @ u
        prev = frac
    if prev < 1.0:
        dt = (1.0 - prev) * seq.total_duration
        u = (evecs * np.exp(-1j * evals * dt)) @ (evecs_h @ u)
    return u


def controlled_reference(seq: PulseSequence, w: np.ndarray) -> np.ndarray:
    """U = (ctrl (x) I_d)(I + W) as a dense product."""
    d = w.shape[-1] // 2
    return np.kron(control_product(seq), np.eye(d)) @ (w + np.eye(2 * d))


def pauli_schedule(q: np.ndarray) -> PulseSequence:
    """The first schedule of up to four equally spaced pulses whose control product is q."""
    for n in range(5):
        for axes in itertools.product((PauliAxis.X, PauliAxis.Y, PauliAxis.Z), repeat=n):
            seq = PulseSequence(0.05, tuple(Pulse(Fraction(k + 1, n + 1), axis) for k, axis in enumerate(axes)))
            if np.array_equal(control_product(seq), q):
                return seq
    raise AssertionError(f"no schedule of up to four pulses has control product {q}")


class TestRowOperations:
    # sequence_unitary applies the control product to I + W as exact signed rows;
    # every row holds exactly the values of the dense product.
    @pytest.mark.parametrize("d", [1, 3, 4])
    @pytest.mark.parametrize("axis", [PauliAxis.X, PauliAxis.Y, PauliAxis.Z])
    def test_pulse_equals_dense_product(self, axis, d):
        seq = spin_echo(0.05, axis)
        result = sequence_unitary(seq, build_model(ModelSpec(d=d, seed=3)))
        assert np.array_equal(np.kron(control_product(seq), np.eye(d)), pulse_unitary(axis, d))
        assert np.array_equal(result.u, controlled_reference(seq, result.w))

    @pytest.mark.parametrize("phase", [1, -1, 1j, -1j])
    @pytest.mark.parametrize("pauli", ["I", "X", "Y", "Z"])
    def test_phased_pauli_equals_dense_product(self, pauli, phase):
        # Every code and every phase i^p of the control product.
        seq = pauli_schedule(phase * SIGMA[pauli])
        for spec in (ModelSpec(d=3, seed=4), ModelSpec(d=2, seed=4, preset="pure_dephasing")):
            result = sequence_unitary(seq, build_model(spec))
            assert np.array_equal(result.u, controlled_reference(seq, result.w))

    def test_control_frame_removal_is_exact(self):
        ops = build_model(ModelSpec(d=4, seed=5))
        seq = cudd(2, 2, 0.1)
        result = sequence_unitary(seq, ops)
        ctrl = np.kron(control_product(seq), np.eye(4))
        assert np.array_equal(ctrl.conj().T @ result.u, result.w + np.eye(8))


class TestCompositionExactness:
    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("seq", [udd_sequence(3, 0.01), cudd(2, 2, 0.01), cdd_full(3, 0.01)],
                             ids=["UDD-3", "CUDD(2,2)", "CDD-3"])
    def test_agrees_with_dense_reference(self, seq, d):
        # The pairwise product rounds in another order than the dense loop;
        # both stay within a few ulps per segment of the exact product.
        ops = build_model(ModelSpec(d=d, seed=7))
        segments = segment_count(seq)
        diff = np.abs(sequence_unitary(seq, ops).u - dense_sequence_unitary(seq, ops)).max()
        assert diff <= 16 * segments * np.finfo(float).eps

    def test_udd4_flip_matches_reference(self):
        # The dense loop forms U and logs U - I, whose floor is eps absolute:
        # it reads this 4.5e-18 coupling about 7e5 times too large.  The
        # toggling-frame deviation keeps it to a few parts in 1e3.
        spec = ModelSpec(d=4, seed=7)
        ops = build_model(spec)
        seq = udd_sequence(4, 1e-3 / alpha(ops))
        refs = json.loads((REFERENCES / "order.json").read_text())["points"]
        want = refs["udd(n=4)|generic|d4|seed7|at=1e-03"]["E_flip"]
        assert error_functionals(sequence_effective(seq, ops))["E_flip"] == pytest.approx(want, rel=5e-2)

    def test_repeat_calls_share_one_eigensystem(self):
        ops = build_model(ModelSpec(d=4, seed=7))
        first = sequence_unitary(cdd_full(2, 0.01), ops).u
        assert sequence_unitary(cdd_full(2, 0.01), ops).u.tobytes() == first.tobytes()


GRID = np.geomspace(1e-3, 1e-2, 8)


class TestDeepSchedules:
    @pytest.mark.parametrize("name, params", [("cdd", {"m": 7}), ("udd2", {"n": 11})], ids=["CDD-7", "UDD2-11"])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_fidelity_matches_reference(self, name, params, seed):
        # Against mpmath at 30 digits, within the benchmark's 16 ulps per pulse.
        ops = build_model(ModelSpec(d=4, seed=seed))
        refs = json.loads((REFERENCES / "deep.json").read_text())["points"]
        label = f"{name}({','.join(f'{k}={v}' for k, v in params.items())})"
        for at in (1e-2, 1e-1):
            seq = build_sequence(name, at / alpha(ops), **params)
            fe = entanglement_fidelity(sequence_unitary(seq, ops))
            want = refs[f"{label}|generic|d4|seed{seed}|at={at:.0e}"]["F_e"]
            assert abs(fe - want) <= 16 * seq.pulse_count * np.finfo(float).eps

    @pytest.mark.parametrize("key", sorted(DEEP_BITS))
    def test_bits_match_golden(self, key):
        # The simulate-deep families at seed 7: pulse count, F_e as float.hex and the sha256 of U's bytes.
        ops = build_model(ModelSpec(d=4, seed=7))
        family, at = key.split("@")
        name, *params = family.split(",")
        seq = build_sequence(name, float(at) / alpha(ops), **{k: int(v) for k, v in (p.split("=") for p in params)})
        u = sequence_unitary(seq, ops)
        got = {"pulses": seq.pulse_count, "fe": entanglement_fidelity(u).hex(),
               "u_sha256": hashlib.sha256(u.u.tobytes()).hexdigest()}
        assert got == DEEP_BITS[key]

    def test_retimed_copy_forms_no_control_constants(self, monkeypatch):
        # ctrl's rows and row factors are kept with the schedule per d, and I per size: a second point on a
        # re-timed copy reads them and forms neither again, nor an identity matrix.
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = build_sequence("cdd", 0.01, m=7)
        first = sequence_unitary(seq, ops)
        kept = seq._cache[evolution._control_rows, 4]

        def refuse(*args, **kwargs):
            raise AssertionError("formed a control constant again")

        for name in ("control_product", "_control"):
            monkeypatch.setattr(evolution, name, refuse)
        for name in ("eye", "repeat"):
            monkeypatch.setattr(np, name, refuse)
        again = seq.with_duration(0.02)
        second = sequence_unitary(again, ops)
        monkeypatch.undo()
        assert again._cache is seq._cache and seq._cache[evolution._control_rows, 4] is kept
        assert second.u.tobytes() == sequence_unitary(cdd_full(7, 0.02), ops).u.tobytes()
        assert first.u.tobytes() != second.u.tobytes()


class TestKeptConstants:
    def test_every_key_names_the_kept_function_that_formed_it(self):
        # After a CDD-7 double scan (by blocks) and an extended CUDD(2,2) scan (flat), every key of a schedule's,
        # a plan's, a block level's and the model's _cache is a bath.kept function, or a tuple that starts with one.
        kept_code = kept(lambda owner: None).__code__

        def is_kept(key):
            return getattr(key[0] if isinstance(key, tuple) else key, "__code__", None) is kept_code

        spec = ModelSpec(d=4, seed=7)
        ops = build_model(spec)
        grid = default_t_grid(alpha(ops), points=4)
        owners = [ops]
        for (name, params), precision in ((("cdd", {"m": 7}), "double"), (("cudd", {"m": 2, "n": 2}), "extended")):
            evaluate_scan({"name": name, **params}, spec, grid, precision=precision)
            node = build_sequence(name, **params)
            owners.append(node)
            node = node.blocks or node
            while isinstance(node, Blocks):
                owners.append(node)
                node = node.child
            owners.append(node)
        owners += [value for owner in owners for value in owner._cache.values()
                   if isinstance(value, evolution.SegmentPlan)]
        # CDD-7's seven levels come after the model and the schedule.
        assert all(isinstance(level, Blocks) and (evolution._level, 4) in level._cache for level in owners[2:9])
        assert not isinstance(owners[9], Blocks)
        assert sum(isinstance(owner, evolution.SegmentPlan) for owner in owners) == 2
        assert highprec._scale in ops._cache and evolution.eigensystem in ops._cache
        assert [key for owner in owners for key in owner._cache if not is_kept(key)] == []


class TestStackedComposition:
    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("seq", [udd_sequence(3, 0.01), cudd(2, 2, 0.01), cdd_full(3, 0.01)],
                             ids=["UDD-3", "CUDD(2,2)", "CDD-3"])
    def test_items_bit_equal_to_single_compositions(self, seq, d):
        ops = build_model(ModelSpec(d=d, seed=7))
        stack, errors = sequence_deviation(seq, ops, GRID)
        assert stack.shape == (len(GRID), 2 * d, 2 * d)
        assert not stack.flags.writeable
        assert errors == [None] * len(GRID)
        for item, t in zip(stack, GRID):
            single = sequence_unitary(seq.with_duration(t), ops)
            assert item.tobytes() == single.w.tobytes()
            assert np.array_equal(controlled_reference(seq, item), single.u)

    def test_failed_item_is_recorded_not_raised(self):
        # A scaled eigenvector basis makes every segment factor non-unitary, by
        # more at longer durations: all items fail, or only the middle one.
        # Each item carries the error its own composition raises, or the W it
        # gives; a stack builds its list of errors only when some item fails.
        # The basis is written into private copies, not into the model
        # build_model shares.
        seq = udd_sequence(2, 0.01)
        for scale, durations, failed in ((1.001, GRID[:3], [0, 1, 2]), (1 + 1e-8, [1e-3, 1e-1, 2e-3], [1])):
            ops = dataclasses.replace(build_model(ModelSpec(d=4, seed=7)))
            evals, evecs = evolution.eigensystem(ops)
            ops._cache[evolution.eigensystem] = (evals, evecs * scale)
            stack, errors = sequence_deviation(seq, ops, durations)
            assert [g for g, error in enumerate(errors) if error is not None] == failed
            for item, error, t in zip(stack, errors, durations):
                if error is None:
                    assert item.tobytes() == sequence_unitary(seq.with_duration(t), ops).w.tobytes()
                    continue
                with pytest.raises(ValueError) as single:
                    sequence_unitary(seq.with_duration(t), ops)
                assert type(error) is ValueError and str(error) == str(single.value)

    @pytest.mark.parametrize("segments", [255, 256, 257, 513])
    def test_items_bit_equal_across_chunk_edges(self, segments):
        # At d = 4 the pairwise reduction takes 256-segment chunks; cycling
        # the axes runs every frame and phase across the chunk edges.
        ops = build_model(ModelSpec(d=4, seed=7))
        axes = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)
        seq = PulseSequence(0.01, tuple(Pulse(Fraction(k, segments), axes[k % 3]) for k in range(1, segments)))
        assert stack_points(4) == 256 and segment_count(seq) == segments
        stack, errors = sequence_deviation(seq, ops, GRID)
        assert errors == [None] * len(GRID)
        for item, t in zip(stack, GRID):
            single = sequence_unitary(seq.with_duration(t), ops).w
            assert item.tobytes() == single.tobytes()
        dense = dense_sequence_unitary(seq.with_duration(GRID[-1]), ops)
        u = controlled_reference(seq, stack[-1])
        assert np.abs(u - dense).max() <= 16 * segments * np.finfo(float).eps

    def test_stack_size_rule(self):
        assert stack_points(4) >= 8  # a whole default grid in one stack
        assert stack_points(64) == 1
        for d in range(1, 65):
            n = 2 * d
            assert stack_points(d) == 1 or stack_points(d) * 16 * n * n <= STACK_BYTES


def pairwise_reference(leaves: np.ndarray, chunk: int) -> np.ndarray:
    """The reduction without memoisation: each chunk of (G, L, n, n) leaves pairwise, then the roots in time order."""
    w = None
    for s in range(0, leaves.shape[1], chunk):
        f = leaves[:, s:s + chunk]
        while f.shape[1] > 1:
            m = f.shape[1] // 2
            later, earlier = f[:, 1:2 * m:2], f[:, 0:2 * m:2]
            paired = later + earlier + later @ earlier
            f = np.concatenate([paired, f[:, 2 * m:]], axis=1) if f.shape[1] % 2 else paired
        w = f[:, 0] if w is None else f[:, 0] + w + f[:, 0] @ w
    return w


def plan_products(plan) -> int:
    """Products a reduction by the plan forms: each level's distinct pairs, then the fold of the chunk roots."""
    levels, roots, _ = plan
    return sum(m for _, m in levels) + len(roots) - 1


class TestMemoisedReduction:
    @pytest.mark.parametrize("grid", [1, 8])
    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 513, 1000])
    def test_bit_equal_to_plain_reduction(self, length, d, grid):
        # Few distinct leaves, so that pairs repeat within and across chunks;
        # blocks of 3 and of half a chunk split the levels' products.
        rng = np.random.default_rng(length * d + grid)
        n, chunk = 2 * d, stack_points(d)
        assert chunk == {4: 256, 16: 16}[d]
        table = 0.05 * (rng.normal(size=(grid, 6, n, n)) + 1j * rng.normal(size=(grid, 6, n, n)))
        ids = rng.integers(0, 6, size=length)
        plan = reduction_plan(ids.astype(np.int64).tobytes(), chunk)
        want = pairwise_reference(table[:, ids], chunk).tobytes()
        for block in (3, chunk // 2):
            assert reduce_pairwise(plan, table.swapaxes(0, 1), _product, block).tobytes() == want
        assert plan_products(plan) <= length - 1

    @pytest.mark.parametrize("seq", [udd_sequence(3, 0.01), cudd(2, 2, 0.01)], ids=["flat", "blocks"])
    def test_trees_kept_with_plan_and_nodes(self, monkeypatch, seq):
        # Once a schedule has composed, neither engine forms a reduction tree for it or its
        # re-timed copies again: the leaf's is kept with its plan, each level's with its node.
        ops = build_model(ModelSpec(d=4, seed=7))
        first, (hi, lo) = sequence_deviation(seq, ops, GRID)[0], highprec._compose(seq, ops, [0.01])[0]

        def no_tree(*args):
            raise AssertionError("formed a reduction tree again")

        monkeypatch.setattr(evolution, "reduction_plan", no_tree)
        again = seq.with_duration(0.02)
        assert sequence_deviation(again, ops, GRID)[0].tobytes() == first.tobytes()
        (hi_again, lo_again), _ = highprec._compose(again, ops, [0.01])
        assert hi_again.tobytes() == hi.tobytes() and lo_again.tobytes() == lo.tobytes()

    @pytest.mark.parametrize("name, params, most", [("cdd", {"m": 7}, 800), ("udd2", {"n": 11}, 3400)],
                             ids=["CDD-7", "UDD2-11"])
    def test_deep_plans_form_few_products(self, name, params, most):
        # 15,291 and 19,019 products without memoisation; counts, not times, so
        # that losing the memoisation fails here rather than only in a benchmark.
        pairs = evolution._segment_plan(build_sequence(name, 1.0, **params)).pairs
        assert plan_products(reduction_plan(pairs.astype(np.int64).tobytes(), 256)) <= most

    @pytest.mark.parametrize("name, params, most", [("cdd", {"m": 7}, 800), ("cudd", {"m": 3, "n": 3}, 25)],
                             ids=["CDD-7", "CUDD(3,3)"])
    def test_extended_plans_form_few_products(self, monkeypatch, name, params, most):
        # The extended engine keys its leaves on (exact gap, frame) too: F^+ E F
        # does not depend on the phase of F.  Keyed on the phase as well, CDD-7
        # formed 1,206 products and CUDD(3,3) 29.  Without its blocks CDD-7 is
        # composed segment by segment, as JSON input would be.
        plans = []

        def recording_plan(*args):
            plans.append(reduction_plan(*args))
            return plans[-1]

        monkeypatch.setattr(evolution, "reduction_plan", recording_plan)
        seq = structureless(build_sequence(name, 0.01, **params))
        highprec._compose(seq, build_model(ModelSpec(d=4, seed=7)), [0.01])
        assert len(plans) == 1 and plan_products(plans[0]) <= most


def structureless(seq: PulseSequence) -> PulseSequence:
    """The same pulses with no recorded blocks, so that every engine composes them segment by segment."""
    return PulseSequence(seq.total_duration, seq._arrays, seq.label, dict(seq.family))


@pytest.fixture
def extended_by_blocks(monkeypatch):
    """The extended engine composes every schedule with recorded blocks by them, as the double engine does."""
    monkeypatch.setattr(highprec, "_composed", lambda seq, d: seq if seq.blocks is None else seq.blocks)


def block_leaf(seq: PulseSequence) -> PulseSequence:
    """The flat leaf schedule at the bottom of a schedule's recorded blocks."""
    node = seq.blocks
    while isinstance(node, Blocks):
        node = node.child
    return node


def double_floor(seq: PulseSequence, w: np.ndarray) -> np.ndarray:
    """The double floor FLOOR_UNIT |M| ceil(log2 segments) per item, with |W| (spectral) for |M|."""
    return FLOOR_UNIT * max(1, (segment_count(seq) - 1).bit_length()) * np.linalg.norm(w, ord=2, axis=(-2, -1))


def family_id(name, params):
    return f"{name}({','.join(f'{k}={v}' for k, v in params.items())})"


BLOCK_FAMILIES = (
    [("cdd", {"m": m}) for m in range(1, 8)]
    + [("cddxx", {"n": n}) for n in range(1, 9)]
    + [("cudd", {"m": m, "n": n}) for m in (1, 2, 3, 4) for n in (1, 3, 5, 8)]
    + [("cpmg-udd", {"m": m, "c": c}) for m in (1, 2, 3) for c in (1, 2, 16, 64)]
    + [("udd2", {"n": n}) for n in range(1, 12)]
)
# The extended segment path takes about 3 s over the long members, so the
# extended check leaves out those with more than 1,100 pulses.
EXTENDED_BLOCK_FAMILIES = [(name, params) for name, params in BLOCK_FAMILIES
                           if build_sequence(name, 1.0, **params).pulse_count <= 1100]
WIDE_BLOCK_FAMILIES = [(16, "cdd", {"m": 3}), (16, "cudd", {"m": 3, "n": 3}), (16, "udd2", {"n": 2}),
                       (16, "cpmg-udd", {"m": 2, "c": 4}), (64, "cdd", {"m": 2}), (64, "cudd", {"m": 2, "n": 2}),
                       (64, "udd2", {"n": 2}), (64, "cpmg-udd", {"m": 2, "c": 2})]
DEEP_GRID = (1e-2, 1e-1)
# Blocked schedules of default ``order`` traffic, each within one d = 4 chunk of segments.
SHORT_BLOCK_FAMILIES = [("cdd", {"m": 3}), ("cdd", {"m": 4}), ("cudd", {"m": 2, "n": 2}), ("udd2", {"n": 3}),
                        ("cpmg-udd", {"m": 2, "c": 2})]

# sha256 of sequence_deviation's W stack at d = 4, seed 7, on GRID: schedules that lost
# their blocks compose segment by segment, bit for bit as before blocks were recorded.
# UDD2-4 from JSON (its X pulses exact multiples of 1/125) composes the float of each exact
# gap, not a difference of rounded instants: W moved by at most 0.031 FLOOR_UNIT |W|.
STRUCTURELESS_DIGESTS = [
    ("cdd", {"m": 5}, "json", "e23545379b038fefdfa79f2ecace5770ef352c8debae71efe314a1f29af2aecd"),
    ("cdd", {"m": 5}, "X", "3b3eba0518f7cffcf40fc34217add029da976de257688af3308a048b232bfd82"),
    ("udd2", {"n": 4}, "json", "1f9bc5ddf5975e9432fd19806865fbd469c5af16e744984d6b9f84d188061f6b"),
    ("udd2", {"n": 4}, "Z", "96887c5972f10d827ae7a29b314ed357f0066d5a6a87033d76471930e074eff0"),
]


class TestBlockComposition:
    @pytest.mark.parametrize("name, params", BLOCK_FAMILIES, ids=[family_id(*f) for f in BLOCK_FAMILIES])
    def test_double_w_matches_segment_path(self, name, params):
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = build_sequence(name, 1.0, **params)
        assert seq.blocks is not None
        durations = [at / alpha(ops) for at in DEEP_GRID]
        w, _ = sequence_deviation(seq, ops, durations)
        flat, _ = sequence_deviation(structureless(seq), ops, durations)
        assert (np.abs(w - flat).max(axis=(-2, -1)) <= double_floor(seq, flat)).all()

    @pytest.mark.parametrize("name, params", EXTENDED_BLOCK_FAMILIES,
                             ids=[family_id(*f) for f in EXTENDED_BLOCK_FAMILIES])
    def test_extended_w_matches_segment_path(self, extended_by_blocks, name, params):
        # Within the double floor: with float instants the segment path re-rounds the
        # parent's instants and the block path scales the leaf's exactly (up to 1.8e-14 apart).
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = build_sequence(name, 1.0, **params)
        durations = [at / alpha(ops) for at in DEEP_GRID]
        (hi, lo), _ = highprec._compose(seq, ops, durations)
        (flat_hi, flat_lo), _ = highprec._compose(structureless(seq), ops, durations)
        diff = np.abs((hi - flat_hi) + (lo - flat_lo)).max(axis=(-2, -1))
        assert (diff <= double_floor(seq, flat_hi)).all()

    @pytest.mark.parametrize("levels, base, want", [(3, cudd(2, 2), 5), (2, cdd_full(2), 4), (0, cudd(3, 2), 2)],
                             ids=["CDD-3(CUDD(2,2))", "CDD-2(CDD-2)", "CDD-0(CUDD(3,2))"])
    def test_concatenation_over_a_structured_base_chains_its_blocks(self, levels, base, want):
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = cdd_full(levels, 0.01, base=base)
        node, depth = seq.blocks, 0
        while isinstance(node, Blocks):
            node, depth = node.child, depth + 1
        assert depth == want and node.blocks is None
        w, _ = sequence_deviation(seq, ops, GRID)
        flat, _ = sequence_deviation(structureless(seq), ops, GRID)
        assert (np.abs(w - flat).max(axis=(-2, -1)) <= double_floor(seq, flat)).all()

    @pytest.mark.parametrize("d, name, params", WIDE_BLOCK_FAMILIES,
                             ids=[f"d{d}-{family_id(n, p)}" for d, n, p in WIDE_BLOCK_FAMILIES])
    def test_wide_baths_take_the_block_path(self, monkeypatch, d, name, params):
        # A structured schedule composes by its blocks unforced, in the extended engine
        # above stack_points(d) segments (16 at d = 16, 1 at d = 64); both engines at d = 16.
        ops = build_model(ModelSpec(d=d, seed=7))
        seq = build_sequence(name, 1.0, **params)
        durations = [at / alpha(ops) for at in DEEP_GRID]
        leaves = []
        plan = evolution._segment_plan

        def recording(flat):
            leaves.append(flat)
            return plan(flat)

        monkeypatch.setattr(evolution, "_segment_plan", recording)
        w, errors = sequence_deviation(seq, ops, durations)
        assert errors == [None, None] and len(leaves) == 1 and leaves[0].blocks is None
        flat, _ = sequence_deviation(structureless(seq), ops, durations)
        assert (np.abs(w - flat).max(axis=(-2, -1)) <= double_floor(seq, flat)).all()
        if d == 16:
            (hi, lo), _ = highprec._compose(seq, ops, durations)
            (flat_hi, flat_lo), _ = highprec._compose(structureless(seq), ops, durations)
            assert (np.abs((hi - flat_hi) + (lo - flat_lo)).max(axis=(-2, -1)) <= double_floor(seq, flat_hi)).all()

    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("name, params", SHORT_BLOCK_FAMILIES, ids=[family_id(*f) for f in SHORT_BLOCK_FAMILIES])
    def test_double_short_schedules_compose_by_blocks(self, monkeypatch, d, name, params):
        # However few its segments, a schedule with blocks composes from its leaf, and its W
        # stays within the double floor of the same pulses composed segment by segment.
        ops = build_model(ModelSpec(d=d, seed=7))
        seq = build_sequence(name, 1.0, **params)
        assert segment_count(seq) <= stack_points(4)
        durations = [at / alpha(ops) for at in (1e-3, 1e-2)]
        leaves, plan = [], evolution._segment_plan
        monkeypatch.setattr(evolution, "_segment_plan", lambda flat: leaves.append(flat) or plan(flat))
        w, errors = sequence_deviation(seq, ops, durations)
        assert errors == [None, None] and leaves == [block_leaf(seq)]
        flat, _ = sequence_deviation(structureless(seq), ops, durations)
        assert (np.abs(w - flat).max(axis=(-2, -1)) <= double_floor(seq, flat)).all()

    @pytest.mark.parametrize("name, params", SHORT_BLOCK_FAMILIES, ids=[family_id(*f) for f in SHORT_BLOCK_FAMILIES])
    def test_extended_short_schedules_keep_the_flat_pulses(self, name, params):
        # Up to one chunk (256 segments at d = 4) the extended engine composes the flat pulses,
        # bit for bit as without blocks, so its references keep their bits (ROADMAP.md item 2).
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = build_sequence(name, 1.0, **params)
        assert seq.blocks is not None and segment_count(seq) <= stack_points(4)
        durations = [at / alpha(ops) for at in (1e-3, 1e-2)]
        (hi, lo), _ = highprec._compose(seq, ops, durations)
        (flat_hi, flat_lo), _ = highprec._compose(structureless(seq), ops, durations)
        assert hi.tobytes() == flat_hi.tobytes() and lo.tobytes() == flat_lo.tobytes()

    @pytest.mark.parametrize("name, params", BLOCK_FAMILIES, ids=[family_id(*f) for f in BLOCK_FAMILIES])
    def test_control_product_bit_identical(self, name, params):
        seq = build_sequence(name, 1.0, **params)
        assert control_product(seq).tobytes() == control_product(structureless(seq)).tobytes()

    @pytest.mark.parametrize("name, params, how, digest", STRUCTURELESS_DIGESTS,
                             ids=[f"{family_id(n, p)}-{how}" for n, p, how, _ in STRUCTURELESS_DIGESTS])
    def test_filtered_and_json_schedules_carry_no_blocks(self, name, params, how, digest):
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = build_sequence(name, 1.0, **params)
        assert seq.blocks is not None and seq.with_duration(2.0).blocks is seq.blocks
        derived = schedule_from_json(schedule_to_json(seq)) if how == "json" else seq.filter_axis(PauliAxis(how))
        assert derived.blocks is None
        if how == "json":
            assert control_product(derived).tobytes() == control_product(seq).tobytes()
        assert hashlib.sha256(sequence_deviation(derived, ops, GRID)[0].tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name, params, most", [("cdd", {"m": 7}, 3 * 7), ("udd2", {"n": 11}, 65)],
                             ids=["CDD-7", "UDD2-11"])
    def test_block_path_product_count(self, monkeypatch, name, params, most):
        # Counts, not times.  The segment path formed 773 products for CDD-7 and 3,370
        # (double) or 3,377 (extended) for UDD2-11.  CDD-7's leaf is one free segment
        # and takes none, each of its seven levels 3; UDD2-11 takes 65, its leaf UDD-11
        # and the memoised tree over its 1,728 cells.
        ops = build_model(ModelSpec(d=4, seed=7))
        seq = build_sequence(name, 0.01, **params)
        counts = {}

        def counting(engine, product, parts):
            def wrapped(later, earlier, out):
                counts[engine] = counts.get(engine, 0) + math.prod(later.shape[:-2]) // parts
                return product(later, earlier, out)
            return wrapped

        monkeypatch.setattr(evolution, "_product", counting("double", evolution._product, 1))
        monkeypatch.setattr(highprec, "_product", counting("extended", highprec._product, 2))
        sequence_deviation(seq, ops, [0.01])
        highprec._compose(seq, ops, [0.01])
        assert counts["double"] == counts["extended"] <= most


def sequential_reference(seq: PulseSequence, ops: BathOperators, t: float) -> np.ndarray:
    """W <- E + W + E W segment by segment: one factor per distinct gap, each segment's frame by conjugate_frame."""
    evals, evecs = evolution.eigensystem(ops)
    gaps = np.diff(np.concatenate(([0.0], seq.instants, [1.0])))
    frames = np.concatenate(([0], np.bitwise_xor.accumulate(seq.codes)))
    factors, w = {}, None
    for gap, frame in zip(gaps.tolist(), frames.tolist()):
        if gap == 0:
            continue
        if gap not in factors:
            factors[gap] = (evecs * np.expm1(-1j * np.array([t * gap])[:, None] * evals)) @ evecs.conj().T
        e = conjugate_frame(factors[gap], frame)
        w = e if w is None else e + w + e @ w
    return w


class TestSequentialEquivalence:
    # At d = 64 a chunk is one segment, so the reduction by plan is the sequential update;
    # (E W) + (E + W) differs from (E + W) + E W by one commutative addition only.
    @pytest.mark.parametrize("at", [1e-3, 1e-2])
    @pytest.mark.parametrize("seq", [udd_sequence(1), udd_sequence(2), udd_sequence(3),
                                     schedule_from_json(schedule_to_json(cdd_full(2)))],
                             ids=["UDD-1", "UDD-2", "UDD-3", "CDD-2-json"])
    def test_d64_deviation_is_bit_equal_to_sequential_update(self, seq, at):
        ops = build_model(ModelSpec(d=64, seed=7))
        t = at / alpha(ops)
        assert stack_points(64) == 1 and seq.blocks is None
        w, errors = sequence_deviation(seq, ops, [t])
        assert errors == [None]
        assert w[0].tobytes() == sequential_reference(seq, ops, t).tobytes()

    @pytest.mark.parametrize("at", [1e-3, 1e-2])
    @pytest.mark.parametrize("seq", [cudd(2, 2), build_sequence("udd2", 1.0, n=2)], ids=["CUDD(2,2)", "UDD2-2"])
    def test_d64_structured_leaf_is_bit_equal_to_sequential_update(self, monkeypatch, seq, at):
        ops = build_model(ModelSpec(d=64, seed=7))
        t = at / alpha(ops)
        results, reduce = [], evolution.reduce_pairwise
        monkeypatch.setattr(evolution, "reduce_pairwise", lambda *args: results.append(reduce(*args)) or results[-1])
        sequence_deviation(seq, ops, [t])
        node, copies = seq.blocks, 1
        while isinstance(node, Blocks):
            node, copies = node.child, copies * len(node.frames)
        assert copies > 1 and len(results) > 1 and segment_count(node) > 1
        assert results[0][0].tobytes() == sequential_reference(node, ops, t / copies).tobytes()


class TestSequenceUnitary:
    def test_empty_schedule_is_free_evolution(self):
        ops = build_model(ModelSpec(d=4, seed=5))
        t = 0.37
        seq = PulseSequence(t, ())
        res = sequence_unitary(seq, ops)
        assert np.abs(res.u - expm_segment(total_hamiltonian(ops), t)).max() < 1e-12
        assert res.pulse_count == 0 and res.total_duration == t

    def test_echo_on_static_dephasing(self):
        # X echo with H = sigma_z x A_z: the two halves cancel exactly and
        # only the bare pulse remains, so the sigma_z block of U vanishes.
        ops = dephasing_model()
        res = sequence_unitary(spin_echo(1.0, PauliAxis.X), ops)
        d = ops.dim
        assert np.abs(res.u - np.kron(SIGMA["X"], np.eye(d))).max() < 1e-12
        sigma_z_block = (res.u[:d, :d] - res.u[d:, d:]) / 2
        assert np.abs(sigma_z_block).max() < 1e-12

    def test_echo_effective_generator_has_no_dephasing(self):
        from ddforge.effective import sequence_effective

        ops = dephasing_model()
        eff = sequence_effective(spin_echo(1.0, PauliAxis.X), ops)
        assert np.abs(eff.az).max() < 1e-12

    def test_cpmg_refocuses_static_dephasing(self):
        ops = dephasing_model()
        res = sequence_unitary(cpmg(1.0, PauliAxis.X), ops)
        assert entanglement_fidelity(res) == pytest.approx(1.0, abs=1e-10)

    def test_reversal_identity(self):
        # Echo run under H composed with the echo run under -H is the identity.
        ops = dephasing_model(with_a0=True)
        flipped = BathOperators(a0=-ops.a0, ax=-ops.ax, ay=-ops.ay, az=-ops.az)
        seq = spin_echo(0.7, PauliAxis.X)
        forward = sequence_unitary(seq, ops).u
        backward = sequence_unitary(seq, flipped).u
        assert np.abs(backward @ forward - np.eye(2 * ops.dim)).max() < 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unitarity_random_models(self, seed):
        ops = build_model(ModelSpec(d=4, seed=seed))
        res = sequence_unitary(udd_sequence(4, 0.5), ops)
        assert np.abs(res.u.conj().T @ res.u - np.eye(8)).max() < 1e-10

    def test_boundary_pulse_skips_zero_segment(self):
        from ddforge.sequences import Pulse

        ops = build_model(ModelSpec(d=4, seed=5))
        seq = PulseSequence(0.2, (Pulse(0.0, PauliAxis.X),))
        res = sequence_unitary(seq, ops)
        expected = expm_segment(total_hamiltonian(ops), 0.2) @ pulse_unitary(PauliAxis.X, 4)
        assert np.abs(res.u - expected).max() < 1e-12


class TestUnitaryResultType:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryResult(u=np.ones((4, 4), dtype=complex), total_duration=1.0, pulse_count=0)

    def test_result_is_read_only(self):
        ops = build_model(ModelSpec(d=4, seed=5))
        res = sequence_unitary(cpmg(0.1), ops)
        with pytest.raises(ValueError):
            res.u[0, 0] = 0.0

    def test_sequence_unitary_checks_unitarity_once(self, monkeypatch):
        # sequence_deviation checks W; the result it carries is not checked again.
        calls = []
        defect = evolution._unitarity_defect
        monkeypatch.setattr(evolution, "_unitarity_defect", lambda w: calls.append(w.shape) or defect(w))
        res = sequence_unitary(cpmg(0.1), build_model(ModelSpec(d=4, seed=5)))
        assert calls == [(1, 8, 8)]
        assert (res.total_duration, res.pulse_count, res.label) == (0.1, 2, "CPMG")
        assert not res.u.flags.writeable
        checked = UnitaryResult(res.u, res.total_duration, res.pulse_count, res.label, res.w)
        assert len(calls) == 2 and repr(checked) == repr(res)


class TestControlProduct:
    def test_even_x_count_is_identity(self):
        assert np.allclose(control_product(cpmg(1.0, PauliAxis.X)), np.eye(2))

    def test_single_pulse(self):
        assert np.allclose(control_product(spin_echo()), SIGMA["Z"])

    def test_order_and_phase(self):
        from ddforge.sequences import Pulse

        seq = PulseSequence(1.0, (Pulse(0.25, PauliAxis.X), Pulse(0.75, PauliAxis.Z)))
        assert np.allclose(control_product(seq), SIGMA["Z"] @ SIGMA["X"])


class TestEntanglementFidelity:
    def test_identity(self):
        assert entanglement_fidelity(np.eye(8)) == pytest.approx(1.0)

    def test_bit_flip(self):
        assert entanglement_fidelity(np.kron(SIGMA["X"], np.eye(4))) == pytest.approx(0.0)

    @pytest.mark.parametrize("theta", [0.1, 0.7, 1.2])
    def test_z_rotation(self, theta):
        u = np.kron(np.diag([np.exp(-1j * theta), np.exp(1j * theta)]), np.eye(4))
        assert entanglement_fidelity(u) == pytest.approx(math.cos(theta) ** 2, abs=1e-12)

    def test_phase_invariance(self):
        ops = build_model(ModelSpec(d=4, seed=8))
        res = sequence_unitary(udd_sequence(2, 0.3), ops)
        shifted = UnitaryResult(
            u=np.exp(1j * 0.923) * res.u,
            total_duration=res.total_duration,
            pulse_count=res.pulse_count,
        )
        assert entanglement_fidelity(shifted) == pytest.approx(entanglement_fidelity(res), abs=1e-12)

    def test_infidelity_quadratic_at_small_t(self):
        ops = build_model(ModelSpec(d=4, seed=8))
        ts = np.geomspace(1e-4, 1e-3, 6)
        infidelity = []
        for t in ts:
            res = sequence_unitary(PulseSequence(float(t), ()), ops)
            infidelity.append(1.0 - entanglement_fidelity(res))
        slope = np.polyfit(np.log(ts), np.log(infidelity), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)
