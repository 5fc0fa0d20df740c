"""Exact composition of pulse schedules in the toggling frame, and a preservation fidelity.

A schedule's unitary is U = (ctrl (x) I)(I + W), ctrl the control product of
its ideal pulses and I + W the ordered product of its free segments in the
toggling frame (Haeberlen & Waugh, Phys. Rev. 175, 453 (1968)): a segment
after pulses with Pauli product F gives I + E, E = F^+ expm1(-i H gap t) F,
formed from the model's one eigensystem (``BathOperators.eigensystem``) once
per distinct gap and frame, F applied as exact row permutations and
phases.  Composing W, not U, keeps a decoupled schedule's small deviation
to rounding relative to |W| instead of to 1.

Factors reduce pairwise, (I + A)(I + B) = I + (A + B + A B) with the later A
on the left, in chunks of ``stack_points(d)`` segments (256 at d = 4) that
fold in time order, so rounding grows as log N in the segment count; at
d = 64 a chunk is one segment and this is the update W <- E + W + E W.
Concatenated schedules repeat their blocks, so each distinct product of a
level is formed once (``reduction_plan``; CDD-7: 773 products, not 15,291),
changing no bit.  ``highprec`` reduces by the same plans.  One
pass composes a whole stack of durations, and as the reduction's shape
depends on the schedule and d only, each item holds exactly what a
separate composition gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bath import SIGMA, BathOperators
from .sequences import CODE_AXIS, PauliAxis, PulseSequence

HERMITICITY_TOL = 1e-10


def expm_segment(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via eigendecomposition."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def pulse_unitary(axis: PauliAxis, d: int) -> np.ndarray:
    """Ideal pi pulse sigma_axis (x) I_d (bare Pauli phase convention)."""
    axis = PauliAxis(axis)
    if axis is PauliAxis.I:
        raise ValueError("no pulse about the identity")
    return np.kron(SIGMA[axis.value], np.eye(d, dtype=complex))


def apply_qubit_factor(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(q (x) I_d) @ u for a phase times a Pauli matrix q, without a matmul.

    u may be a (..., 2d, 2d) stack; the factor applies to every matrix.
    Every output row block is one input block times 1, -1, i or -i, so the
    result holds exactly the values of the dense product.
    """
    q, d = np.asarray(q), u.shape[-1] // 2
    if q.shape != (2, 2) or np.count_nonzero(q) != 2:
        raise ValueError("expected a phase times a Pauli matrix")
    cols = np.abs(q).argmax(axis=1)
    phases = q[(0, 1), cols]
    if cols[0] == cols[1] or not all(z in (1, -1, 1j, -1j) for z in phases):
        raise ValueError("expected a phase times a Pauli matrix")
    if cols.tolist() != [0, 1]:
        u = u.take(np.concatenate([c * d + np.arange(d) for c in cols]), axis=-2)
    if np.any(phases != 1):
        u = u * np.repeat(phases.astype(complex), d)[:, None]
    return u


_POWERS_OF_I = (1, 1j, -1, -1j)
# sigma_a sigma_b = i^_PHASE[a, b] sigma_(a ^ b) for codes a and b.
_PHASE = np.array([[0, 0, 0, 0], [0, 0, 3, 1], [0, 1, 0, 3], [0, 3, 1, 0]])


@dataclass(frozen=True, eq=False)
class SegmentPlan:
    """A schedule's nonzero free segments in time order, and its control product ctrl.

    Segment k runs after pulses with product sigma_(frames[k]) up to a phase, and its
    (gap, frame) pair p = pairs[k] has the gap gap_values[pair_gaps[p]] and the frame pair_frames[p].
    """

    frames: np.ndarray
    gap_values: np.ndarray
    pairs: np.ndarray
    pair_gaps: np.ndarray
    pair_frames: np.ndarray
    ctrl: np.ndarray


def segment_plan(seq: PulseSequence) -> SegmentPlan:
    """The schedule's SegmentPlan, formed from its instants and codes on first use and kept with it."""
    if "_segment_plan" in seq.__dict__:
        return seq.__dict__["_segment_plan"]
    instants, codes, n = seq.instants, seq.codes, seq.pulse_count
    bounds = np.concatenate(([0.0], instants, [1.0]))
    # Interval j, before pulse j, runs in the frame of pulses 0..j-1.
    frames = np.concatenate(([0], np.bitwise_xor.accumulate(codes)))
    keep = slice(int(n > 0 and instants[0] == 0), n + (n == 0 or instants[-1] != 1))
    gap_values, gaps = np.unique(np.diff(bounds)[keep], return_inverse=True)
    keys, pairs = np.unique(gaps * 4 + frames[keep], return_inverse=True)
    ctrl = _POWERS_OF_I[_PHASE[codes, frames[:-1]].sum() % 4] * SIGMA[CODE_AXIS[frames[-1]]]
    plan = SegmentPlan(frames[keep], gap_values, pairs, keys // 4, keys % 4, ctrl)
    seq._segment_plan = plan
    return plan


def control_product(seq: PulseSequence) -> np.ndarray:
    """Ordered 2x2 product of the ideal pulse factors alone (phase included): the net control rotation."""
    return segment_plan(seq).ctrl.copy()


UNITARITY_TOL = 1e-10

# Upper bound on the bytes of complex128 matrices composed in one stack, and
# on the nodes one level of a reduction holds.
STACK_BYTES = 256 * 1024


def stack_points(d: int) -> int:
    """Durations composed in one stack at bath dimension d (at least one); also segments per chunk."""
    return max(1, STACK_BYTES // (16 * (2 * d) ** 2))


def _unitarity_defect(w: np.ndarray):
    """max |(I + w)^+ (I + w) - I| = max |w + w^+ + w^+ w| per matrix of a (..., n, n) stack."""
    w_h = np.swapaxes(w.conj(), -1, -2)
    return np.abs(w + w_h + w_h @ w).max(axis=(-2, -1))


def _unitarity_error(defect) -> ValueError | None:
    if defect > UNITARITY_TOL:
        return ValueError(f"matrix is not unitary: defect {defect:.2e}")
    return None


@dataclass(frozen=True, eq=False)
class UnitaryResult:
    """Composed sequence unitary with schedule metadata; unitary to 1e-10.  ``w``: its deviation, if known."""

    u: np.ndarray
    total_duration: float
    pulse_count: int
    label: str = ""
    w: np.ndarray | None = None

    def __post_init__(self):
        error = _unitarity_error(_unitarity_defect(self.u - np.eye(len(self.u)) if self.w is None else self.w))
        if error is not None:
            raise error
        self.u.flags.writeable = False


@lru_cache(maxsize=None)
def _frame_rows(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per Pauli code f, the rows and row phases with (sigma_f (x) I_d) v = v[rows[f]] * phases[f]."""
    frames = np.array([np.kron(SIGMA[axis], np.eye(d)) for axis in CODE_AXIS])
    rows = np.abs(frames).argmax(axis=-1)
    return rows, np.take_along_axis(frames, rows[..., None], axis=-1)


def conjugate_frame(x: np.ndarray, frame: int) -> np.ndarray:
    """F x F^+ = F^+ x F, F = sigma_frame (x) I_d, for a (..., 2d, 2d) stack: exact signed rows and columns."""
    rows, phases = _frame_rows(x.shape[-1] // 2)
    return x[..., rows[frame][:, None], rows[frame]] * (phases[frame] * phases[frame].conj().T)


@lru_cache(maxsize=64)
def reduction_plan(leaves: bytes, chunk: int) -> tuple[tuple, np.ndarray, int]:
    """(levels, roots, per) reducing int64 leaf ids in chunks of ``chunk``, each distinct product once.

    Level l is (index, m), index = later | earlier | carried over level l - 1's
    nodes (the leaves at l = 0), and its nodes are the products of its m
    distinct pairs, then the carried ones.  The chunk roots fold in time order;
    ``per`` durations reduce at once, so that a level holds at most a chunk of nodes.
    """
    ids = np.frombuffer(leaves, dtype=np.int64)
    lengths = np.minimum(chunk, len(ids) - np.arange(0, len(ids), chunk))
    count, levels = int(ids.max()) + 1, []
    while lengths.max() > 1:
        # Positions 2i, 2i + 1 of a chunk pair, the later on the left; an odd last one is
        # carried.  Each next-level node takes the even position it starts at.
        pos = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        paired = pos < np.repeat(lengths - lengths % 2, lengths)
        keys, products = np.unique(ids[paired][1::2] * count + ids[paired][::2], return_inverse=True)
        carried, kept = np.unique(ids[~paired], return_inverse=True)
        starts = paired[pos % 2 == 0]
        ids = np.empty(len(starts), dtype=np.int64)
        ids[starts], ids[~starts] = products, len(keys) + kept
        levels.append((np.concatenate([keys // count, keys % count, carried]), len(keys)))
        lengths, count = lengths - lengths // 2, len(keys) + len(carried)
    for index in (ids, *(index for index, _ in levels)):
        index.flags.writeable = False  # shared by every caller of the cache
    return tuple(levels), ids, max(1, chunk // max([len(index) - m for index, m in levels], default=1))


def reduce_pairwise(plan: tuple, leaves: np.ndarray, product, block: int) -> np.ndarray:
    """The (G, ...) W with I + W the time-ordered product of I + the (L, G, ...) leaves by ``plan``.

    ``product(later, earlier, out)`` sets and returns out, the deviation of
    (I + later)(I + earlier) item by item, and may overwrite later; it sees
    at most ``block`` items (pairs times durations) at once.
    """
    (levels, roots, per), groups = plan, []
    for g in range(0, leaves.shape[1], per):
        nodes = leaves[:, g:g + per]
        step = max(1, block // nodes.shape[1])
        for index, m in levels:
            new = np.empty((len(index) - m, *nodes.shape[1:]), nodes.dtype)
            for s in range(0, m, step):
                e = min(s + step, m)
                product(nodes.take(index[s:e], axis=0), nodes.take(index[m + s:m + e], axis=0), new[s:e])
            new[m:] = nodes.take(index[2 * m:], axis=0)
            nodes = new
        w = nodes[roots[0]]
        for r in roots[1:]:
            w = product(nodes.take(r, axis=0), w, np.empty_like(w))
        groups.append(w)
    return np.concatenate(groups)


def _product(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> np.ndarray:
    # later earlier + (later + earlier): the bits of (later + earlier) + later earlier, as addition commutes.
    np.matmul(later, earlier, out=out)
    later += earlier
    out += later
    return out


def sequence_deviation(seq: PulseSequence, ops: BathOperators, durations) -> tuple[np.ndarray, list]:
    """The deviation W = ctrl^+ U - I of a schedule re-timed to each duration.

    Returns the read-only (G, 2d, 2d) stack and a list holding, per item, the
    ValueError its unitarity check (on W + W^+ + W^+ W, to 1e-10) failed
    with, or None.  A failed item does not stop the others.
    """
    plan, durations = segment_plan(seq), np.asarray(durations, dtype=float)
    (evals, evecs), (rows, phases) = ops.eigensystem, _frame_rows(ops.dim)
    chunk = stack_points(ops.dim)
    expm1 = np.expm1(-1j * (durations[:, None] * plan.gap_values)[..., None] * evals)
    if chunk == 1:
        # Large factors, so one per distinct gap (not per pair), taken into each frame F as F E F^+.
        factors, w = {}, None
        for gap, frame in zip(plan.pair_gaps[plan.pairs], plan.pair_frames[plan.pairs]):
            if gap not in factors:
                factors[gap] = (evecs * expm1[:, gap, None, :]) @ evecs.conj().T
            e = conjugate_frame(factors[gap], frame)
            w = e if w is None else e + w + e @ w
    else:
        # Each (gap, frame) pair's factor V_f expm1(-i lam gap t) V_f^+, V_f = F^+ V.
        v = (evecs[rows] * phases)[plan.pair_frames]
        table = (v * expm1[:, plan.pair_gaps, None, :]) @ np.swapaxes(v.conj(), -1, -2)
        tree = reduction_plan(np.asarray(plan.pairs, dtype=np.int64).tobytes(), chunk)
        # Half a chunk per product, so that its two gathered operands stay within STACK_BYTES.
        w = reduce_pairwise(tree, table.swapaxes(0, 1), _product, chunk // 2)
    w.flags.writeable = False
    return w, [_unitarity_error(defect) for defect in _unitarity_defect(w)]


def sequence_unitary(seq: PulseSequence, ops: BathOperators, durations=None):
    """Time-ordered product of segment exponentials and pulse factors, unitary to 1e-10.

    Later factors multiply on the left; zero-length segments (boundary
    pulses) are skipped.  The control product is applied to the deviation
    of ``sequence_deviation`` as exact rows, and the result carries W.

    With ``durations`` the schedule is composed re-timed to each of them in
    one stacked pass, and the result is the read-only (G, 2d, 2d) stack with
    a list holding, per item, the ValueError its unitarity check failed
    with, or None.  A failed item does not stop the others.
    """
    w, errors = sequence_deviation(seq, ops, [seq.total_duration] if durations is None else durations)
    u = apply_qubit_factor(segment_plan(seq).ctrl, w + np.eye(w.shape[-1]))
    if durations is not None:
        u.flags.writeable = False
        return u, errors
    if errors[0] is not None:
        raise errors[0]
    return UnitaryResult(u[0], seq.total_duration, seq.pulse_count, seq.label, w[0])


def entanglement_fidelity(u: UnitaryResult | np.ndarray) -> float:
    """Qubit-preservation fidelity for a maximally mixed bath.

    With bath state I/d the Kraus operators are the 2x2 qubit blocks
    K_ij = <i|U|j>/sqrt(d) over bath basis states, and
    F_e = sum_ij |tr(K_ij)/2|^2.  Invariant under global phase.
    """
    mat = u.u if isinstance(u, UnitaryResult) else np.asarray(u)
    d = mat.shape[0] // 2
    traces = mat[:d, :d] + mat[d:, d:]
    fe = float(np.sum(np.abs(traces) ** 2) / (4 * d))
    return min(max(fe, 0.0), 1.0)
