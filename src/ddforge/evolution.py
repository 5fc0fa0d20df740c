"""Exact composition of pulse schedules in the toggling frame, and a preservation fidelity.

A schedule's unitary is U = (ctrl (x) I)(I + W), ctrl the control product of
its ideal pulses and I + W the ordered product of its free segments in the
toggling frame (Haeberlen & Waugh, Phys. Rev. 175, 453 (1968)): a segment
after pulses with Pauli product F gives I + E, E = F^+ expm1(-i H gap t) F.
Composing W, not U, keeps a decoupled schedule's small deviation to
rounding relative to |W| instead of to 1.  ctrl comes from the flat pulse
codes; a merged pulse's phase is a phase of ctrl and U alike, so it never
reaches W.

``compose`` is the pipeline of both engines, which supply only arithmetic:
the factors of a schedule's distinct (gap, frame) pairs, and their product.
Both read one ``SegmentPlan`` per schedule, built on the one gap rule
(``sequences._exact_gaps``: the exact lengths of the segments that
``sequences._kept`` finds nonzero), the extended engine its exact gaps and
this one their correctly rounded floats, formed once with the plan.  The
plan keys the segments into pairs, is kept with the schedule and shared by
its re-timed copies (as is the control product), and ``compose`` reduces
the factors pairwise, (I + A)(I + B) = I + (A + B + A B) with the later A
on the left, in chunks of ``stack_points(d)`` segments (256 at d = 4; at
d = 64 one, the update W <- E + W + E W) that fold in time order, so
rounding grows as log N in the segment count; each distinct product of a
level is formed once (``reduction_plan``), changing no bit.  Here the
factors come from the model's one eigensystem (``eigensystem``).

Every constant derived from a model, a schedule, a plan or a block level
is formed once and kept with it (``bath.kept``), a schedule's shared by
its re-timed copies.  A warm call then pays only for its durations'
arithmetic: a level whose products fit one block gathers both operands
with one take (``reduce_pairwise``), and the list of unitarity errors is
built only when an item fails.

A schedule whose builder recorded its blocks (``PulseSequence.blocks``)
composes by them, however few its segments: its leaf block at its own
duration, then per level the child's W taken into the copies' frames by
exact rows (I + F^+ W F is the copy's factor) and the copies reduced by the
same plans.  A CDD level costs 3 products, so CDD-4 takes 12 where its
segments took 114 and CDD-7 21 where they took 773; W agrees with the
segments' within the double floor, with fewer levels of rounding.  One pass
composes a whole stack of durations, and as the reduction's shape depends
on the schedule and d only, each item holds exactly what a separate
composition gives.  The extended engine still hands a schedule of at most
one chunk over as its flat pulses (``highprec._composed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bath import CODE_AXIS, SIGMA, BathOperators, _frame_rows, kept, total_hamiltonian
from .sequences import Blocks, PauliAxis, PulseSequence, _exact_gaps, _kept

def pulse_unitary(axis: PauliAxis, d: int) -> np.ndarray:
    """Ideal pi pulse sigma_axis (x) I_d (bare Pauli phase convention)."""
    axis = PauliAxis(axis)
    if axis is PauliAxis.I:
        raise ValueError("no pulse about the identity")
    return np.kron(SIGMA[axis.value], np.eye(d, dtype=complex))


_POWERS_OF_I = (1, 1j, -1, -1j)
# sigma_a sigma_b = i^_PHASE[a, b] sigma_(a ^ b) for codes a and b.
_PHASE = np.array([[0, 0, 0, 0], [0, 0, 3, 1], [0, 1, 0, 3], [0, 3, 1, 0]])


@dataclass(frozen=True, eq=False)
class SegmentPlan:
    """A schedule's nonzero free segments in time order, keyed into their distinct (gap, frame) pairs.

    Segment k's pair p = pairs[k] has the exact gap gaps[pair_gaps[p]], a Fraction of the duration, whose
    correctly rounded float is float_gaps[pair_gaps[p]], and the frame pair_frames[p]: the code of the product
    of the pulses before the segment, up to a phase.
    """

    gaps: list
    float_gaps: np.ndarray
    pairs: np.ndarray
    pair_gaps: np.ndarray
    pair_frames: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)


def _frames(codes: np.ndarray) -> np.ndarray:
    """The Pauli code of the pulses before each interval, the n + 1 intervals of n pulses in time order."""
    return np.concatenate(([0], np.bitwise_xor.accumulate(codes)))


@kept
def _segment_plan(seq: PulseSequence) -> SegmentPlan:
    """The schedule's SegmentPlan, read by every engine."""
    gaps, ids = _exact_gaps(seq)
    keys, pairs = np.unique(ids * 4 + _frames(seq.codes)[_kept(seq)], return_inverse=True)
    return SegmentPlan(gaps, np.array([float(gap) for gap in gaps]), pairs, keys // 4, keys % 4)


@kept
def segment_count(seq: PulseSequence) -> int:
    """The schedule's nonzero free segments: one more than its pulses, less one per pulse at instant 0 or 1.

    Counted without forming the segment plan.
    """
    return len(range(seq.pulse_count + 1)[_kept(seq)])


@kept
def _control(seq: PulseSequence) -> tuple[int, int]:
    """(p, f) with control product i^p sigma_f, from the codes."""
    codes, frames = seq.codes, _frames(seq.codes)
    return int(_PHASE.ravel().take(codes * 4 + frames[:-1]).sum() % 4), int(frames[-1])


def control_product(seq: PulseSequence) -> np.ndarray:
    """Ordered 2x2 product of the ideal pulse factors alone (phase included): the net control rotation."""
    phase, code = _control(seq)
    return _POWERS_OF_I[phase] * SIGMA[CODE_AXIS[code]]


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
        error = _unitarity_error(_unitarity_defect(self.u - _eye(len(self.u), 1) if self.w is None else self.w))
        if error is not None:
            raise error
        self.u.flags.writeable = False


def conjugate_frame(x: np.ndarray, frame) -> np.ndarray:
    """F x F^+ = F^+ x F, F = sigma_frame (x) I_d, for a (..., 2d, 2d) stack: exact signed rows and columns.

    ``frame`` is a code, or a slice or an array of codes whose axis the result takes just before the matrix axes.
    """
    n = x.shape[-1]
    _, _, index, signs = _frame_rows(n // 2)
    y = x.reshape(*x.shape[:-2], n * n).take(index[frame], axis=-1)
    blocks = y.reshape(*y.shape[:-1], 2, n // 2, 2, n // 2)
    blocks *= signs[frame][..., :, None, :, None]
    return y.reshape(*y.shape[:-1], n, n)


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
    at most ``block`` items (pairs times durations) at once.  Durations
    reduce in groups of the plan's ``per``; a level whose products fit one
    block gathers both operands with one take.
    """
    (levels, roots, per), count = plan, leaves.shape[1]
    if count > per:
        return np.concatenate([reduce_pairwise(plan, leaves[:, g:g + per], product, block)
                               for g in range(0, count, per)])
    nodes, step = leaves, max(1, block // count)
    for index, m in levels:
        new = np.empty((len(index) - m, *nodes.shape[1:]), nodes.dtype)
        if m <= step:
            pairs = nodes.take(index[:2 * m], axis=0)
            product(pairs[:m], pairs[m:], new[:m])
        else:
            for s in range(0, m, step):
                e = min(s + step, m)
                product(nodes.take(index[s:e], axis=0), nodes.take(index[m + s:m + e], axis=0), new[s:e])
        if len(new) > m:
            new[m:] = nodes.take(index[2 * m:], axis=0)
        nodes = new
    w = nodes[roots[0]]
    for r in roots[1:]:
        w = product(nodes.take(r, axis=0), w, np.empty_like(w))
    return w


def _product(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> np.ndarray:
    # later earlier + (later + earlier): the bits of (later + earlier) + later earlier, as addition commutes.
    np.matmul(later, earlier, out=out)
    later += earlier
    out += later
    return out


def frame_factors(factors, plan: SegmentPlan) -> np.ndarray:
    """A plan's (P, ...) pair leaves F^+ E F from its per-gap (..., 2d, 2d) factors E, a sequence indexed by gap.

    One gather of exact signed rows per pair, written into the leaves.  At d = 64, gathering a frame code's
    pairs at once, or holding the factors as one array, raised the page faults of order-d64 scans by 35-55%.
    """
    leaves = np.empty((len(plan.pair_gaps), *factors[0].shape), factors[0].dtype)
    for leaf, gap, code in zip(leaves, plan.pair_gaps.tolist(), plan.pair_frames.tolist()):
        leaf[...] = conjugate_frame(factors[gap], code)
    return leaves


@kept
def _tree(plan: SegmentPlan, chunk: int) -> tuple:
    """``reduction_plan`` of the plan's pairs in chunks of chunk."""
    return reduction_plan(plan.pairs.astype(np.int64).tobytes(), chunk)


@kept
def _level(node: Blocks, d: int) -> tuple[slice, tuple]:
    """(codes, tree) of a level at bath dimension d.

    codes slices every Pauli code up to the copies' largest, the frames the child's W is taken into; tree
    reduces the copies, each leaf id its frame code, in one chunk.
    """
    frames = node.frames
    tree = reduction_plan(frames.astype(np.int64).tobytes(), max(len(frames), stack_points(d)))
    return slice(int(frames.max()) + 1), tree


def compose(node: Blocks | PulseSequence, d: int, leaves, product, block: int) -> np.ndarray:
    """The (G, ...) deviation W of a schedule's blocks, or of a flat schedule (its blocks unread) as one leaf.

    An engine supplies ``leaves(plan, copies)``, the (P, G, ...) factors of
    the pairs of the leaf's ``SegmentPlan`` at 1/copies of each duration,
    and ``product`` and ``block`` as in ``reduce_pairwise``.  The leaf's pairs
    reduce in chunks of ``stack_points(d)``; by blocks, each level takes the
    child's W into every Pauli frame up to its copies' largest code at once
    and reduces the copies (``_level``).
    """
    levels = []
    while isinstance(node, Blocks):
        levels.append(node)
        node = node.child
    plan = _segment_plan(node)
    tree = _tree(plan, stack_points(d))
    w = reduce_pairwise(tree, leaves(plan, math.prod(len(level.frames) for level in levels)), product, block)
    for level in reversed(levels):
        # The frames' axis, just before the matrix axes, goes first, as the copies' leaf axis.
        (codes, tree), lead = _level(level, d), w.ndim - 2
        copies = conjugate_frame(w, codes).transpose(lead, *range(lead), lead + 1, lead + 2)
        w = reduce_pairwise(tree, copies, product, block)
    return w


@kept
def eigensystem(ops: BathOperators) -> tuple[np.ndarray, np.ndarray]:
    """(evals, evecs) of ``bath.total_hamiltonian``, read-only: H is diagonalised once per model, not per schedule."""
    evals, evecs = np.linalg.eigh(total_hamiltonian(ops))
    evals.flags.writeable = evecs.flags.writeable = False
    return evals, evecs


@kept
def frame_eigenvectors(ops: BathOperators) -> tuple[np.ndarray, np.ndarray]:
    """(F^+ V, its conjugate) per Pauli code f, F = sigma_f (x) I_d, as read-only (4, 2d, 2d) stacks.

    V holds the eigenvectors of ``eigensystem`` and F^+ V their exact signed
    rows, so a frame's factor F^+ E F = (F^+ V) expm1(-i lam t) (F^+ V)^+
    takes no product with F.
    """
    rows, phases, *_ = _frame_rows(ops.dim)
    vectors = eigensystem(ops)[1][rows] * phases
    conjugates = vectors.conj()
    vectors.flags.writeable = conjugates.flags.writeable = False
    return vectors, conjugates


def _leaves(ops: BathOperators, plan: SegmentPlan, durations: np.ndarray) -> np.ndarray:
    """The double engine's factors of a plan's pairs at each duration, as a writable (P, G, 2d, 2d) stack."""
    evals, evecs = eigensystem(ops)
    expm1 = np.expm1(-1j * (durations[:, None] * plan.float_gaps)[..., None] * evals)
    if stack_points(ops.dim) == 1:
        # Large factors, so one per distinct gap (not per pair), a product each with one V^+ (a 4-d matmul is slower).
        vh = evecs.conj().T
        return frame_factors([(evecs * expm1[:, gap, None, :]) @ vh for gap in range(len(plan.gaps))], plan)
    # Each pair's factor V_f expm1(-i lam gap t) V_f^+, V_f = F^+ V, from the model's V_f and their conjugates.
    vectors, conjugates = frame_eigenvectors(ops)
    v = vectors[plan.pair_frames]
    return ((v * expm1[:, plan.pair_gaps, None, :]) @ np.swapaxes(conjugates[plan.pair_frames], -1, -2)).swapaxes(0, 1)


def sequence_deviation(seq: PulseSequence, ops: BathOperators, durations) -> tuple[np.ndarray, list]:
    """The deviation W = ctrl^+ U - I of a schedule re-timed to each duration.

    Returns the read-only (G, 2d, 2d) stack and a list holding, per item, the
    ValueError its unitarity check (on W + W^+ + W^+ W, to 1e-10) failed
    with, or None.  A failed item does not stop the others.
    """
    durations = np.asarray(durations, dtype=float)
    # Half a chunk per product, so that its two gathered operands stay within STACK_BYTES.
    w = compose(seq if seq.blocks is None else seq.blocks, ops.dim,
                lambda plan, copies: _leaves(ops, plan, durations / copies), _product, stack_points(ops.dim) // 2)
    w.flags.writeable = False
    defects = _unitarity_defect(w)
    if not (defects > UNITARITY_TOL).any():
        return w, [None] * len(w)
    return w, [_unitarity_error(defect) for defect in defects]


@kept
def _control_rows(seq: PulseSequence, d: int) -> tuple[np.ndarray, np.ndarray | None]:
    """ctrl's rows and row factors at bath dimension d.

    ctrl x = x[rows] * factors for a 2d x 2d x: the exact rows of ``_frame_rows`` and each row's one factor
    i^p (sigma_f)_(a, b), as a (2d, 1) column, or None if every factor is 1: times 1 + 0j would turn a -0.0
    real part into +0.0.  Taken from the 2x2 product as one number, as i^p times the row's sign in two steps
    can give a zero part the other sign.
    """
    rows = _frame_rows(d)[0][_control(seq)[1]]
    factors = control_product(seq)[(0, 1), rows[::d] // d]
    return rows, np.repeat(factors, d)[:, None] if np.any(factors != 1) else None


@lru_cache(maxsize=16)
def _eye(n: int, scale: int) -> np.ndarray:
    """scale I of size n, read-only, formed once per size and scale."""
    eye = scale * np.eye(n)
    eye.flags.writeable = False
    return eye


def controlled_unitary(seq: PulseSequence, w: np.ndarray) -> UnitaryResult:
    """U = ctrl (I + W) of a schedule at its own duration, from a deviation W that passed its unitarity check.

    The control product acts on I + W as exact rows (``_control_rows``), and the result carries W.
    """
    rows, factors = _control_rows(seq, len(w) // 2)
    u = (w + _eye(len(w), 1))[rows]
    if factors is not None:
        u *= factors
    u.flags.writeable = False
    result = object.__new__(UnitaryResult)  # W passed its unitarity check; __post_init__ would repeat it
    result.__dict__.update(u=u, total_duration=seq.total_duration, pulse_count=seq.pulse_count, label=seq.label, w=w)
    return result


def sequence_unitary(seq: PulseSequence, ops: BathOperators) -> UnitaryResult:
    """Time-ordered product of segment exponentials and pulse factors, unitary to 1e-10.

    Later factors multiply on the left; zero-length segments (boundary
    pulses) are skipped.  The deviation of ``sequence_deviation`` goes
    through ``controlled_unitary``.
    """
    w, errors = sequence_deviation(seq, ops, [seq.total_duration])
    if errors[0] is not None:
        raise errors[0]
    return controlled_unitary(seq, w[0])


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
