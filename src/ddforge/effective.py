"""Effective-generator extraction and the concatenation-step predictor.

The principal Hermitian generator M with I + W = exp(-i M) comes from the
Cayley form: Z = (2I + W)^-1 W = i tan(-M/2) is anti-Hermitian and
log(I + W) = 2 atanh Z.  Below |Z|_F = 1/2 (eigenphases within about 0.93
rad) M is the odd series 2i (Z + Z^3/3 + ...) of ``odd_series``, which the
extended engine sums too (each engine sizes it by its own norm, and
``series_terms`` counts the terms of every series of both); above it one
eigendecomposition -i Z = V diag(lam) V^+ gives the eigenphases
2 arctan(lam) and M.  Z is checked against W to 1e-9.  Where one point
fills a stack (``evolution.stack_points(d) == 1``, d >= 46, the switch of
the double engine's leaves), the log needs no solve: S = i(W - W^+)/2 is
sin M, so an item with |S|_F and |(W + W^+)/2|_F below SERIES_BOUND (every
eigenphase within pi/6) is M = arcsin S, S + S^3/6 + 3 S^5/40 + ..., the
same driver with arcsin's coefficients, and W's unitarity check stands in
for the residual; any other item, where sin alone cannot tell theta from
pi - theta, takes the Cayley log.  Below that switch the Cayley log is
kept bit for bit (the double golden outputs pin its bytes).  A schedule is
logged from its toggling-frame deviation W = ctrl^+ U - I, so the error
stays near eps |W| with no eigenvalue-gap condition; each point reports
that floor, FLOOR_UNIT |M| ceil(log2 segments), with |M| a bound on the
eigenphases.  Eigenphases must stay clear of the +-pi branch cut; callers
shrink the duration when they do not.  All of it runs on (G, 2d, 2d)
stacks.

Each precision is an ``Engine`` record of its stages, each with one
signature in both engines: compose(seq, ops, durations) gives W, log takes
its log, split writes the four Pauli blocks into one (4, G, d, d) array,
and floor gives the floor per unit |M|.  ``evaluate`` runs one engine on a
schedule re-timed to a stack of durations and builds the
``EffectiveHamiltonian`` once, blocks and floor together; every functional
the package reports comes through it.  ``error_functionals`` takes the
three block norms of a stack from one stacked ``eigvalsh`` call, on the
couplings, a view of that one array.  ``DOUBLE`` is defined here, the
extended engine in ``highprec``.

The log's constants are formed once: 2I once per size (``evolution._eye``),
the series' table of powers and both series' divisors once.  A stack does
no work for a branch none of its items takes (no item at or above
SERIES_BOUND, none singular, none whose |Z^2|_F or |S^2|_F underflows,
none done before a term),
and branch errors are re-tagged only when there are any; the segment count
for the floor is kept with the schedule (``bath.kept``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bath import GAMMAS, check_count, spectral_norm
from .evolution import _eye, segment_count, sequence_deviation, stack_points
from .evolution import sequence_unitary  # noqa: F401  (rebound here by perfbench/tracing.py and a test)
from .sequences import check_duration

BRANCH_MARGIN = 0.1
# Roundoff per level of the pairwise reduction, relative to |M|: on the 1,000 nonzero values of the 340
# points of perfbench/references/order.json (d = 4, 64; block path included) errors stay below 0.79 floors
# (0.006 for values within 1e6 floors); 2^-52 gave 13.
FLOOR_UNIT = 2.0**-48
# Below this |Z|_F the Cayley log is the atanh series (eigenphases within 2 arctan 1/2, about 0.93 rad); above
# it, eigh.  At d >= 46 it also bounds |S|_F and |(W + W^+)/2|_F below which the log is the arcsin series.
SERIES_BOUND = 0.5
# Bound on the tail of the double series, relative to its first term.
_SERIES_TOL = 2.0**-53
# The divisors 1/c_j of the odd series' coefficients, j = 0..24: atanh's 2j + 1 and arcsin's 4^j (j!)^2 (2j + 1) /
# (2j)!.  Columns 1..24 divide the table of tail bounds: q < 1/4 takes at most 23 terms of either.
_ATANH = 2 * np.arange(25) + 1
_ARCSIN = np.array([float(Fraction(4**j * math.factorial(j) ** 2 * (2 * j + 1), math.factorial(2 * j)))
                    for j in range(25)])
_TAIL_POWERS = np.arange(1, 25)


class BranchAmbiguityError(ArithmeticError):
    """An eigenphase sits within the safety margin of the +-pi branch cut."""

    def __init__(self, message: str, eigenphase: float | None = None, t: float | None = None):
        super().__init__(message)
        self.eigenphase = eigenphase
        self.t = t


def _frobenius(x: np.ndarray) -> np.ndarray:
    """|x|_F per matrix of a (..., n, n) stack: ``np.linalg.norm``'s own sum, without its wrapper."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def shifted_solve(w: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """(2I + W)^-1 B over a (G, n, n) stack (B = W by default), and the singular items, left zero.

    numpy fails a whole stack when one item has an eigenvalue of I + W at -1.
    """
    b = w if b is None else b
    a = w + _eye(w.shape[-1], 2)
    try:
        return np.linalg.solve(a, b), []
    except np.linalg.LinAlgError:
        x, singular = np.zeros_like(b), []
        for g in range(len(a)):
            try:
                x[g] = np.linalg.solve(a[g], b[g])
            except np.linalg.LinAlgError:
                singular.append(g)
        return x, singular


def series_terms(bounds: np.ndarray, tol: float) -> np.ndarray:
    """The terms a series keeps per item, from its (..., J) table of bounds, one column per term.

    An item keeps the terms whose bounds lie above tol, and gets -1 where the last column still does.
    """
    above = bounds > tol
    return np.where(above[..., -1], -1, above.sum(axis=-1))


def odd_series(x, x2, terms: np.ndarray, product, add, scale):
    """X + c_1 X^3 + c_2 X^5 + ... per item of a (G, n, n) stack, x2 = X^2, in an engine's product, add and scale.

    Item g sums terms[g] terms after the first: scale(power, j, live) is c_j power where the (G,) mask live holds
    and exact zeros elsewhere (atanh's c_j = 1/(2j + 1), arcsin's (2j)! / (4^j (j!)^2 (2j + 1))).
    """
    total, power = x, x
    for j in range(1, int(terms.max(initial=0)) + 1):
        power = product(power, x2)
        total = add(total, scale(power, j, terms >= j))
    return total


def _series_log(x: np.ndarray, divisors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd series of ``divisors`` (``_ATANH`` or ``_ARCSIN``) of a normal (G, n, n) stack, and |M|.

    With atanh's, X = Z is anti-Hermitian with |Z|_F < 1/2 and M = 2i atanh Z;
    with arcsin's, X = S is Hermitian with |S|_F < 1/2 and M = arcsin S.  X is
    overwritten.  X is normal, so r^2 = |X^2|_F >= |X|_2^2: an item stops at
    the first N with c_(N+1) r^(2N+2) / (1 - r^2) <= _SERIES_TOL, a bound on
    the tail relative to r (the c_j fall), and y = |X^(2N+1)|_F^(1/(2N+1))
    bounds |X|_2 (y = r where N = 0), so 2 arctan y, or arcsin y, its
    eigenphases.  The squares that make up r^2 underflow below about 1e-162,
    so where r reads 0 and X does not vanish, y is |X|_F instead, its parts
    scaled by a power of two near the largest.  A stack does no work for a
    branch no item takes: no lost item, no item ending at term j, no item
    done before term j.
    """
    x2 = x @ x
    q = _frobenius(x2)[:, None]
    terms = series_terms(q ** _TAIL_POWERS / (divisors[1:] * (1 - q)), _SERIES_TOL)
    root, even, odd, term = np.sqrt(q[:, 0]), np.empty_like(x), np.empty_like(x), np.empty_like(x)
    if not root.all():
        lost = np.nonzero((root == 0) & x.any(axis=(-2, -1)))[0]
        if len(lost):
            parts = x[lost].view(float)
            shift = np.frexp(np.abs(parts).max(axis=(-2, -1)))[1]
            root[lost] = np.ldexp(_frobenius(np.ldexp(parts, -shift[:, None, None])), shift)
    ends = set(terms.tolist())
    fewest = min(ends, default=0)

    def scale(power, j, live):
        if j in ends:
            last = terms == j
            root[last] = (_frobenius(power) ** (1 / (2 * j + 1)))[last]
        np.divide(power, divisors[j], out=term)
        if j > fewest:
            term[~live] = complex(-0.0, -0.0)  # x + (-0) is x, bit for bit
        return term

    total = odd_series(x, x2, terms, lambda power, x2: np.matmul(power, x2, out=odd if power is even else even),
                       lambda total, term: np.add(total, term, out=total), scale)
    m = np.swapaxes(total.conj(), -1, -2)
    if divisors is _ARCSIN:
        np.add(total, m, out=m)
        m *= 0.5  # arcsin S, made Hermitian
        return m, np.arcsin(root)
    np.subtract(total, m, out=m)
    m *= 1j  # 2i atanh Z, made Hermitian
    return m, 2 * np.arctan(root)


def _cayley_logs(w: np.ndarray, errors: list) -> tuple[np.ndarray, np.ndarray]:
    """``_principal_logs`` from the Cayley form Z = (2I + W)^-1 W: the atanh series below SERIES_BOUND, else eigh."""
    z, singular = shifted_solve(w)
    z -= np.swapaxes(z.conj(), -1, -2)
    z *= 0.5  # Z = i tan(-M/2), anti-Hermitian
    residual = np.abs(w - 2 * z - w @ z).max(axis=(-2, -1))
    size = _frobenius(z)
    if singular:
        size[singular] = np.inf
    # Items at or above SERIES_BOUND, the branch cut among them, enter the series as zeros and take one eigh.
    near = np.nonzero(size >= SERIES_BOUND)[0]
    if len(near):
        k = -1j * z[near]  # Hermitian: V diag(lam) V^+
        z[near] = 0
    m, phase = _series_log(z, _ATANH)
    if len(near):
        lam, v = np.linalg.eigh(k)
        phases = 2 * np.arctan(lam)
        phases[size[near] == np.inf] = np.pi
        m_near = (v * (-phases)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
        m[near] = (m_near + np.swapaxes(m_near.conj(), -1, -2)) / 2
        phase[near] = np.abs(phases).max(axis=-1)
        for g, item in zip(near, phases):
            worst = item[np.abs(item).argmax()]
            if np.abs(worst) > np.pi - BRANCH_MARGIN:
                errors[g] = errors[g] or BranchAmbiguityError(
                    f"eigenphase {worst:+.4f} rad within {BRANCH_MARGIN} of the branch cut; shrink the duration",
                    eigenphase=float(worst),
                )
    for g in np.nonzero(residual > 1e-9)[0]:
        errors[g] = errors[g] or ArithmeticError(f"log reconstruction residual {residual[g]:.2e} exceeds 1e-9")
    return m, phase


def _principal_logs(w: np.ndarray, errors: list) -> tuple[np.ndarray, np.ndarray]:
    """Principal Hermitian M with I + W = exp(-i M) for every W in a (G, n, n) stack, without raising.

    Returns the (G, n, n) generators and the (G,) bound |M| on the
    eigenphases.  A matrix that fails gets its error in the caller's list
    errors where that holds None: a BranchAmbiguityError for an eigenphase
    within BRANCH_MARGIN of +-pi, else an ArithmeticError for a
    reconstruction residual above 1e-9.  A failed matrix does not stop the
    others; its generator is meaningless.

    Where one point fills a stack (``stack_points(d) == 1``, d >= 46), an
    item with |S|_F and |(W + W^+)/2|_F = |cos M - I|_F below SERIES_BOUND,
    so every eigenphase within pi/6, is M = arcsin S, S = i(W - W^+)/2 =
    sin M, with no solve and no residual: W's unitarity check
    (``evolution.sequence_deviation``, to 1e-10) stands in for it.  Every
    other item, where sin alone cannot tell theta from pi - theta, and every
    item at smaller d takes ``_cayley_logs``.
    """
    if stack_points(w.shape[-1] // 2) > 1:
        return _cayley_logs(w, errors)
    w_h = np.swapaxes(w.conj(), -1, -2)
    s = w - w_h
    s *= 0.5j  # S = sin M, exactly Hermitian
    near = np.nonzero((_frobenius(s) >= SERIES_BOUND) | (_frobenius(w + w_h) >= 2 * SERIES_BOUND))[0]
    # Items the arcsin series cannot take enter it as zeros and take the Cayley log.
    s[near] = 0
    m, phase = _series_log(s, _ARCSIN)
    if len(near):
        near_errors = [errors[g] for g in near]
        m[near], phase[near] = _cayley_logs(w[near], near_errors)
        for g, error in zip(near, near_errors):
            errors[g] = error
    return m, phase


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Pauli-decomposed generator: H_eff = sum_g sigma_g (x) a_g at duration t.

    ``blocks`` is the one (4, ..., d, d) array of a_0, a_x, a_y, a_z, which
    an engine's split writes; ``a0``, ``ax``, ``ay``, ``az`` and
    ``couplings`` (a_x, a_y, a_z, as ``error_functionals`` reads them) are
    views of it.  A stacked generator holds (4, G, d, d) blocks and one
    duration per item in the (G,) array t.  ``floor``, when set, estimates
    the absolute roundoff of the blocks times t, so of each residual
    functional.
    """

    blocks: np.ndarray
    t: float | np.ndarray
    floor: float | np.ndarray | None = None

    a0, ax, ay, az = (property(lambda self, g=g: self.blocks[g]) for g in range(4))
    couplings = property(lambda self: self.blocks[1:])

    def items(self):
        return tuple(zip(GAMMAS, self.blocks))


def _pauli_blocks(m: np.ndarray, t) -> np.ndarray:
    """Split a Hermitian 2d x 2d matrix into its qubit-Pauli blocks over the bath, as one (4, ..., d, d) array.

    a_g * t = (1/2) tr_qubit[(sigma_g (x) I) m]; the four blocks reassemble
    m exactly by completeness of the Pauli basis.  A (G, 2d, 2d) stack with
    a (G,) array of durations splits item by item.
    """
    d = m.shape[-1] // 2
    m00, m01 = m[..., :d, :d], m[..., :d, d:]
    m10, m11 = m[..., d:, :d], m[..., d:, d:]
    blocks = np.empty((4, *m.shape[:-2], d, d), dtype=complex)
    np.add(m00, m11, out=blocks[0])
    np.add(m01, m10, out=blocks[1])
    np.subtract(m01, m10, out=blocks[2])
    np.subtract(m00, m11, out=blocks[3])
    blocks[2] *= 1j
    blocks /= 2 * np.asarray(t)[..., None, None]
    return blocks


def pauli_decompose(m: np.ndarray, t=1.0) -> EffectiveHamiltonian:
    """The generator of ``_pauli_blocks``' split of m at duration t, without a floor."""
    return EffectiveHamiltonian(_pauli_blocks(m, t), t)


def error_functionals(eff: EffectiveHamiltonian) -> dict:
    """Amplitude-level residual couplings of an effective generator.

    E_flip = t max(|a_x|, |a_y|), E_dephase = t |a_z|, E_total their max;
    the pure-bath block a_0 never acts on the qubit and is excluded.  On
    log-log axes versus duration these scale directly with the suppression
    order.  A stacked generator gives a (G,) array per functional.
    """
    norm_x, norm_y, norm_z = spectral_norm(eff.couplings)
    e_flip = eff.t * np.maximum(norm_x, norm_y)
    e_dephase = eff.t * norm_z
    values = {"E_flip": e_flip, "E_dephase": e_dephase, "E_total": np.maximum(e_flip, e_dephase)}
    if np.ndim(eff.t) == 0:
        return {key: float(value) for key, value in values.items()}
    return values


@dataclass(frozen=True)
class Engine:
    """One precision's stages on (G, 2d, 2d) stacks, as ``evaluate`` runs them.

    compose(seq, ops, durations) -> (W, per-item errors).  log(W, errors) ->
    (generator, |M| bound), its failures filled into the items errors leaves
    None.  split(generator, t) -> the (4, G, d, d) Pauli blocks at the (G,)
    durations t, one array.  floor(segments) -> roundoff floor per unit |M|.
    """

    compose: Callable
    log: Callable
    split: Callable
    floor: Callable


# sequence_deviation is looked up at each call, so that rebinding it here (a test, a tracer) sees every composition.
# FLOOR_UNIT |M| per level of the pairwise reduction: ceil(log2 segments) levels.
DOUBLE = Engine(lambda seq, ops, durations: sequence_deviation(seq, ops, durations), _principal_logs, _pauli_blocks,
                lambda segments: FLOOR_UNIT * max(1, (segments - 1).bit_length()))


def evaluate(seq, ops, durations, engine: Engine) -> tuple[EffectiveHamiltonian, list, object]:
    """The stacked generator of a schedule re-timed to each duration, with its (G,) floor, on one engine.

    The list that comes with it holds, per item, the exception a point at
    that duration fails with, or None (the item's blocks are then
    meaningless); branch errors name the schedule and the duration.  Last
    comes the W the engine composed, so that nothing composes it again: a
    (G, 2d, 2d) stack in double, the extended engine's (hi, lo) pair of them.
    """
    durations = [float(t) for t in durations]
    w, errors = engine.compose(seq, ops, durations)
    generator, bound = engine.log(w, errors)
    if any(errors):
        for g, exc in enumerate(errors):
            if isinstance(exc, BranchAmbiguityError):
                errors[g] = BranchAmbiguityError(f"{exc} (schedule {seq.label!r} at t={durations[g]:g})",
                                                 eigenphase=exc.eigenphase, t=durations[g])
    t = np.array(durations)
    return EffectiveHamiltonian(engine.split(generator, t), t, bound * engine.floor(segment_count(seq))), errors, w


def point_effective(seq, ops, engine: Engine) -> tuple[EffectiveHamiltonian, object]:
    """``evaluate`` at the schedule's own duration: one generator with a float floor, or the error it failed with.

    The generator comes with the one-item W it was extracted from, in the engine's form (``evaluate``).
    """
    eff, errors, w = evaluate(seq, ops, [seq.total_duration], engine)
    if errors[0] is not None:
        raise errors[0]
    return EffectiveHamiltonian(eff.blocks[:, 0], seq.total_duration, float(eff.floor[0])), w


def sequence_effective(seq, ops) -> EffectiveHamiltonian:
    """Effective generator of a schedule under a model, with its floor: ``point_effective`` on the double engine."""
    return point_effective(seq, ops, DOUBLE)[0]


def magnus_cdd_predict(a0: np.ndarray, az: np.ndarray, tau0: float, level: int):
    """Leading-order prediction for n two-block concatenation steps.

    Starting from a dephasing generator (a0, az) over a block of duration
    tau0, each step doubles the duration and maps the dephasing operator to
    i (tau/2) [a0, az] while carrying a0 unchanged at leading order.
    Returns (a0_n, az_n, tau_n) with tau_n = 2^n tau0.  tau0 is a duration
    (``sequences.check_duration``) and level a count (``bath.check_count``).
    """
    check_count(level, "level")
    check_duration(tau0, "tau0")
    a0_n = np.asarray(a0, dtype=complex)
    az_n = np.asarray(az, dtype=complex)
    tau = float(tau0)
    for _ in range(level):
        az_n = 1j * (tau / 2) * (a0_n @ az_n - az_n @ a0_n)
        tau *= 2
    return a0_n, az_n, tau
