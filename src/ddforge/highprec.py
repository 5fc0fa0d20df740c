"""Extended-precision residual couplings on a double-double engine.

Steep suppression orders push the residual couplings below the double
roundoff floor.  This engine composes, logs and splits in double-double
arithmetic (each number an unevaluated sum hi + lo of two float64s, about 32
digits; Dekker, Numer. Math. 18, 224 (1971)) and only rounds the Pauli
blocks to complex128, which hold even tiny ones to full relative accuracy.

Matrices are (hi, lo) pairs of complex (G, 2d, 2d) stacks with one item per
duration, so a scan's grid composes in one pass.  A product takes three BLAS
calls per item on slices of real forms, x's float view times the (4d, 4d)
real matrix holding y's rows and i times them; the two calls that carry the
leading bits are exact (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 95
(2012)).  Composition is in deviation form in the toggling frame:
ctrl^+ U = I + W, each segment a factor I + E with E = F^+ expm1(-i H dt) F,
F the Pauli frame of the pulses so far (read from ``evolution.segment_plan``
and applied as exact signed rows by ``evolution.conjugate_frame``, as in the
double engine) and expm1 a Taylor series summed once per distinct exact gap;
the factors reduce by the double engine's memoised pairwise plan
(``evolution.reduction_plan``).
The log is 2 atanh(Z), Z = (2I + W)^-1 W: a double solve refined once, then
the odd series; eigenphases beyond about 1.4 rad, the +-pi branch cut
included, raise BranchAmbiguityError.  Each item reports a floor,
FLOOR_UNIT * |M| * segments, kept from the sequential update (the tree is
shallower); against mpmath at 50 digits, on the 260 stored d = 4 reference
points, the error stays below 0.8% of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bath import BathOperators, spectral_norm, total_hamiltonian
from .effective import BranchAmbiguityError, EffectiveHamiltonian, error_functionals, shifted_solve
from .evolution import conjugate_frame, reduce_pairwise, reduction_plan, segment_plan, stack_points
from .sequences import PulseSequence

# Bound on the roundoff per segment, relative to |M|; checked against the mpmath oracle.
FLOOR_UNIT = 2.0**-104
# A series stops at its last term above this (natural log), relative to the first.
_TERM_TOL = math.log(2.0**-107)
_MAX_TERMS = 200


def _term_counts(log_term, shape) -> np.ndarray:
    """Terms after the first that a series keeps, per item; -1 where _MAX_TERMS do not suffice.

    log_term(j) is log(|term j| / |first term|) for the j-th term after the first.
    """
    counts = np.zeros(shape, dtype=int)
    with np.errstate(invalid="ignore"):
        for j in range(1, _MAX_TERMS + 1):
            above = log_term(j) > _TERM_TOL
            if not above.any():
                return counts
            counts[above] = j
    counts[above] = -1
    return counts


# --- double-double arithmetic on (hi, lo) pairs of arrays ---------------------
# A complex pair times or over a real one works part by part: numpy multiplies by r + 0i,
# which rounds the real and the imaginary part each as a real product would.

def _dd(x: Fraction) -> tuple[float, float]:
    hi = float(x)
    return hi, float(x - Fraction(hi))


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    (ah, al), (bh, bl) = _split(a), _split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def _neg(x):
    return -x[0], -x[1]


def _mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _div(x, y):
    """x / y for a float divisor; q need only be near x / y, as the remainder x - q y is exact."""
    q = x[0] / y
    p, e = _two_prod(q, y)
    return _fast_two_sum(q, ((x[0] - p) - e + x[1]) / y)


def _masked(x, live):
    """x where live holds, exact zeros elsewhere: adding it leaves dead items untouched."""
    return np.where(live, x[0], 0.0), np.where(live, x[1], 0.0)


def _slices(a, axis: int):
    """a = a1 + a2 + a3 with a1, a2 on b-bit grids set per row (axis -1) or column (axis -2), and a2 + a3.

    a2 sits on the grid of a1 shifted by b bits, so a sum of 2n products of
    a1 or a2 with the other operand's b-bit slices, n = a.shape[axis] the
    contracted dimension, fits in 53 bits and BLAS forms it exactly.  a3 is
    the remainder, below 2^-2b of the top.
    """
    bits = (53 - math.ceil(math.log2(2 * a.shape[axis]))) // 2
    # With |a| < 2^e along the axis, adding sigma = 0.75 2^(e + 53 - b) and taking it away rounds to 2^(e - b) steps.
    sigma = np.ldexp(0.75, np.frexp(np.abs(a).max(axis=axis, keepdims=True))[1] + (53 - bits))
    a1 = (a + sigma) - sigma
    rest = a - a1
    sigma = sigma * 2.0**-bits
    a2 = (rest + sigma) - sigma
    return a1, a2, rest - a2, rest


def _matmul(x, y):
    """x @ y for complex (..., m, n) and (..., n, p) stacks, to about 2^-100 of |x| |y| (Frobenius norms).

    BLAS multiplies real forms: x's float view (..., m, 2n) by the (..., 2n, 2p)
    float view of y's rows k and i times them, interleaved, which is the float
    view of x @ y.  x1 y1 and x1 y2 + x2 y1 come exactly from BLAS; the rest,
    at 2^-2b and below, is one more BLAS product in double.
    """
    *stack, n, p = y[0].shape
    forms = np.empty((2, *stack, n, 2, p), dtype=complex)
    forms[0, ..., 0, :], forms[1, ..., 0, :] = y
    np.multiply(forms[..., 0, :], 1j, out=forms[..., 1, :])
    y_hi, y_lo = forms.view(float).reshape(2, *stack, 2 * n, 2 * p)
    x_hi, x_lo = x[0].view(float), x[1].view(float)
    x1, x2, x3, x23 = _slices(x_hi, -1)
    y1, y2, y3, y23 = _slices(y_hi, -2)
    hi, lo = _two_sum(x1 @ y1, np.concatenate([x1, x2], axis=-1) @ np.concatenate([y2, y1], axis=-2))
    rest = np.concatenate([x1, x3, x23, x_hi, x_lo], axis=-1) @ np.concatenate([y3, y1, y23, y_lo, y_hi], axis=-2)
    hi, lo = _fast_two_sum(hi, lo + rest)
    return hi.view(complex), lo.view(complex)


# --- composition, log and Pauli split -----------------------------------------

def _segment_gaps(seq: PulseSequence) -> tuple[list, np.ndarray]:
    """The distinct exact lengths of the nonzero segments, and each one's index into them, in time order."""
    # Every bound is an integer over den 2^shift: a numerator, or a float M 2^(e - 53), M < 2^53.
    den, floats = seq.denominator, ~seq.exact
    mantissas, exponents = np.frexp(seq.instants[floats])
    shift = max(0, 53 - int(exponents.min(initial=53)))
    bounds = np.concatenate(([0], seq.numerators, [den])).astype(object) * (1 << shift)
    bounds[1:-1][floats] = [int(m) * den << (shift + e - 53)
                            for m, e in zip((mantissas * 2.0**53).tolist(), exponents.tolist())]
    distinct = {}
    ids = [distinct.setdefault(step, len(distinct)) for step in np.diff(bounds).tolist() if step > 0]
    return [Fraction(step, den << shift) for step in distinct], np.array(ids, dtype=np.int64)


def _product(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The deviation of (I + later)(I + earlier) for (..., 2, n, n) stacks of (hi, lo) parts, into out."""
    e, w = (later[..., 0, :, :], later[..., 1, :, :]), (earlier[..., 0, :, :], earlier[..., 1, :, :])
    return np.stack(_add(_add(e, w), _matmul(e, w)), axis=-3, out=out)


def _compose(seq: PulseSequence, ops: BathOperators, durations: list):
    """W with ctrl^+ U = I + W per duration, the segment count, and the items a series could not reach."""
    d = ops.dim
    plan = segment_plan(seq)
    gaps, segment_gaps = _segment_gaps(seq)
    h = total_hamiltonian(ops)
    radius = spectral_norm(h)
    scale = 2.0 ** math.ceil(math.log2(radius)) if radius > 0 else 1.0
    k = -1j * h / scale  # |k| <= 1
    # expm1 of k x, x = scale * gap * t, is the sum of x^j k^j / j!; each
    # (gap, duration) item stops at its own last term.
    steps = np.array([[_dd(gap * Fraction(t) * Fraction(scale)) for t in durations] for gap in gaps])
    with np.errstate(divide="ignore"):
        log_x = np.log(steps[..., 0])
    extra = _term_counts(lambda j: j * log_x - math.lgamma(j + 2), log_x.shape)
    x = (steps[..., 0, None, None], steps[..., 1, None, None])
    coefs, powers = [x], [(k, np.zeros_like(k))]
    while len(powers) <= extra.max(initial=0):
        coefs.append(_masked(_div(_mul(coefs[-1], x), float(len(coefs) + 1)), (extra >= len(coefs))[..., None, None]))
        powers.append(_matmul(powers[-1], powers[0]))
    # Terms past an item's own last are exact zeros, so each gap takes every power.
    factors = _mul(powers[0], x)
    for j in range(1, len(powers)):
        factors = _add(factors, _mul(powers[j], coefs[j]))
    # A leaf is a segment's (gap, frame): F^+ E F, F the pulse product before it, whose phase
    # cancels in exact arithmetic and is left out.
    keys, leaf_ids = np.unique(segment_gaps * 4 + plan.frames, return_inverse=True)
    factors = np.stack(factors, axis=-3)
    leaves = np.array([conjugate_frame(factors[key // 4], key % 4) for key in keys.tolist()])
    del factors, powers  # freed before the reduction's levels of nodes take their place
    tree = reduction_plan(np.asarray(leaf_ids, dtype=np.int64).tobytes(), stack_points(d))
    # One pair per product: a double-double product's temporaries are about a hundred times its operands.
    w = reduce_pairwise(tree, leaves, _product, 1)
    return (w[:, 0], w[:, 1]), len(segment_gaps), (extra < 0).any(axis=0)


def _log(w, errors: list):
    """log(I + W) = 2 atanh(Z), Z = (2I + W)^-1 W, per item, and the bound |M| on its eigenphases.

    Items the series cannot reach get a BranchAmbiguityError in errors and
    are zeroed, so their powers stay finite; their log is meaningless.
    """
    z0, singular = shifted_solve(w[0])
    k = -1j * z0  # tan(-M/2), Hermitian
    lam = np.abs(np.linalg.eigvalsh((k + np.swapaxes(k.conj(), -1, -2)) / 2)).max(axis=-1)
    lam[singular] = np.inf
    phases = 2 * np.arctan(lam)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    # Term j after the first of Z + Z^3/3 + ... is about lam^2j / (2j + 1) of it.
    extra = _term_counts(lambda j: 2 * j * log_lam - math.log(2 * j + 1), lam.shape)
    for g in np.nonzero(extra < 0)[0]:
        errors[g] = errors[g] or BranchAmbiguityError(
            "series log diverging: eigenphases too large for the extended path; shrink the duration",
            eigenphase=float(phases[g]),
        )
    live = np.array([e is None for e in errors])
    terms = np.where(live, extra, 0)
    w, z0 = _masked(w, live[:, None, None]), np.where(live[:, None, None], z0, 0.0)
    zero = np.zeros_like(z0)
    # One refinement in double-double: Z = Z0 + (2I + W)^-1 (W - 2 Z0 - W Z0).
    residual = _add(_add(w, (-2 * z0, zero)), _neg(_matmul(w, (z0, zero))))
    z = _two_sum(z0, shifted_solve(w[0], residual[0])[0])
    z2, total, power = _matmul(z, z), z, z
    for j in range(1, int(terms.max(initial=0)) + 1):
        power = _matmul(power, z2)
        total = _add(total, _masked(_div(power, float(2 * j + 1)), (terms >= j)[:, None, None]))
    return (2 * total[0], 2 * total[1]), phases


def _generators(seq: PulseSequence, ops: BathOperators, durations: list):
    """log(ctrl^+ U) = -i M per duration (complex double-double), the floors and per-item errors."""
    w, segments, too_long = _compose(seq, ops, durations)
    errors = [BranchAmbiguityError("a segment is too long for the extended path; shrink the duration")
              if failed else None for failed in too_long]
    log, phases = _log(w, errors)
    errors = [exc and BranchAmbiguityError(f"{exc} (schedule {seq.label!r} at t={t:g})", eigenphase=exc.eigenphase, t=t)
              for exc, t in zip(errors, durations)]
    return log, FLOOR_UNIT * phases * segments, errors


def _pauli_blocks(log, durations: list) -> list:
    """a_g = tr_qubit[(sigma_g (x) I) M] / (2t) for g = 0, x, y, z, as (G, d, d) complex128.

    With M = i log and log's qubit blocks L_ab, 2t a_0, 2t a_x, 2t a_y, 2t a_z
    are i(L00 + L11), i(L01 + L10), -(L01 - L10) and i(L00 - L11).  Each is
    made Hermitian and divided by 2t in double-double, so a tiny block is not
    swamped by the rounding of a large one.
    """
    d = log[0].shape[-1] // 2
    (l00, l01), (l10, l11) = [[tuple(p[..., r:r + d, c:c + d] for p in log) for c in (0, d)] for r in (0, d)]
    sums = (_add(l00, l11), _add(l01, l10), _add(l01, _neg(l10)), _add(l00, _neg(l11)))
    four_t = 4 * np.asarray(durations, dtype=float)[:, None, None]
    blocks = []
    for total, phase in zip(sums, (1j, 1j, -1, 1j)):
        total = (phase * total[0], phase * total[1])
        total = _add(total, tuple(np.swapaxes(p.conj(), -1, -2) for p in total))
        blocks.append(_div(total, four_t)[0])
    return blocks


def _evaluate(seq: PulseSequence, ops: BathOperators, durations):
    """Stacked effective generator, functionals with floors, and per-item errors."""
    durations = [seq.total_duration] if durations is None else [float(t) for t in durations]
    log, floor, errors = _generators(seq, ops, durations)
    eff = EffectiveHamiltonian(*_pauli_blocks(log, durations), t=np.array(durations))
    return eff, {**error_functionals(eff), "floor": floor}, errors


def sequence_effective(seq: PulseSequence, ops: BathOperators) -> EffectiveHamiltonian:
    """High-precision effective generator of a schedule under a model.

    The net control rotation is removed, as in the double pipeline.
    """
    eff, _, errors = _evaluate(seq, ops, None)
    if errors[0] is not None:
        raise errors[0]
    return EffectiveHamiltonian(*(a[0] for _, a in eff.items()), t=seq.total_duration)


def sequence_error_functionals(seq: PulseSequence, ops: BathOperators, durations=None):
    """E_flip / E_dephase / E_total of a schedule and ``floor``, their estimated absolute error.

    With ``durations`` the schedule is re-timed to each of them in one
    stacked pass: each entry is then a (G,) array, and a list holding, per
    item, the exception a separate call would raise, or None, comes with it.
    """
    _, funcs, errors = _evaluate(seq, ops, durations)
    if durations is not None:
        return funcs, errors
    if errors[0] is not None:
        raise errors[0]
    return {key: float(value[0]) for key, value in funcs.items()}
