"""Extended-precision residual-coupling evaluation via mpmath.

Steep suppression orders push the residual couplings below the double
roundoff floor (about 1e-15 in the extracted generator) on the small-duration
grids used for order fits; a fifth-order family at alpha*t = 1e-3 sits at
1e-15 exactly.  This engine redoes the evolution and the principal log in
arbitrary precision, splits the generator into its four Pauli blocks there,
and only then converts the blocks to floats, which represent even the tiny
ones with full relative accuracy.

Matrices are rows of raw mpmath ``(re, im)`` tuples.  Every product runs
through one kernel that forms each entry as mpmath's ``fdot`` does: the exact
products in the same order, summed and rounded once.  Each value therefore
equals, tuple for tuple, what the same steps on ``mpmath.matrix`` objects
give.  The eigensystem of H is computed once per model and precision and
shared by every schedule composed under it; each distinct segment factor
q diag(exp(-i lambda dt)) q^+ is formed once per composition; pulses and the
net control rotation are exact row operations (a product with +-1 or +-i
adds no rounding).

The log uses the Mercator series log(I + X) with X = U - I, valid while all
eigenphases stay below pi/3; scans run at alpha*t <= 0.1 where phases stay
below ~0.5.  Divergence is detected by growth of the term norms.
"""

from __future__ import annotations

import threading

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    finf,
    fnone,
    fone,
    fzero,
    from_float,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sqrt,
    mpf_sub,
    mpf_sum,
    to_float,
)

from .bath import BathOperators, total_hamiltonian
from .effective import BranchAmbiguityError, EffectiveHamiltonian, error_functionals
from .evolution import _pulse_rows, _qubit_rows, control_product
from .sequences import PauliAxis, PulseSequence

DEFAULT_DPS = 40
# Fewer digits than a double carries would make the extended path the less
# accurate one.
MIN_DPS = 16

# mpmath's working precision is process-global state; concurrent scans must
# not interleave workdps blocks.
_MP_LOCK = threading.Lock()


def _to_mp(a: np.ndarray) -> mp.matrix:
    n, m = a.shape
    out = mp.matrix(n, m)
    for i in range(n):
        for j in range(m):
            v = complex(a[i, j])
            if v != 0:
                out[i, j] = mp.mpc(v.real, v.imag)
    return out


def _raw(a: mp.matrix) -> list:
    """Rows of (re, im) raw mpf tuples of an mpmath matrix; a real entry has im = 0."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(a.cols):
            v = a[i, j]
            row.append(v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, fzero))
        rows.append(row)
    return rows


def _matmul(a: list, b: list, prec: int, rnd: str) -> list:
    """a @ b on raw rows, each entry formed as mpmath's fdot forms it.

    For each k in order, the exact products re_a re_b and -(im_a im_b) go to
    the real list and re_a im_b, im_a re_b to the imaginary list; each list
    is summed and rounded once by mpf_sum.  Products with a zero entry of a
    are left out, which changes nothing since mpf_sum skips zeros.
    """
    cols = list(zip(*b))
    out = []
    for row in a:
        # mpf_mul(-x, y) is the tuple mpf_neg(mpf_mul(x, y)).
        terms = [(k, re, im, mpf_neg(im)) for k, (re, im) in enumerate(row) if re[1] or im[1]]
        out_row = []
        for col in cols:
            real, imag = [], []
            for k, a_re, a_im, a_nim in terms:
                b_re, b_im = col[k]
                real.append(mpf_mul(a_re, b_re))
                real.append(mpf_mul(a_nim, b_im))
                imag.append(mpf_mul(a_re, b_im))
                imag.append(mpf_mul(a_im, b_re))
            out_row.append((mpf_sum(real, prec, rnd), mpf_sum(imag, prec, rnd)))
        out.append(out_row)
    return out


def _times_phase(z: complex, row: list) -> list:
    """z * row for z in {1, -1, i, -i}: exact, by swapping and negating parts."""
    if z == 1:
        return row
    if z == -1:
        return [(mpf_neg(re), mpf_neg(im)) for re, im in row]
    if z == 1j:
        return [(mpf_neg(im), re) for re, im in row]
    return [(im, mpf_neg(re)) for re, im in row]


def _apply_rows(rows, u: list) -> list:
    """(q (x) I_d) @ u for the row permutation and phases of evolution._qubit_rows."""
    perm, scale = rows
    if perm is not None:
        u = [u[k] for k in perm]
    if scale is not None:
        u = [_times_phase(complex(z), row) for z, row in zip(scale[:, 0], u)]
    return u


def _eigensystem(ops: BathOperators, dps: int):
    """(evals, q, q^+) of H at dps digits, computed once per model and precision.

    The caller holds _MP_LOCK inside mp.workdps(dps).  evals are mpf numbers,
    q and q^+ raw rows.
    """
    cache = ops.extended_eigensystems
    if dps not in cache:
        evals, q = mp.eighe(_to_mp(total_hamiltonian(ops)))
        cache[dps] = ([evals[k] for k in range(q.rows)], _raw(q), _raw(q.transpose_conj()))
    return cache[dps]


def _segment(eigensystem, dt: mp.mpf, prec: int, rnd: str) -> list:
    """q diag(exp(-i lambda dt)) q^+ on raw rows."""
    evals, q, q_h = eigensystem
    phases = [mp.exp(-1j * e * dt)._mpc_ for e in evals]
    q_phases = [
        [
            (
                mpf_sum([mpf_mul(q_re, p_re), mpf_neg(mpf_mul(q_im, p_im))], prec, rnd),
                mpf_sum([mpf_mul(q_re, p_im), mpf_mul(q_im, p_re)], prec, rnd),
            )
            for (q_re, q_im), (p_re, p_im) in zip(row, phases)
        ]
        for row in q
    ]
    return _matmul(q_phases, q_h, prec, rnd)


def _frobenius(a: list, prec: int, rnd: str):
    """Frobenius norm of raw rows, as mpmath's mnorm(a, 'f') computes it."""
    squares = []
    for row in a:
        for re, im in row:
            squares.append(mpf_mul(re, re))
            squares.append(mpf_mul(im, im))
    return mpf_sqrt(mpf_sum(squares, prec, rnd, True), prec, rnd)


def _series_log(u: list, dps: int, prec: int, rnd: str) -> list:
    """Principal log of a unitary close to the identity, by Mercator series."""
    # X = U - I; the first term X^1 is X itself.
    x = [
        [(mpf_add(re, fnone, prec, rnd), im) if i == j else (re, im) for j, (re, im) in enumerate(row)]
        for i, row in enumerate(u)
    ]
    term = x
    total = [[(fzero, fzero)] * len(u) for _ in u]
    floor = (mp.mpf(10) ** (-(dps + 6)))._mpf_
    prev_norm = finf
    for k in range(1, 1000):
        if k > 1:
            term = _matmul(term, x, prec, rnd)
        norm = _frobenius(term, prec, rnd)
        if k > 3 and mpf_gt(norm, prev_norm):
            raise BranchAmbiguityError(
                "series log diverging: eigenphases too large for the extended path; shrink the duration"
            )
        prev_norm = norm
        c = (mp.mpf(-1) ** (k + 1) / k)._mpf_
        total = [
            [
                (
                    mpf_add(s_re, mpf_mul(t_re, c, prec, rnd), prec, rnd),
                    mpf_add(s_im, mpf_mul(t_im, c, prec, rnd), prec, rnd),
                )
                for (s_re, s_im), (t_re, t_im) in zip(s_row, t_row)
            ]
            for s_row, t_row in zip(total, term)
        ]
        if mpf_lt(norm, floor):
            return total
    raise BranchAmbiguityError("series log did not converge; shrink the duration")


def _generator(seq: PulseSequence, ops: BathOperators, dps: int) -> list:
    """Hermitian M with ctrl^+ U = exp(-i M), as raw rows.

    The caller holds _MP_LOCK inside mp.workdps(dps).
    """
    prec, rnd = mp.mp._prec_rounding
    d = ops.dim
    eigensystem = _eigensystem(ops, dps)
    t = mp.mpf(seq.total_duration)
    factors = {}

    def segment(u, dt):
        factor = factors.get(dt._mpf_)
        if factor is None:
            factor = factors[dt._mpf_] = _segment(eigensystem, dt, prec, rnd)
        return _matmul(factor, u, prec, rnd)

    rows = {axis: _pulse_rows(axis, d) for axis in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)}
    u = [[(fone if i == j else fzero, fzero) for j in range(2 * d)] for i in range(2 * d)]
    prev = mp.mpf(0)
    for p in seq.pulses:
        frac = (
            mp.mpf(p.instant.numerator) / p.instant.denominator
            if p.is_exact
            else mp.mpf(p.instant)
        )
        if frac > prev:
            u = segment(u, (frac - prev) * t)
        u = _apply_rows(rows[p.axis], u)
        prev = frac
    if prev < 1:
        u = segment(u, (1 - prev) * t)
    u = _apply_rows(_qubit_rows(control_product(seq).conj().T, d), u)

    log = _series_log(u, dps, prec, rnd)
    # M = i log, then (M + M^+) / 2; i (re + i im) = -im + i re.
    m = [[(mpf_neg(im), re) for re, im in row] for row in log]
    half = mp.mpf("0.5")._mpf_
    return [
        [
            (
                mpf_mul(mpf_add(a_re, b_re, prec, rnd), half, prec, rnd),
                mpf_mul(mpf_sub(a_im, b_im, prec, rnd), half, prec, rnd),
            )
            for (a_re, a_im), (b_re, b_im) in zip(row, col)
        ]
        for row, col in zip(m, zip(*m))
    ]


def _pauli_blocks(m: list, t: float, prec: int, rnd: str) -> list:
    """a_g = tr_qubit[(sigma_g (x) I) M] / (2t) for g = 0, x, y, z, as complex128.

    Each block entry is summed exactly and divided by 2t in mpmath, so a
    tiny block is not swamped by the rounding of a large one.
    """
    d = len(m) // 2
    two_t = from_float(2.0 * t)
    blocks = [np.empty((d, d), dtype=complex) for _ in range(4)]
    for i in range(d):
        for j in range(d):
            (a_re, a_im), (b_re, b_im) = m[i][j], m[i + d][j + d]
            (c_re, c_im), (e_re, e_im) = m[i][j + d], m[i + d][j]
            sums = (
                (mpf_add(a_re, b_re), mpf_add(a_im, b_im)),  # m00 + m11
                (mpf_add(c_re, e_re), mpf_add(c_im, e_im)),  # m01 + m10
                (mpf_sub(e_im, c_im), mpf_sub(c_re, e_re)),  # i (m01 - m10)
                (mpf_sub(a_re, b_re), mpf_sub(a_im, b_im)),  # m00 - m11
            )
            for block, parts in zip(blocks, sums):
                block[i, j] = complex(*(to_float(mpf_div(x, two_t, prec, rnd), rnd=rnd) for x in parts))
    return blocks


def sequence_effective(seq: PulseSequence, ops: BathOperators, dps: int = DEFAULT_DPS) -> EffectiveHamiltonian:
    """High-precision effective generator of a schedule under a model.

    The net control rotation (ordered product of the ideal pulse factors) is
    removed before the log, exactly as in the double-precision pipeline.
    The Pauli blocks are split at dps digits and only then rounded to
    complex128.  Raises ValueError when dps is below MIN_DPS.
    """
    if dps < MIN_DPS:
        raise ValueError(f"extended precision needs at least {MIN_DPS} digits, got dps={dps}")
    with _MP_LOCK, mp.workdps(dps):
        m = _generator(seq, ops, dps)
        blocks = _pauli_blocks(m, seq.total_duration, *mp.mp._prec_rounding)
    return EffectiveHamiltonian(*blocks, t=seq.total_duration)


def sequence_error_functionals(seq: PulseSequence, ops: BathOperators, dps: int = DEFAULT_DPS) -> dict:
    """E_flip / E_dephase / E_total of a schedule, evaluated at high precision."""
    return error_functionals(sequence_effective(seq, ops, dps))
