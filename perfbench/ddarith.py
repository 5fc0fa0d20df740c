"""Double-double reference engine for the residual couplings at d=64.

mpmath needs minutes per matrix product at 128x128, so the d=64 references
come from this engine instead: every matrix is a pair (hi, lo) of float64
arrays in the real embedding [[X, -Y], [Y, X]] of X + iY, carrying about 32
significant digits.  Products of the hi parts are exact sums of BLAS
products of 18-bit slices (Ozaki's splitting); the cross terms hi*lo need
only double precision.  Segment propagators and the principal log are Taylor
and Mercator series, and the Pauli split happens before rounding to double,
so small blocks keep their relative accuracy.  Its absolute floor is about
1e-27: at d=4 it agrees with the mpmath references to 2.2e-6 relative
wherever they exceed 1e-26 (`make_references.py compare`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ddforge import bath, evolution

_SPLITTER = 134217729.0  # 2^27 + 1
_SLICE_BITS = 18  # two 18-bit slices times 256 terms stay below 53 bits
_SERIES_FLOOR = 1e-36


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def neg(x):
    return -x[0], -x[1]


def div_int(x, k: int):
    q = x[0] / k
    p, e = _two_prod(q, np.float64(k))
    return _fast_two_sum(q, ((x[0] - p) - e + x[1]) / k)


def _slices(a, axis: int) -> list:
    """a as three slices whose pairwise products BLAS computes exactly.

    Each slice keeps _SLICE_BITS bits relative to the largest entry of its
    row (axis=1) or column (axis=0); the last slice holds what remains.
    """
    out, rest = [], a
    for _ in range(2):
        top = np.max(np.abs(rest), axis=axis, keepdims=True)
        sigma = 0.75 * np.exp2(np.ceil(np.log2(np.where(top == 0, 1.0, top))) + 53 - _SLICE_BITS)
        part = (rest + sigma) - sigma
        out.append(part)
        rest = rest - part
    out.append(rest)
    return out


def matmul(x, y):
    zero = np.zeros((x[0].shape[0], y[0].shape[1]))
    acc = (zero, zero)
    for a in _slices(x[0], 1):
        for b in _slices(y[0], 0):
            acc = add(acc, (a @ b, zero))
    return add(acc, (x[0] @ y[1] + x[1] @ y[0], zero))


def embed(m: np.ndarray) -> np.ndarray:
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _scalar(x) -> tuple:
    """An instant (Fraction or float) as a double-double scalar."""
    if isinstance(x, Fraction):
        hi = float(x)
        return hi, float(x - Fraction(hi))
    return float(x), 0.0


def _interval(start, stop, total: float) -> tuple:
    """(stop - start) * total as a double-double scalar."""
    if isinstance(start, Fraction) and isinstance(stop, Fraction):
        length = _scalar(stop - start)
    else:
        length = _fast_two_sum(*_two_sum(np.float64(_scalar(stop)[0]), np.float64(-_scalar(start)[0])))
    p, e = _two_prod(np.float64(length[0]), np.float64(total))
    return _fast_two_sum(p, e + length[1] * total)


def _propagator(k_mat: np.ndarray, dt: tuple):
    """exp(K dt) for the embedded generator K = embed(-i H), by Taylor series."""
    hi, lo = _two_prod(k_mat, np.float64(dt[0]))
    kdt = _fast_two_sum(hi, lo + k_mat * dt[1])
    eye = np.eye(k_mat.shape[0])
    total = term = (eye, np.zeros_like(eye))
    for k in range(1, 200):
        term = div_int(matmul(term, kdt), k)
        total = add(total, term)
        if np.abs(term[0]).max() < _SERIES_FLOOR:
            return total
    raise ArithmeticError("propagator series did not converge")


def _log(u):
    """Principal log of u close to the identity, by the Mercator series."""
    eye = np.eye(u[0].shape[0])
    w = add(u, (-eye, np.zeros_like(eye)))
    total = power = w
    for k in range(2, 400):
        power = matmul(power, w)
        term = div_int(power, k)
        total = add(total, term if k % 2 else neg(term))
        if np.abs(term[0]).max() < _SERIES_FLOOR:
            return total
    raise ArithmeticError("log series did not converge")


def _norm(re, im) -> float:
    a = (re[0] + re[1]) + 1j * (im[0] + im[1])
    if not np.any(a):
        return 0.0
    return float(np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2)).max())


def error_functionals(seq, ops) -> dict:
    """E_flip, E_dephase, E_total of a schedule, as ddforge defines them."""
    d = ops.dim
    n = 2 * d
    k_mat = embed(-1j * bath.total_hamiltonian(ops))
    cache = {}
    u = (np.eye(2 * n), np.zeros((2 * n, 2 * n)))
    prev = Fraction(0)
    instants = [(p.instant, embed(evolution.pulse_unitary(p.axis, d))) for p in seq.pulses]
    for instant, pulse in instants + [(Fraction(1), None)]:
        if instant > prev:
            dt = _interval(prev, instant, seq.total_duration)
            if dt not in cache:
                cache[dt] = _propagator(k_mat, dt)
            u = matmul(cache[dt], u)
        if pulse is not None:
            u = (pulse @ u[0], pulse @ u[1])  # signed permutation: exact
        prev = instant
    ctrl = embed(np.kron(evolution.control_product(seq), np.eye(d)).conj().T)
    log_u = _log((ctrl @ u[0], ctrl @ u[1]))

    # log_u embeds L = A + iB with exp(-iM) = exp(L), so M = iL = -B + iA.
    def block(r, c):
        rows, cols = slice(r * d, (r + 1) * d), slice(c * d, (c + 1) * d)
        re = neg((log_u[0][n:][rows, cols], log_u[1][n:][rows, cols]))
        im = (log_u[0][:n][rows, cols], log_u[1][:n][rows, cols])
        return re, im

    m00, m01, m10, m11 = block(0, 0), block(0, 1), block(1, 0), block(1, 1)
    half = 0.5
    ax = (add(m01[0], m10[0]), add(m01[1], m10[1]))
    # a_y t = i (m01 - m10) / 2: multiplying by i swaps re and im with a sign.
    ay = (neg(add(m01[1], neg(m10[1]))), add(m01[0], neg(m10[0])))
    az = (add(m00[0], neg(m11[0])), add(m00[1], neg(m11[1])))
    e_flip = half * max(_norm(*ax), _norm(*ay))
    e_dephase = half * _norm(*az)
    return {"E_flip": e_flip, "E_dephase": e_dephase, "E_total": max(e_flip, e_dephase)}
