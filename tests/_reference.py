"""Reference helpers the tests check the package against.

Each is written from its definition (a dense eigendecomposition, the 2x2
Pauli matrices, a per-pulse merge, an exact rational regression), except
``unitary_log``, which gives one matrix the stacked log of
``effective._principal_logs`` and raises its error.
"""

import math
from fractions import Fraction

import numpy as np

from ddforge.bath import _GAMMA_SIGMA, SIGMA
from ddforge.effective import _principal_logs
from ddforge.sequences import PauliAxis, Pulse


def expm_segment(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via eigendecomposition."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def unitary_log(u: np.ndarray) -> np.ndarray:
    """Hermitian M with u = exp(-i M), eigenphases in (-pi, pi).

    Raises BranchAmbiguityError when any eigenphase of u comes within
    BRANCH_MARGIN of +-pi.  The reconstruction exp(-i M) is verified to 1e-9.
    """
    u = np.asarray(u, dtype=complex)
    errors = [None]
    m, _ = _principal_logs(u[None] - np.eye(u.shape[-1]), errors)
    if errors[0] is not None:
        raise errors[0]
    return m[0]


def pauli_reassemble(eff) -> np.ndarray:
    """Inverse of pauli_decompose: sum_g sigma_g (x) (a_g t)."""
    d = eff.a0.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for g, a in eff.items():
        out += np.kron(SIGMA[_GAMMA_SIGMA[g]], a * eff.t)
    return out


def compose_axes(first: PauliAxis, second: PauliAxis) -> PauliAxis:
    """Axis of the product of two Pauli rotations, global phase discarded, from the 2x2 matrices."""
    product = SIGMA[PauliAxis(first).value] @ SIGMA[PauliAxis(second).value]
    return next(axis for axis in PauliAxis if abs(np.vdot(SIGMA[axis.value], product)) == 2)


def reference_merge(items):
    # The per-pulse merge: sort by float value, fold each run of exactly
    # equal neighbours through the Pauli table, keep an exact instant.
    merged = []
    for instant, axis in sorted(items, key=lambda p: float(p[0])):
        if merged and merged[-1][0] == instant:
            prev, prev_axis = merged[-1]
            merged[-1] = (prev if isinstance(prev, Fraction) else instant, compose_axes(prev_axis, axis))
        else:
            merged.append((instant, PauliAxis(axis)))
    return [(i, a) for i, a in merged if a is not PauliAxis.I]


def merged_per_level(base, junction_axes, levels):
    # Reference concatenation: the per-pulse merge at every level, with block
    # windows embedded by Fraction arithmetic, ending in validated Pulses.
    nblocks = len(junction_axes)
    current = list(base)
    for _ in range(levels):
        nxt = []
        for b, axis in enumerate(reversed(junction_axes)):
            nxt.append((Fraction(b, nblocks), axis))
            for instant, ax in current:
                if isinstance(instant, Fraction):
                    nxt.append((Fraction(b, nblocks) + Fraction(1, nblocks) * instant, ax))
                else:
                    nxt.append(((b + instant) / nblocks, ax))
        current = reference_merge(nxt)
    return [Pulse(i, a) for i, a in reference_merge(current)]


def cells_per_pulse(inner, cells, outer):
    # Reference cell layout: the inner (instant, axis) pairs in each of
    # ``cells`` equal cells (Fraction arithmetic where exact, the float
    # (b + x) / cells otherwise), plus the outer pairs, merged per pulse.
    items = [(Fraction(b, cells) + instant / cells if isinstance(instant, Fraction) else (b + instant) / cells, axis)
             for b in range(cells) for instant, axis in inner]
    return [Pulse(i, a) for i, a in reference_merge(items + list(outer))]


def term_counts(log_term, shape, tol: float, most: int = 200) -> np.ndarray:
    """Terms after the first that a series keeps, per item, found term by term; -1 where ``most`` do not suffice.

    log_term(j) is log(|term j| / |first term|) for the j-th term after the
    first.  An item keeps up to its last term above tol; the loop stops at
    the first j where no item's term is.
    """
    counts = np.zeros(shape, dtype=int)
    with np.errstate(invalid="ignore"):
        for j in range(1, most + 1):
            above = log_term(j) > tol
            if not above.any():
                return counts
            counts[above] = j
    counts[above] = -1
    return counts


def exact_slope(t_grid, values) -> float:
    """Least-squares slope of log E against log t over the positive values, in exact rationals.

    The logs are the float ``math.log`` of each entry; only the regression
    over them is exact, so the result is the correctly rounded slope of those
    floats.
    """
    pairs = [(Fraction(math.log(t)), Fraction(math.log(v))) for t, v in zip(t_grid, values) if v > 0]
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    return float(sxy / sum((x - mean_x) ** 2 for x, _ in pairs))
