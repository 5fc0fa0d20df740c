"""Exact unitary composition of pulse schedules and a preservation fidelity.

Free segments are propagated with exp(-i H dt) through the model's one
Hermitian eigensystem (``BathOperators.eigensystem``), computed once per
model and shared by every schedule composed under it.  Ideal pulses
sigma_a (x) I_d act on the qubit slot as exact row permutations and sign (or
+-i) changes of the running product, with the same values as the dense Pauli
factor.  Everything stays dense; dimensions of interest are 2d <= 128.

Schedule instants are fractions of the total duration, so one pass over the
pulses composes a schedule at a whole grid of durations: the running product
is a (G, 2d, 2d) stack, each distinct fractional gap forms its G segment
factors evecs * exp(-i evals gap t_g) once, and every pulse is one row
operation on the stack.  Each item gets exactly the values a separate
composition at its duration would.  A single composition is the G = 1 case
of the same loop.  Callers split a grid into stacks of at most STACK_BYTES of
matrices (``stack_points``): at d = 4 a whole grid fits, at d = 64 a stack
holds one point, since larger stacks of 128 x 128 matrices measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bath import SIGMA, BathOperators
from .sequences import PauliAxis, PulseSequence

HERMITICITY_TOL = 1e-10


def _check_hermitian(h: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")


def expm_segment(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via eigendecomposition."""
    _check_hermitian(h)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def pulse_unitary(axis: PauliAxis, d: int) -> np.ndarray:
    """Ideal pi pulse sigma_axis (x) I_d (bare Pauli phase convention)."""
    axis = PauliAxis(axis)
    if axis is PauliAxis.I:
        raise ValueError("no pulse about the identity")
    return np.kron(SIGMA[axis.value], np.eye(d, dtype=complex))


def _qubit_rows(q: np.ndarray, d: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Row permutation and row phases that apply q (x) I_d from the left.

    q must be a phase times a Pauli matrix: one nonzero entry per row, each
    in {+-1, +-i}.  Either part is None when it would be the identity.
    """
    q = np.asarray(q)
    if q.shape != (2, 2) or np.count_nonzero(q) != 2:
        raise ValueError("expected a phase times a Pauli matrix")
    cols = np.abs(q).argmax(axis=1)
    phases = q[(0, 1), cols]
    if cols[0] == cols[1] or not all(z in (1, -1, 1j, -1j) for z in phases):
        raise ValueError("expected a phase times a Pauli matrix")
    perm = None
    if cols.tolist() != [0, 1]:
        perm = np.concatenate([c * d + np.arange(d) for c in cols])
        perm.flags.writeable = False
    scale = None
    if np.any(phases != 1):
        scale = np.repeat(phases.astype(complex), d)[:, None]
        scale.flags.writeable = False
    return perm, scale


def _apply_rows(rows, u: np.ndarray) -> np.ndarray:
    perm, scale = rows
    if perm is not None:
        u = u.take(perm, axis=-2)
    if scale is not None:
        u = u * scale
    return u


def apply_qubit_factor(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(q (x) I_d) @ u for a phase times a Pauli matrix q, without a matmul.

    u may be a (..., 2d, 2d) stack; the factor applies to every matrix.

    Every output row block is one input block times 1, -1, i or -i, so the
    result holds exactly the values of the dense product.
    """
    return _apply_rows(_qubit_rows(q, u.shape[-1] // 2), u)


@lru_cache(maxsize=None)
def _pulse_rows(axis: PauliAxis, d: int):
    # X swaps the qubit row blocks, Z negates the lower one and Y maps
    # (top, bottom) to (-i bottom, i top).
    return _qubit_rows(SIGMA[axis.value], d)


def control_product(seq: PulseSequence) -> np.ndarray:
    """Ordered 2x2 product of the ideal pulse factors alone.

    This is the net control rotation the schedule would apply with the bath
    switched off (phase included).  Odd pulse counts leave a net pi rotation
    that is control action, not decoherence; effective-generator extraction
    removes it first.
    """
    out = SIGMA["I"].copy()
    for p in seq.pulses:
        out = SIGMA[p.axis.value] @ out
    return out


UNITARITY_TOL = 1e-10

# Upper bound on the bytes of complex128 matrices composed in one stack.
STACK_BYTES = 256 * 1024


def stack_points(d: int) -> int:
    """Durations composed in one stack at bath dimension d (at least one)."""
    return max(1, STACK_BYTES // (16 * (2 * d) ** 2))


def _unitarity_defect(u: np.ndarray):
    """max |u^+ u - I| of a matrix, or per matrix of a (..., n, n) stack."""
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    return np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))


def _unitarity_error(defect) -> ValueError | None:
    if defect > UNITARITY_TOL:
        return ValueError(f"matrix is not unitary: defect {defect:.2e}")
    return None


@dataclass(frozen=True, eq=False)
class UnitaryResult:
    """Composed sequence unitary with schedule metadata; unitary to 1e-10."""

    u: np.ndarray
    total_duration: float
    pulse_count: int
    label: str = ""

    def __post_init__(self):
        error = _unitarity_error(_unitarity_defect(self.u))
        if error is not None:
            raise error
        self.u.flags.writeable = False


def _compose(seq: PulseSequence, ops: BathOperators, durations: np.ndarray) -> np.ndarray:
    """The schedule's unitary at each duration: shape durations.shape + (2d, 2d)."""
    evals, evecs = ops.eigensystem
    evecs_h = evecs.conj().T
    factors = {}

    def segment(u, gap):
        factor = factors.get(gap)
        if factor is None:
            phases = np.exp(-1j * evals * (gap * durations)[..., None])
            factor = factors[gap] = evecs * phases[..., None, :]
        return factor @ (evecs_h @ u)

    d = ops.dim
    rows = {axis: _pulse_rows(axis, d) for axis in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)}
    u = np.broadcast_to(np.eye(2 * d, dtype=complex), durations.shape + (2 * d, 2 * d)).copy()
    prev = 0.0
    for p in seq.pulses:
        frac = p.t_frac
        if frac > prev:
            u = segment(u, frac - prev)
        u = _apply_rows(rows[p.axis], u)
        prev = frac
    if prev < 1.0:
        u = segment(u, 1.0 - prev)
    return u


def sequence_unitary(seq: PulseSequence, ops: BathOperators, durations=None):
    """Time-ordered product of segment exponentials and pulse factors.

    Later factors multiply on the left; zero-length segments (boundary
    pulses) are skipped.  The result is unitary to 1e-10.

    With ``durations`` the schedule is composed re-timed to each of them in
    one stacked pass, and the result is the read-only (G, 2d, 2d) stack with
    a list holding, per item, the ValueError its unitarity check failed
    with, or None.  A failed item does not stop the others.
    """
    if durations is None:
        u = _compose(seq, ops, np.float64(seq.total_duration))
        return UnitaryResult(u=u, total_duration=seq.total_duration, pulse_count=seq.pulse_count, label=seq.label)
    u = _compose(seq, ops, np.asarray(durations, dtype=float))
    u.flags.writeable = False
    return u, [_unitarity_error(defect) for defect in _unitarity_defect(u)]


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
