"""Exact unitary composition of pulse schedules and a preservation fidelity.

Free segments are propagated with exp(-i H dt) through the model's one
Hermitian eigensystem (``BathOperators.eigensystem``), computed once per
model and shared by every schedule composed under it; the factor
evecs * exp(-i evals dt) is formed once per distinct segment length.  Ideal
pulses sigma_a (x) I_d act on the qubit slot as exact row permutations and
sign (or +-i) changes of the running product, with the same values as the
dense Pauli factor.  Everything stays dense; dimensions of interest are
2d <= 128.
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
        u = u.take(perm, axis=0)
    if scale is not None:
        u = u * scale
    return u


def apply_qubit_factor(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(q (x) I_d) @ u for a phase times a Pauli matrix q, without a matmul.

    Every output row block is one input block times 1, -1, i or -i, so the
    result holds exactly the values of the dense product.
    """
    return _apply_rows(_qubit_rows(q, u.shape[0] // 2), u)


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


@dataclass(frozen=True, eq=False)
class UnitaryResult:
    """Composed sequence unitary with schedule metadata; unitary to 1e-10."""

    u: np.ndarray
    total_duration: float
    pulse_count: int
    label: str = ""

    def __post_init__(self):
        defect = np.abs(self.u.conj().T @ self.u - np.eye(self.u.shape[0])).max()
        if defect > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: defect {defect:.2e}")
        self.u.flags.writeable = False


def sequence_unitary(seq: PulseSequence, ops: BathOperators) -> UnitaryResult:
    """Time-ordered product of segment exponentials and pulse factors.

    Later factors multiply on the left; zero-length segments (boundary
    pulses) are skipped.  The result is unitary to 1e-10.
    """
    evals, evecs = ops.eigensystem
    evecs_h = evecs.conj().T
    factors = {}

    def segment(u, dt):
        factor = factors.get(dt)
        if factor is None:
            factor = factors[dt] = evecs * np.exp(-1j * evals * dt)
        return factor @ (evecs_h @ u)

    d = ops.dim
    rows = {axis: _pulse_rows(axis, d) for axis in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)}
    u = np.eye(2 * d, dtype=complex)
    prev = 0.0
    for p in seq.pulses:
        frac = p.t_frac
        if frac > prev:
            u = segment(u, (frac - prev) * seq.total_duration)
        u = _apply_rows(rows[p.axis], u)
        prev = frac
    if prev < 1.0:
        u = segment(u, (1.0 - prev) * seq.total_duration)
    return UnitaryResult(u=u, total_duration=seq.total_duration, pulse_count=seq.pulse_count, label=seq.label)


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
