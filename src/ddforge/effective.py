"""Effective-generator extraction and the concatenation-step predictor.

The principal Hermitian generator M with U = exp(-i M) is recovered by
simultaneously diagonalizing the commuting Hermitian pair (U + U^+)/2 and
(U - U^+)/(2i): eigenvectors come from the cosine part, refined inside
degenerate clusters by the sine part, and the eigenphase is atan2(sin, cos).
Eigenphases must stay clear of the +-pi branch cut; callers shrink the
duration when they do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import _GAMMA_SIGMA, SIGMA
from .evolution import apply_qubit_factor, control_product, sequence_unitary

BRANCH_MARGIN = 0.1
_CLUSTER_TOL = 1e-8


class BranchAmbiguityError(ArithmeticError):
    """An eigenphase sits within the safety margin of the +-pi branch cut."""

    def __init__(self, message: str, eigenphase: float | None = None, t: float | None = None):
        super().__init__(message)
        self.eigenphase = eigenphase
        self.t = t


def unitary_log(u: np.ndarray, margin: float = BRANCH_MARGIN) -> np.ndarray:
    """Hermitian M with u = exp(-i M), eigenphases in (-pi, pi).

    Raises BranchAmbiguityError when any eigenphase of u comes within
    ``margin`` of +-pi.  The reconstruction exp(-i M) is verified to 1e-9.
    """
    u = np.asarray(u, dtype=complex)
    cos_part = (u + u.conj().T) / 2
    sin_part = (u - u.conj().T) / (2j)
    w, v = np.linalg.eigh(cos_part)
    phases = np.empty_like(w)
    vecs = np.array(v)
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[i] < _CLUSTER_TOL:
            j += 1
        block = v[:, i:j]
        sin_block = block.conj().T @ sin_part @ block
        sw, sv = np.linalg.eigh((sin_block + sin_block.conj().T) / 2)
        vecs[:, i:j] = block @ sv
        phases[i:j] = np.arctan2(sw, w[i:j])
        i = j
    worst = phases[np.abs(phases).argmax()]
    if np.abs(worst) > np.pi - margin:
        raise BranchAmbiguityError(
            f"eigenphase {worst:+.4f} rad within {margin} of the branch cut; shrink the duration",
            eigenphase=float(worst),
        )
    m = (vecs * (-phases)) @ vecs.conj().T
    m = (m + m.conj().T) / 2
    evals, evecs = np.linalg.eigh(m)
    residual = np.abs((evecs * np.exp(-1j * evals)) @ evecs.conj().T - u).max()
    if residual > 1e-9:
        raise ArithmeticError(f"log reconstruction residual {residual:.2e} exceeds 1e-9")
    return m


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Pauli-decomposed generator: H_eff = sum_g sigma_g (x) a_g at duration t."""

    a0: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    t: float

    def items(self):
        return (("0", self.a0), ("x", self.ax), ("y", self.ay), ("z", self.az))


def pauli_decompose(m: np.ndarray, t: float = 1.0) -> EffectiveHamiltonian:
    """Split a Hermitian 2d x 2d matrix into qubit-Pauli blocks over the bath.

    a_g * t = (1/2) tr_qubit[(sigma_g (x) I) m]; the four blocks reassemble
    m exactly by completeness of the Pauli basis.
    """
    d = m.shape[0] // 2
    m00, m01 = m[:d, :d], m[:d, d:]
    m10, m11 = m[d:, :d], m[d:, d:]
    return EffectiveHamiltonian(
        a0=(m00 + m11) / (2 * t),
        ax=(m01 + m10) / (2 * t),
        ay=1j * (m01 - m10) / (2 * t),
        az=(m00 - m11) / (2 * t),
        t=t,
    )


def pauli_reassemble(eff: EffectiveHamiltonian) -> np.ndarray:
    """Inverse of pauli_decompose: sum_g sigma_g (x) (a_g t)."""
    d = eff.a0.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for g, a in eff.items():
        out += np.kron(SIGMA[_GAMMA_SIGMA[g]], a * eff.t)
    return out


def _norm(a: np.ndarray) -> float:
    if not np.any(a):
        return 0.0
    return float(np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2)).max())


def error_functionals(eff: EffectiveHamiltonian) -> dict:
    """Amplitude-level residual couplings of an effective generator.

    E_flip = t max(|a_x|, |a_y|), E_dephase = t |a_z|, E_total their max;
    the pure-bath block a_0 never acts on the qubit and is excluded.  On
    log-log axes versus duration these scale directly with the suppression
    order.
    """
    e_flip = eff.t * max(_norm(eff.ax), _norm(eff.ay))
    e_dephase = eff.t * _norm(eff.az)
    return {"E_flip": e_flip, "E_dephase": e_dephase, "E_total": max(e_flip, e_dephase)}


def sequence_effective(seq, ops) -> EffectiveHamiltonian:
    """Effective generator of a schedule under a model (double precision).

    Composes the sequence unitary, removes the net control rotation (the
    ordered product of the ideal pulse factors, phase included; odd pulse
    counts otherwise park eigenphases on the branch cut), then takes the
    principal log and splits it into Pauli blocks.
    """
    result = sequence_unitary(seq, ops)
    try:
        m = unitary_log(apply_qubit_factor(control_product(seq).conj().T, result.u))
    except BranchAmbiguityError as exc:
        raise BranchAmbiguityError(
            f"{exc} (schedule {seq.label!r} at t={seq.total_duration:g})",
            eigenphase=exc.eigenphase,
            t=seq.total_duration,
        ) from None
    return pauli_decompose(m, seq.total_duration)


def magnus_cdd_predict(a0: np.ndarray, az: np.ndarray, tau0: float, level: int):
    """Leading-order prediction for n two-block concatenation steps.

    Starting from a dephasing generator (a0, az) over a block of duration
    tau0, each step doubles the duration and maps the dephasing operator to
    i (tau/2) [a0, az] while carrying a0 unchanged at leading order.
    Returns (a0_n, az_n, tau_n) with tau_n = 2^n tau0.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    a0_n = np.asarray(a0, dtype=complex)
    az_n = np.asarray(az, dtype=complex)
    tau = float(tau0)
    for _ in range(level):
        az_n = 1j * (tau / 2) * (a0_n @ az_n - az_n @ a0_n)
        tau *= 2
    return a0_n, az_n, tau
