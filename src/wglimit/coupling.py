"""Vertex coupling system: the 2x2 matrix of kernel corner values, the
boundary constants (q, xi) it determines, and their small-eps behaviour.

Substituting xi_j = p_j + i sqrt(z) q_j into the corner relation
q = eps * L_eps * xi  gives the closed 2x2 system

    q = (1 - i eps sqrt(z) L_eps)^(-1) eps L_eps p,

with L_eps the matrix of r(eps^2 z; +-1, +-1).  In the resonant case the
limiting behaviour is governed by the rank-one projector

    P0 = [[a1^2, a1 a2], [a1 a2, a2^2]] / (a1^2 + a2^2),

with weights (a1, a2) the boundary values of the zero-mode.  Writing the
corner matrix near the resonance as  -(a1^2+a2^2)/(eps^2 z) P0 + R0 + O(eps^2),
the q-map expands as

    i P0 / sqrt(z) + eps [ -P0/(a1^2+a2^2) + P0perp R0 P0perp ] + O(eps^2);

both first-order blocks are real effects (checked against the exact
zero-curvature closed form), and the deviations below subtract the full
first-order term so the remainder is genuinely second order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import sqrt_upper, vertex_kernel_at
from .profile import CurvatureProfile
from .vertex_spectrum import (DEFAULT_ZERO_TOLERANCE, CaseLabel, ShootingSolution, classify,
                              taylor_shooting)

__all__ = [
    "CouplingCoefficients",
    "DeviationReport",
    "KirchhoffProjector",
    "SingularSystemError",
    "asymptotic_deviation",
    "kirchhoff_projector",
    "resonant_projector",
    "solve_coupling",
    "solve_coupling_from_kernel",
]

DET_GUARD = 1e-12


class SingularSystemError(RuntimeError):
    """The 2x2 coupling system is numerically singular."""


@dataclass(frozen=True)
class KirchhoffProjector:
    """Rank-one projector onto the weight vector (alpha1, alpha2).

    ``perp_correction`` optionally carries the perpendicular block
    P0perp R0 P0perp of the regular part of the kernel corners at the
    resonance; it completes the first-order term of the coupling
    expansion (see resonant_projector).
    """

    alpha1: float
    alpha2: float
    lambda0: np.ndarray
    lambda0_perp: np.ndarray
    perp_correction: np.ndarray | None = None

    @property
    def weight_norm_sq(self) -> float:
        return self.alpha1**2 + self.alpha2**2


def kirchhoff_projector(alpha1: float, alpha2: float) -> KirchhoffProjector:
    nsq = alpha1 * alpha1 + alpha2 * alpha2
    if nsq <= 0.0:
        raise ValueError("weight vector (alpha1, alpha2) must be nonzero")
    lam0 = np.array([[alpha1 * alpha1, alpha1 * alpha2],
                     [alpha1 * alpha2, alpha2 * alpha2]]) / nsq
    lam0.setflags(write=False)
    perp = np.eye(2) - lam0
    perp.setflags(write=False)
    return KirchhoffProjector(alpha1, alpha2, lam0, perp)


def resonant_projector(profile: CurvatureProfile,
                       zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> KirchhoffProjector:
    """Kirchhoff projector of a resonant profile, with the perpendicular
    first-order correction P0perp R0 P0perp attached; R0 is the regular
    part of the corner matrix at the pole, in closed form from the
    profile's Taylor coefficients."""
    case = classify(profile, zero_tolerance)
    if not case.resonant:
        raise ValueError("profile is not resonant at this tolerance")
    proj = kirchhoff_projector(case.alpha1, case.alpha2)
    r0 = taylor_shooting(profile).pole_parts()[1]
    perp = proj.lambda0_perp @ r0 @ proj.lambda0_perp
    perp.setflags(write=False)
    return KirchhoffProjector(proj.alpha1, proj.alpha2, proj.lambda0,
                              proj.lambda0_perp, perp)


@dataclass(frozen=True)
class CouplingCoefficients:
    """Solved boundary constants at one (z, eps) pair."""

    z: complex
    epsilon: float
    p: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    case: CaseLabel
    back_residual: float


def _solve_2x2(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < DET_GUARD:
        raise SingularSystemError(f"|det|={abs(det):.2e} below guard {DET_GUARD}")
    return np.array([
        (m[1, 1] * rhs[0] - m[0, 1] * rhs[1]) / det,
        (m[0, 0] * rhs[1] - m[1, 0] * rhs[0]) / det,
    ])


def solve_coupling_from_kernel(kernel: ShootingSolution, z: complex, epsilon: float,
                               p, case: CaseLabel) -> CouplingCoefficients:
    """Solve the coupling system given a kernel already placed at eps^2 z."""
    p = np.asarray(p, dtype=complex)
    sq = sqrt_upper(z)
    lam = kernel.corners()
    m = np.eye(2) - 1j * epsilon * sq * lam
    rhs = epsilon * (lam @ p)
    q = _solve_2x2(m, rhs)
    # One refinement step: near the resonance the system scale grows like
    # 1/(eps z) and the raw closed-form solve leaves a residual at that
    # scale times machine precision.
    q = q + _solve_2x2(m, rhs - m @ q)
    xi = p + 1j * sq * q
    back = float(np.linalg.norm(m @ q - rhs))
    return CouplingCoefficients(complex(z), float(epsilon), p, q, xi, case, back)


def solve_coupling(profile: CurvatureProfile, z: complex, epsilon: float,
                   p) -> CouplingCoefficients:
    """Boundary constants (q, xi) for data derivatives p at the vertex."""
    case = classify(profile)
    kernel = vertex_kernel_at(profile, epsilon**2 * z)
    return solve_coupling_from_kernel(kernel, z, epsilon, p, case)


@dataclass(frozen=True)
class DeviationReport:
    """Distance of (q, xi) from their limiting forms, relative to |p|."""

    dev_q: float
    dev_xi: float
    dev_xi_naive: float | None = None


def asymptotic_deviation(coeffs: CouplingCoefficients,
                         projector: KirchhoffProjector | None) -> DeviationReport:
    """Deviation of q and xi from the case-dependent leading behaviour.

    Generic case (no projector): the limits are q -> 0, xi -> p.
    Resonant case: q -> (i/sqrt(z)) P0 p, and xi is compared against
    P0perp p - eps (i sqrt(z)/(a1^2+a2^2)) P0 p; dev_xi_naive keeps the
    first-order term in, which decays one order slower.
    """
    resonant = coeffs.case.resonant
    if resonant and projector is None:
        raise ValueError("resonant coefficients need the Kirchhoff projector")
    if not resonant and projector is not None:
        raise ValueError("generic coefficients take no projector")
    pnorm = float(np.linalg.norm(coeffs.p))
    if pnorm == 0.0:
        return DeviationReport(0.0, 0.0, 0.0 if resonant else None)
    sq = sqrt_upper(coeffs.z)
    if not resonant:
        dev_q = float(np.linalg.norm(coeffs.q)) / pnorm
        dev_xi = float(np.linalg.norm(coeffs.xi - coeffs.p)) / pnorm
        return DeviationReport(dev_q, dev_xi)
    lam0 = projector.lambda0
    perp = projector.lambda0_perp
    nsq = projector.weight_norm_sq
    q_limit = (1j / sq) * (lam0 @ coeffs.p)
    dev_q = float(np.linalg.norm(coeffs.q - q_limit)) / pnorm
    first_order = -lam0 / nsq
    if projector.perp_correction is not None:
        first_order = first_order + projector.perp_correction
    xi_first = coeffs.epsilon * 1j * sq * (first_order @ coeffs.p)
    dev_xi = float(np.linalg.norm(coeffs.xi - perp @ coeffs.p - xi_first)) / pnorm
    dev_xi_naive = float(np.linalg.norm(coeffs.xi - perp @ coeffs.p)) / pnorm
    return DeviationReport(dev_q, dev_xi, dev_xi_naive)
