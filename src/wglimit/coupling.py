"""Vertex coupling system: the boundary constants (q, xi) that the kernel
corners determine, and their small-eps behaviour.

Substituting xi_j = p_j + i sqrt(z) q_j into the corner relation
q = eps * L_eps * xi  gives  q = (1 - sigma L_eps)^(-1) eps L_eps p  with
sigma = i eps sqrt(z) and L_eps = N/W the matrix of r(eps^2 z; +-1, +-1).  As
det N = W D (``ShootingSolution``), Cayley-Hamilton removes the inverse:

    q = eps (N - sigma D) p / (W - sigma tr N + sigma^2 D),

one formula for both cases, which forms no 1/W and cancels nothing at a
resonance, where W ~ eps^2.  ``solve_coupling`` places the kernel at eps^2 z
and runs this formula (``solve_coupling_from_kernel``); every point solve,
of a sweep, a trial field or the oracle report, goes through it.  Its
denominator is shared with the vertex profile (``residual``), whose end
values phi(-1), phi(+1) are q: the solve keeps the kernel and
gain = eps / (W - sigma tr N + sigma^2 D).  In the resonant case the
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
    "asymptotic_deviation",
    "kirchhoff_projector",
    "resonant_projector",
    "solve_coupling",
    "solve_coupling_from_kernel",
]

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
    """Solved boundary constants at one (z, eps) pair: the closed form's sigma
    and gain = eps / (W - sigma tr N + sigma^2 D), ``back_residual``,
    |det N - W D|, the rounding of the identity the solve rests on, and
    ``kernel``, the vertex kernel at eps^2 z they were solved from (whose
    Robin sides give the vertex profile, ``residual``)."""

    z: complex
    epsilon: float
    p: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    case: CaseLabel
    back_residual: float
    sigma: complex
    gain: complex
    kernel: ShootingSolution


def solve_coupling_from_kernel(kernel: ShootingSolution, z: complex, epsilon: float,
                               p, case: CaseLabel) -> CouplingCoefficients:
    """Solve the coupling system given a kernel already placed at eps^2 z, in
    the closed form of the module docstring; a q that is not finite (a
    singular system, or a p near overflow) raises OverflowError; an xi that
    overflows is left to the callers that read it."""
    p = np.asarray(p, dtype=complex)
    sq = sqrt_upper(z)
    sigma = 1j * epsilon * sq
    n, w, d = kernel.corner_numerator(), kernel.wronskian, kernel.dirichlet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = w - sigma * (n[0, 0] + n[1, 1]) + sigma**2 * d
        q = epsilon * (n @ p - sigma * d * p) / den
        gain = epsilon / den
        xi = p + 1j * sq * q
    if not np.isfinite(q).all():
        raise OverflowError(f"the coupling solve at eps = {epsilon:.6g}: q is not finite")
    back = float(abs(n[0, 0] * n[1, 1] - 1.0 - w * d))
    return CouplingCoefficients(complex(z), float(epsilon), p, q, xi, case, back, sigma, gain,
                                kernel)


def solve_coupling(profile: CurvatureProfile, z: complex, epsilon: float, p,
                   case: CaseLabel | None = None) -> CouplingCoefficients:
    """Boundary constants (q, xi) for data derivatives p at the vertex: the
    vertex kernel placed at eps^2 z, then the closed form.  Every point solve
    goes through here, so this is the one place that places the kernel.  case
    does not depend on eps: a sweep passes its own; else it is
    ``classify(profile)`` at the default zero tolerance."""
    if case is None:
        case = classify(profile)
    kernel = vertex_kernel_at(profile, epsilon**2 * z)
    return solve_coupling_from_kernel(kernel, z, epsilon, p, case)


@dataclass(frozen=True)
class DeviationReport:
    """Distance of (q, xi) from their limiting forms, relative to |p|."""

    dev_q: float
    dev_xi: float


def asymptotic_deviation(coeffs: CouplingCoefficients,
                         projector: KirchhoffProjector | None) -> DeviationReport:
    """Deviation of q and xi from the case-dependent leading behaviour.

    Generic case (no projector): the limits are q -> 0, xi -> p.
    Resonant case: q -> (i/sqrt(z)) P0 p, and xi is compared against
    P0perp p - eps (i sqrt(z)/(a1^2+a2^2)) P0 p plus the perpendicular
    first-order term (xi - P0perp p alone is i sqrt(z) (q - q_limit), which
    dev_q already measures).  p, q and xi are scaled
    by the power of two that brings max |p| into [1/2, 1), exactly, so that the
    norms, which square the entries, do not overflow at a large p.
    """
    resonant = coeffs.case.resonant
    if resonant and projector is None:
        raise ValueError("resonant coefficients need the Kirchhoff projector")
    if not resonant and projector is not None:
        raise ValueError("generic coefficients take no projector")
    e = np.frexp(np.max(np.abs(coeffs.p)))[1]
    p, q, xi = (np.ldexp(x.view(float), -e).view(complex)
                for x in (coeffs.p, coeffs.q, coeffs.xi))
    pnorm = float(np.linalg.norm(p))
    if pnorm == 0.0:
        return DeviationReport(0.0, 0.0)
    sq = sqrt_upper(coeffs.z)
    if not resonant:
        return DeviationReport(float(np.linalg.norm(q)) / pnorm,
                               float(np.linalg.norm(xi - p)) / pnorm)
    lam0 = projector.lambda0
    perp = projector.lambda0_perp
    nsq = projector.weight_norm_sq
    q_limit = (1j / sq) * (lam0 @ p)
    dev_q = float(np.linalg.norm(q - q_limit)) / pnorm
    first_order = -lam0 / nsq
    if projector.perp_correction is not None:
        first_order = first_order + projector.perp_correction
    xi_first = coeffs.epsilon * 1j * sq * (first_order @ p)
    dev_xi = float(np.linalg.norm(xi - perp @ p - xi_first)) / pnorm
    return DeviationReport(dev_q, dev_xi)
