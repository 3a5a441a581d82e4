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
gain = eps / (W - sigma tr N + sigma^2 D).

Both limits share one vertex condition, P0perp x(0) = 0 and P0 x'(0) = 0,
and differ only in the rank of the projector P0 (``KirchhoffProjector``).
In the generic case P0 = 0 (``DECOUPLED``: Dirichlet on both edges).  In
the resonant case P0 is the rank-one projector

    P0 = [[a1^2, a1 a2], [a1 a2, a2^2]] / (a1^2 + a2^2),

with weights (a1, a2) the boundary values of the zero-mode.  Writing the
corner matrix near the resonance as  -(a1^2+a2^2)/(eps^2 z) P0 + R0 + O(eps^2),
the q-map expands as

    i P0 / sqrt(z) + eps F + O(eps^2),   F = -P0/(a1^2+a2^2) + P0perp R0 P0perp;

both blocks of F are real effects (checked against the exact zero-curvature
closed form), and the deviations below subtract the full first-order term so
the remainder is genuinely second order.  Decoupled, q = O(eps) and F = 0:
the same formulas measure q -> 0 and xi -> p.
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
    "DECOUPLED",
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
    """The vertex projector P0 of a limit's condition P0perp x(0) = 0,
    P0 x'(0) = 0: of rank one onto the weights (a1, a2) for weighted
    Kirchhoff, of rank zero (``DECOUPLED``) for Dirichlet on both edges.

    ``first_order`` is F of the coupling expansion (module docstring):
    -P0/(a1^2 + a2^2), plus P0perp R0 P0perp from ``resonant_projector``;
    0 when decoupled.  The arrays are read-only.
    """

    lambda0: np.ndarray
    lambda0_perp: np.ndarray
    first_order: np.ndarray


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


DECOUPLED = KirchhoffProjector(*_frozen(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))))


def kirchhoff_projector(alpha1: float, alpha2: float) -> KirchhoffProjector:
    nsq = alpha1 * alpha1 + alpha2 * alpha2
    if nsq <= 0.0:
        raise ValueError("weight vector (alpha1, alpha2) must be nonzero")
    lam0 = np.array([[alpha1 * alpha1, alpha1 * alpha2],
                     [alpha1 * alpha2, alpha2 * alpha2]]) / nsq
    return KirchhoffProjector(*_frozen(lam0, np.eye(2) - lam0, -lam0 / nsq))


def resonant_projector(profile: CurvatureProfile,
                       zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> KirchhoffProjector:
    """Kirchhoff projector of a resonant profile, whose first-order term
    also carries P0perp R0 P0perp; R0 is the regular part of the corner
    matrix at the pole, in closed form from the profile's Taylor
    coefficients."""
    case = classify(profile, zero_tolerance)
    if not case.resonant:
        raise ValueError("profile is not resonant at this tolerance")
    proj = kirchhoff_projector(case.alpha1, case.alpha2)
    r0 = taylor_shooting(profile).pole_parts()[1]
    first = proj.first_order + proj.lambda0_perp @ r0 @ proj.lambda0_perp
    return KirchhoffProjector(proj.lambda0, proj.lambda0_perp, *_frozen(first))


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
                         projector: KirchhoffProjector) -> DeviationReport:
    """Distance of q and xi from the limit whose vertex projector is given.

    q is compared against its limit (i/sqrt(z)) P0 p, and xi against
    P0perp p + eps i sqrt(z) F p with F the projector's first-order term
    (xi - P0perp p alone is i sqrt(z) (q - q_limit), which dev_q already
    measures).  With ``DECOUPLED`` (P0 = 0) these are |q| and |xi - p|; any
    pairing is measured, such as a resonant point's distance to the
    decoupled limit.  p, q and xi are scaled by the power of two that brings
    max |p| into [1/2, 1), exactly, so that the norms, which square the
    entries, do not overflow at a large p.
    """
    e = np.frexp(np.max(np.abs(coeffs.p)))[1]
    p, q, xi = (np.ldexp(x.view(float), -e).view(complex)
                for x in (coeffs.p, coeffs.q, coeffs.xi))
    pnorm = float(np.linalg.norm(p))
    if pnorm == 0.0:
        return DeviationReport(0.0, 0.0)
    sq = sqrt_upper(coeffs.z)
    dev_q = float(np.linalg.norm(q - (1j / sq) * (projector.lambda0 @ p))) / pnorm
    xi_first = coeffs.epsilon * 1j * sq * (projector.first_order @ p)
    dev_xi = float(np.linalg.norm(xi - projector.lambda0_perp @ p - xi_first)) / pnorm
    return DeviationReport(dev_q, dev_xi)
