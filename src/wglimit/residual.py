"""Assembly of the approximate resolvent field and its exact residual.

For edge data (f1, f2) modulated by the transverse mode chi_n, the trial
field consists of edge profiles

    x_j(s) = (r0(z) f_j)(s) + q_j exp(i sqrt(z) s)

and a vertex profile

    phi(s) = eps [xi_1 r(eps^2 z; s, -1) + xi_2 r(eps^2 z; s, +1)],

joined so that values match and the eps-scaled normal derivatives match
at the two interfaces.  The edge equations are satisfied identically, so
the full residual lives in the vertex strip.  Because phi solves
phi'' = (-gamma^2/4 - eps^2 z) phi in the interior, the residual field
collapses to first-order data only:

    R(s, u) = [(1/g - 1)(gamma^2/4 + eps^2 z) phi
               + (W + gamma^2/4) phi - (d/ds 1/g) phi'] * chi_n(u),

and the energy-space residual norm is eps^(-3/2) ||R||_{L2(V)}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, simpson

from .coupling import CouplingCoefficients, solve_coupling_from_kernel
from .kernels import (
    HalfLineResolvent,
    boundary_derivatives,
    edge_field,
    vertex_kernel_at,
)
from .profile import CurvatureProfile, geometry_residual_fields
from .vertex_spectrum import (DEFAULT_ZERO_TOLERANCE, VERTEX_GRID_POINTS, CaseLabel,
                              ShootingSolution, _panel_nodes, spectrum_for_case)

__all__ = [
    "ApproxSolution",
    "ResidualReport",
    "assemble",
    "chi_mode",
    "data_norm",
    "residual_field",
    "residual_norms",
    "vertex_subtracted_norms",
]

MIN_QUADRATURE_ORDER = 4
# Default tensor Gauss-Legendre rule of residual_norms: (s, u) panels x order.
QUADRATURE_PANELS = (64, 16)
QUADRATURE_ORDER = 8
# Largest rule a sweep config may ask for: 16 times the default's nodes.
MAX_QUADRATURE_NODES = 16 * (QUADRATURE_PANELS[0] * QUADRATURE_ORDER
                             * QUADRATURE_PANELS[1] * QUADRATURE_ORDER)


def chi_mode(n: int, u):
    """Transverse Dirichlet mode sqrt(2) sin(n pi u)."""
    u = np.asarray(u, dtype=float)
    out = np.sqrt(2.0) * np.sin(n * np.pi * u)
    return float(out) if out.ndim == 0 else out


def data_norm(f1, f2) -> float:
    """sqrt(||f1||^2 + ||f2||^2) over (0, inf)."""
    total = 0.0
    for f in (f1, f2):
        if f is None:
            continue
        cut = getattr(f, "cutoff", None)
        upper = float(cut) if cut is not None else np.inf
        val, _ = quad(lambda t: abs(f(t)) ** 2, 0.0, upper,
                      epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ApproxSolution:
    """Assembled trial field with its coupling data."""

    profile: CurvatureProfile
    n: int
    z: complex
    epsilon: float
    delta: float
    f1: object
    f2: object
    coeffs: CouplingCoefficients
    kernel: ShootingSolution
    resolvent0: HalfLineResolvent

    @property
    def ratio(self) -> float:
        return self.delta / self.epsilon

    @property
    def case(self):
        return self.coeffs.case

    def phi(self, s):
        """Vertex s-profile eps [xi1 r(.; s, -1) + xi2 r(.; s, +1)]."""
        k, xi = self.kernel, self.coeffs.xi
        return self.epsilon * (xi[0] * k.eta(s) + xi[1] * k.zeta(s)) / k.wronskian

    def phi_prime(self, s):
        k, xi = self.kernel, self.coeffs.xi
        return self.epsilon * (xi[0] * k.eta_prime(s) + xi[1] * k.zeta_prime(s)) / k.wronskian

    def edge_profile(self, edge: int, s):
        """x_j(s) on a grid of edge coordinates."""
        return edge_field(self.resolvent0, self.f1 if edge == 1 else self.f2,
                          self.coeffs.q[edge - 1], s)

    def interface_defects(self) -> dict:
        """Value and scaled-derivative matching errors at both interfaces."""
        q = self.coeffs.q  # the edge fields at s = 0, where r0 f vanishes
        xi = self.coeffs.xi
        scale = max(1.0, float(np.max(np.abs(xi))), float(np.max(np.abs(q))))
        val1 = abs(q[0] - self.phi(-1.0)) / scale
        val2 = abs(q[1] - self.phi(1.0)) / scale
        der1 = abs(xi[0] + self.phi_prime(-1.0) / self.epsilon) / scale
        der2 = abs(xi[1] - self.phi_prime(1.0) / self.epsilon) / scale
        return {"value": (val1, val2), "derivative": (der1, der2)}


def assemble(profile: CurvatureProfile, n: int, z: complex, epsilon: float,
             delta: float, f1, f2, zero_tolerance: float = DEFAULT_ZERO_TOLERANCE, *,
             p: np.ndarray | None = None,
             case: CaseLabel | None = None) -> ApproxSolution:
    """Build the trial field for edge data (f1 chi_n, f2 chi_n, 0); p and
    case, which do not depend on epsilon, are computed unless given."""
    if not 0.0 < delta <= epsilon <= 1.0:
        raise ValueError(f"need 0 < delta <= epsilon <= 1, got {delta}, {epsilon}")
    if n < 1:
        raise ValueError("transverse index n must be >= 1")
    res0 = HalfLineResolvent(complex(z))
    if p is None:
        p = boundary_derivatives(res0, f1, f2)
    if case is None:
        case = spectrum_for_case(profile, zero_tolerance).case
    kernel = vertex_kernel_at(profile, epsilon**2 * z)
    coeffs = solve_coupling_from_kernel(kernel, z, epsilon, p, case)
    return ApproxSolution(profile, n, complex(z), float(epsilon), float(delta),
                          f1, f2, coeffs, kernel, res0)


def _bulk(sol: ApproxSolution, fields: dict, phi, dphi):
    """The residual divided by chi_n(u), from the geometry fields and phi."""
    w = sol.epsilon**2 * sol.z
    return (
        fields["inv_g_minus_1"] * (0.25 * fields["gamma_sq"] + w) * phi
        + fields["w_plus_quarter_gamma_sq"] * phi
        - fields["ds_inv_g"] * dphi
    )


def residual_field(sol: ApproxSolution, s, u):
    """Pointwise residual of the shifted operator applied to the trial field."""
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    fields = geometry_residual_fields(sol.profile, s, u, sol.ratio)
    return _bulk(sol, fields, sol.phi(s), sol.phi_prime(s)) * chi_mode(sol.n, u)


def _star_data(sol: ApproxSolution) -> tuple:
    """(y*, alpha contraction, ||y*'||) for the resonant case."""
    # eigenfunctions do not depend on the zero tolerance; the case fixes the index
    ystar = spectrum_for_case(sol.profile).eigenfunction(sol.case.n_star)
    contraction = sol.coeffs.xi[0] * sol.case.alpha1 + sol.coeffs.xi[1] * sol.case.alpha2
    grid = np.linspace(-1.0, 1.0, VERTEX_GRID_POINTS)
    dv = ystar.derivative(grid)
    dnorm = float(np.sqrt(simpson(dv * dv, x=grid)))
    return ystar, contraction, dnorm


@dataclass(frozen=True)
class ResidualReport:
    """Norms of the residual and the bound shapes it is measured against."""

    residual_l2_V: float
    residual_Hnorm: float
    xi_norms: tuple[float, float]
    psi_star_norms: tuple[float, float] | None
    bound_case1: float
    bound_case2: float | None
    data_norm: float
    epsilon: float
    delta: float


def residual_norms(sol: ApproxSolution, quadrature_order: int = QUADRATURE_ORDER,
                   panels: tuple[int, int] = QUADRATURE_PANELS) -> ResidualReport:
    """Tensor Gauss-Legendre norm of the residual over the vertex strip."""
    if quadrature_order < MIN_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order must be >= {MIN_QUADRATURE_ORDER}")
    s_pts, s_wts = _panel_nodes(-1.0, 1.0, panels[0], quadrature_order)
    u_pts, u_wts = _panel_nodes(0.0, 1.0, panels[1], quadrature_order)

    fields = geometry_residual_fields(sol.profile, s_pts[:, None], u_pts[None, :],
                                      sol.ratio)
    bulk = _bulk(sol, fields, sol.phi(s_pts)[:, None], sol.phi_prime(s_pts)[:, None])
    chi_sq = chi_mode(sol.n, u_pts) ** 2
    integrand = (np.abs(bulk) ** 2) * chi_sq[None, :]
    l2_sq = float(np.einsum("i,ij,j->", s_wts, integrand, u_wts))
    l2 = float(np.sqrt(max(l2_sq, 0.0)))
    hnorm = sol.epsilon ** (-1.5) * l2

    xi_abs = (float(abs(sol.coeffs.xi[0])), float(abs(sol.coeffs.xi[1])))
    xi_sum = xi_abs[0] + xi_abs[1]
    bound1 = sol.ratio * sol.epsilon * xi_sum

    psi_star = None
    bound2 = None
    if sol.case.resonant:
        _, contraction, dnorm = _star_data(sol)
        amp = abs(contraction) / (sol.epsilon * abs(sol.z))
        psi_star = (amp, amp * dnorm)
        bound2 = bound1 + sol.ratio * (psi_star[0] + psi_star[1])

    return ResidualReport(
        residual_l2_V=l2,
        residual_Hnorm=hnorm,
        xi_norms=xi_abs,
        psi_star_norms=psi_star,
        bound_case1=bound1,
        bound_case2=bound2,
        data_norm=data_norm(sol.f1, sol.f2),
        epsilon=sol.epsilon,
        delta=sol.delta,
    )


def vertex_subtracted_norms(sol: ApproxSolution) -> dict:
    """Norms of the vertex profile minus its resonant principal part.

    The principal part is  -(1/eps)(y*(s)/z)(xi . alpha) chi_n(u); the
    returned ratios divide by eps (|xi1| + |xi2|), the scale the
    difference is controlled by.
    """
    if not sol.case.resonant:
        raise ValueError("subtracted norms are defined for the resonant case only")
    ystar, contraction, _ = _star_data(sol)
    grid = np.linspace(-1.0, 1.0, VERTEX_GRID_POINTS)
    diff = sol.phi(grid) + (contraction / (sol.epsilon * sol.z)) * ystar.value(grid)
    ddiff = sol.phi_prime(grid) + (contraction / (sol.epsilon * sol.z)) * ystar.derivative(grid)
    norm = float(np.sqrt(simpson(np.abs(diff) ** 2, x=grid)))
    dnorm = float(np.sqrt(simpson(np.abs(ddiff) ** 2, x=grid)))
    xi_sum = float(abs(sol.coeffs.xi[0]) + abs(sol.coeffs.xi[1]))
    scale = sol.epsilon * xi_sum
    return {
        "diff_norm": norm,
        "diff_deriv_norm": dnorm,
        "ratio": norm / scale if scale > 0 else 0.0,
        "deriv_ratio": dnorm / scale if scale > 0 else 0.0,
    }
