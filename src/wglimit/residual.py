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

from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingCoefficients, solve_coupling_from_kernel
from .kernels import (
    HalfLineResolvent,
    _data_panels,
    boundary_derivatives,
    edge_field,
    vertex_kernel_at,
)
from .profile import CurvatureProfile, geometry_residual_fields
from .vertex_spectrum import (DEFAULT_ZERO_TOLERANCE, CaseLabel, EigenFunction,
                              ShootingSolution, _panel_nodes, _TaylorSide, spectrum_for_case)

__all__ = [
    "ApproxSolution",
    "ResidualQuadrature",
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
    """sqrt(||f1||^2 + ||f2||^2) over (0, inf), on each record's panel table
    (``kernels._data_panels``, without a z)."""
    total = 0.0
    for f in (f1, f2):
        if f is not None:
            _, pts, wts = _data_panels(f)
            total += float(np.sum(np.abs(f(pts)) ** 2 * wts))
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

    def vertex_profile(self, s):
        """(phi, phi') at s, phi = eps [xi1 r(.; s, -1) + xi2 r(.; s, +1)],
        from one dense evaluation of each shooting solution."""
        k = self.kernel
        s = np.asarray(s)
        return self._vertex_profile_from(k.eta_sol(s), k.zeta_sol(s))

    def _vertex_profile_from(self, eta, zeta):
        """(phi, phi') from (eta, eta') and (zeta, zeta') at the same points."""
        xi = self.coeffs.xi
        return self.epsilon * (xi[0] * eta + xi[1] * zeta) / self.kernel.wronskian

    def phi(self, s):
        return self.vertex_profile(s)[0]

    def phi_prime(self, s):
        return self.vertex_profile(s)[1]

    def edge_profile(self, edge: int, s):
        """x_j(s) at edge coordinates s of edge j = 1 or 2 (a complex for a
        scalar s)."""
        if edge not in (1, 2):
            raise ValueError(f"edge must be 1 or 2, got {edge!r}")
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
    phi, dphi = sol.vertex_profile(s)
    return _bulk(sol, fields, phi, dphi) * chi_mode(sol.n, u)


def _star_function(profile: CurvatureProfile, case: CaseLabel) -> EigenFunction:
    """y*, the zero-mode of a resonant case."""
    # eigenfunctions do not depend on the zero tolerance; the case fixes the index
    return spectrum_for_case(profile).eigenfunction(case.n_star)


def _contraction(sol: ApproxSolution) -> complex:
    """xi . alpha, the amplitude of the resonant principal part."""
    return sol.coeffs.xi[0] * sol.case.alpha1 + sol.coeffs.xi[1] * sol.case.alpha2


@dataclass(eq=False)
class ResidualQuadrature:
    """What ``residual_norms`` reads that does not depend on eps, for one
    profile, transverse index, edge data, case and quadrature rule; a
    sweep builds one for all its points.

    Nodes, weights, chi_n^2, the data norm and, in the resonant case,
    ||y*'|| are fixed at build.  Two tables are memoised on their input:
    the Taylor coefficients at the s-nodes on the coefficient solutions
    they come from (a shot kernel is evaluated at the nodes instead), and
    the geometry fields on the exact float ratio delta/eps of the last
    point, so a power-rule sweep recomputes them at every point.
    """

    profile: CurvatureProfile
    n: int
    f1: object
    f2: object
    case: CaseLabel
    quadrature_order: int
    panels: tuple[int, int]
    s_pts: np.ndarray
    s_wts: np.ndarray
    u_pts: np.ndarray
    u_wts: np.ndarray
    chi_sq: np.ndarray
    data_norm: float
    star_derivative_norm: float | None
    # memos: (ratio, its geometry fields) and (left, right, their node values)
    _fields: tuple = field(default=(None, None), init=False, repr=False)
    _sides: tuple = field(default=(None,) * 4, init=False, repr=False)

    @staticmethod
    def build(profile: CurvatureProfile, n: int, f1, f2, case: CaseLabel,
              quadrature_order: int = QUADRATURE_ORDER,
              panels: tuple[int, int] = QUADRATURE_PANELS) -> "ResidualQuadrature":
        if quadrature_order < MIN_QUADRATURE_ORDER:
            raise ValueError(f"quadrature order must be >= {MIN_QUADRATURE_ORDER}")
        s_pts, s_wts = _panel_nodes(-1.0, 1.0, panels[0], quadrature_order)
        u_pts, u_wts = _panel_nodes(0.0, 1.0, panels[1], quadrature_order)
        dnorm = None
        if case.resonant:
            star = _star_function(profile, case)
            dnorm = float(np.sqrt(star.rule[1] @ star.derivative(star.rule[0]) ** 2))
        return ResidualQuadrature(profile, n, f1, f2, case, quadrature_order, tuple(panels),
                                  s_pts, s_wts, u_pts, u_wts, chi_mode(n, u_pts) ** 2,
                                  data_norm(f1, f2), dnorm)

    def serves(self, sol: ApproxSolution, quadrature_order: int, panels) -> bool:
        """Whether this table was built for sol and this rule."""
        return ((self.profile, self.n, self.f1, self.f2, self.case)
                == (sol.profile, sol.n, sol.f1, sol.f2, sol.case)
                and (self.quadrature_order, self.panels) == (quadrature_order, tuple(panels)))

    def fields(self, ratio: float) -> dict:
        """The geometry fields on the node grid at this ratio."""
        if self._fields[0] != ratio:
            self._fields = (ratio, geometry_residual_fields(
                self.profile, self.s_pts[:, None], self.u_pts[None, :], ratio))
        return self._fields[1]

    def vertex_profile(self, sol: ApproxSolution):
        """(phi, phi') of sol at the s-nodes, bit for bit its own values."""
        k = sol.kernel
        if not isinstance(k.zeta_sol, _TaylorSide):  # shot at eps^2 z
            return sol.vertex_profile(self.s_pts)
        left, right = k.zeta_sol.coefficients, k.eta_sol.coefficients
        if self._sides[0] is not left or self._sides[1] is not right:
            self._sides = (left, right, left(self.s_pts), right(self.s_pts))
        return sol._vertex_profile_from(k.eta_sol.combine(self._sides[3]),
                                        k.zeta_sol.combine(self._sides[2]))


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
                   panels: tuple[int, int] = QUADRATURE_PANELS, *,
                   table: ResidualQuadrature | None = None) -> ResidualReport:
    """Tensor Gauss-Legendre norm of the residual over the vertex strip.

    ``table`` holds the eps-independent work; a sweep passes the one it
    built for all its points, and without it a fresh one is built.
    """
    if table is None:
        table = ResidualQuadrature.build(sol.profile, sol.n, sol.f1, sol.f2, sol.case,
                                         quadrature_order, panels)
    elif not table.serves(sol, quadrature_order, panels):
        raise ValueError("the quadrature table was built for another solution or rule")
    fields = table.fields(sol.ratio)
    phi, dphi = table.vertex_profile(sol)
    bulk = _bulk(sol, fields, phi[:, None], dphi[:, None])
    integrand = (np.abs(bulk) ** 2) * table.chi_sq[None, :]
    l2_sq = float(np.einsum("i,ij,j->", table.s_wts, integrand, table.u_wts))
    l2 = float(np.sqrt(max(l2_sq, 0.0)))
    hnorm = sol.epsilon ** (-1.5) * l2

    xi_abs = (float(abs(sol.coeffs.xi[0])), float(abs(sol.coeffs.xi[1])))
    xi_sum = xi_abs[0] + xi_abs[1]
    bound1 = sol.ratio * sol.epsilon * xi_sum

    psi_star = None
    bound2 = None
    if sol.case.resonant:
        amp = abs(_contraction(sol)) / (sol.epsilon * abs(sol.z))
        psi_star = (amp, amp * table.star_derivative_norm)
        bound2 = bound1 + sol.ratio * (psi_star[0] + psi_star[1])

    return ResidualReport(
        residual_l2_V=l2,
        residual_Hnorm=hnorm,
        xi_norms=xi_abs,
        psi_star_norms=psi_star,
        bound_case1=bound1,
        bound_case2=bound2,
        data_norm=table.data_norm,
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
    ystar, contraction = _star_function(sol.profile, sol.case), _contraction(sol)
    nodes, weights = ystar.rule
    phi, dphi = sol.vertex_profile(nodes)
    diff = phi + (contraction / (sol.epsilon * sol.z)) * ystar.value(nodes)
    ddiff = dphi + (contraction / (sol.epsilon * sol.z)) * ystar.derivative(nodes)
    norm = float(np.sqrt(weights @ np.abs(diff) ** 2))
    dnorm = float(np.sqrt(weights @ np.abs(ddiff) ** 2))
    xi_sum = float(abs(sol.coeffs.xi[0]) + abs(sol.coeffs.xi[1]))
    scale = sol.epsilon * xi_sum
    return {
        "diff_norm": norm,
        "diff_deriv_norm": dnorm,
        "ratio": norm / scale if scale > 0 else 0.0,
        "deriv_ratio": dnorm / scale if scale > 0 else 0.0,
    }
