"""Assembly of the approximate resolvent field and its exact residual.

For edge data (f1, f2) modulated by the transverse mode chi_n, the trial
field consists of edge profiles

    x_j(s) = (r0(z) f_j)(s) + q_j exp(i sqrt(z) s)

and a vertex profile phi, joined so that values and eps-scaled normal
derivatives match at the interfaces: with sigma = i eps sqrt(z),
phi' + sigma phi = -eps p_1 at s = -1 and phi' - sigma phi = eps p_2 at +1.
In the closed form of the coupling (``coupling``),

    phi = eps [p_1 (eta - sigma psi) + p_2 (zeta - sigma chi)] / (Wv - sigma tr N + sigma^2 D),

chi and psi the Dirichlet partners of the shooting solutions zeta and eta
at eps^2 z (``ShootingSolution``).  p_1's bracket meets the condition at +1
and p_2's the one at -1, phi(-1), phi(+1) are q, and no 1/Wv is formed, so
a resonance (Wv ~ eps^2) costs nothing.  The edge equations are satisfied
identically, so the full residual lives in the vertex strip.  Because phi solves
phi'' = (-gamma^2/4 - eps^2 z) phi in the interior, the residual field
collapses to first-order data only:

    R(s, u) = [(1/g - 1)(gamma^2/4 + eps^2 z) phi
               + (W + gamma^2/4) phi - (d/ds 1/g) phi'] * chi_n(u),

and the energy-space residual norm is eps^(-3/2) ||R||_{L2(V)}.

At a fixed ratio delta/eps the bracket is a phi + b (eps^2 z phi) - c phi'
with real columns a = (1/g - 1) gamma^2/4 + (W + gamma^2/4), b = 1/g - 1
and c = d/ds(1/g) that do not depend on eps.  So the u-sum of the tensor
Gauss rule at an s-node is ||R(s) X(s)||^2, with X = (phi, eps^2 z phi,
-phi') and R(s) the 3x3 R factor of the columns on the u-nodes scaled by
sqrt(u-weight chi_n^2): ``residual_norms`` factors once per ratio, and each
point then costs O(S) instead of O(S U).  R comes from a QR, not from the
Gram matrix, because to first order in the ratio all three columns are
u * ratio times a function of s, so they are nearly collinear, and a Gram
quadratic form loses digits to the square of their condition number where
||R X||^2, like the pointwise sum, loses them to its first power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingCoefficients, solve_coupling
from .kernels import HalfLineResolvent, _data_panels, boundary_derivatives, edge_field
from .profile import CurvatureProfile, geometry_residual_fields
from .vertex_spectrum import CaseLabel, _panel_nodes, spectrum_for_case

__all__ = [
    "ApproxSolution",
    "ResidualQuadrature",
    "ResidualReport",
    "assemble",
    "chi_mode",
    "data_norm",
    "max_transverse_index",
    "residual_field",
    "residual_norms",
]

MIN_QUADRATURE_ORDER = 4
# Default tensor Gauss-Legendre rule of residual_norms: (s, u) panels x order.
QUADRATURE_PANELS = (64, 16)
QUADRATURE_ORDER = 8
# Largest rule a sweep config may ask for: 16 times the default's nodes.
MAX_QUADRATURE_NODES = 16 * (QUADRATURE_PANELS[0] * QUADRATURE_ORDER
                             * QUADRATURE_PANELS[1] * QUADRATURE_ORDER)
# Error of the u-rule on chi_n^2 that max_transverse_index admits.
CHI_TOLERANCE = 1e-10


def max_transverse_index(u_panels: int, order: int) -> int:
    """The largest n (at least 1) whose chi_n^2 = 1 - cos(2 n pi u) the
    u-rule of u_panels Gauss panels of this order integrates to CHI_TOLERANCE.

    On a panel of width h the order-m rule errs on f by at most
    (h/2) c_m (h/2)^(2m) max |f^(2m)|, c_m = 2^(2m+1) (m!)^4 / ((2m+1) ((2m)!)^3);
    over the panels of [0, 1] and for cos(2 n pi u) that is at most
    c_m kappa^(2m) / 2 with kappa = n pi / u_panels, the half-phase per panel.
    n must keep c_m kappa^(2m) <= CHI_TOLERANCE (a factor 2 to spare for a
    smooth weight such as exp(u)).  The default rule admits n <= 15.
    """
    log_c = ((2 * order + 1) * math.log(2.0) + 4.0 * math.lgamma(order + 1)
             - math.log(2 * order + 1) - 3.0 * math.lgamma(2 * order + 1))
    kappa = math.exp((math.log(CHI_TOLERANCE) - log_c) / (2 * order))
    return max(1, math.floor(u_panels * kappa / math.pi))


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
    """Assembled trial field with its coupling data (the kernel at eps^2 z in them)."""

    profile: CurvatureProfile
    n: int
    z: complex
    epsilon: float
    delta: float
    f1: object
    f2: object
    coeffs: CouplingCoefficients
    resolvent0: HalfLineResolvent

    @property
    def ratio(self) -> float:
        return self.delta / self.epsilon

    @property
    def case(self):
        return self.coeffs.case

    def vertex_profile(self, s):
        """(phi, phi') at s in the closed form of the module docstring, from
        one dense evaluation of each side's stacked solve."""
        s = np.asarray(s)
        return self._vertex_profile_from(*(side(s) for side in
                                           self.coeffs.kernel.robin_sides(self.coeffs.sigma)))

    def _vertex_profile_from(self, right, left):
        """(phi, phi') from the right and left sides' values at the same points."""
        p = self.coeffs.p
        return self.coeffs.gain * (p[0] * right + p[1] * left)

    def phi(self, s):
        return self.vertex_profile(s)[0]

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
        phi, dphi = self.vertex_profile(np.array([-1.0, 1.0]))
        return {"value": tuple(np.abs(q - phi) / scale),
                "derivative": tuple(np.abs([-1.0, 1.0] * xi - dphi / self.epsilon) / scale)}


def assemble(profile: CurvatureProfile, n: int, z: complex, epsilon: float,
             delta: float, f1, f2, *, p: np.ndarray | None = None,
             case: CaseLabel | None = None) -> ApproxSolution:
    """Build the trial field for edge data (f1 chi_n, f2 chi_n, 0) on ``solve_coupling``.
    p and case do not depend on epsilon: a sweep passes its own; else p comes
    from the data, and case is ``solve_coupling``'s default, ``classify``."""
    if not 0.0 < delta <= epsilon <= 1.0:
        raise ValueError(f"need 0 < delta <= epsilon <= 1, got {delta}, {epsilon}")
    if n < 1:
        raise ValueError("transverse index n must be >= 1")
    res0 = HalfLineResolvent(complex(z))
    if p is None:
        p = boundary_derivatives(res0, f1, f2)
    coeffs = solve_coupling(profile, z, epsilon, p, case)
    return ApproxSolution(profile, n, complex(z), float(epsilon), float(delta),
                          f1, f2, coeffs, res0)


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


def _contraction(sol: ApproxSolution) -> complex:
    """xi . alpha, the amplitude of the resonant principal part."""
    return sol.coeffs.xi[0] * sol.case.alpha1 + sol.coeffs.xi[1] * sol.case.alpha2


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two float arrays are equal bit for bit (signed zeros included)."""
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _even_on(profile: CurvatureProfile, s: np.ndarray) -> bool:
    """Whether gamma, gamma', gamma'' are even, odd and even on the mirrored
    nodes s, bit for bit."""
    return all(_same_bits(g[::-1], -g if k == 1 else g)
               for k, g in ((k, np.asarray(profile.gamma(s, k))) for k in range(3)))


@dataclass(eq=False)
class ResidualQuadrature:
    """What ``residual_norms`` reads that does not depend on eps, for one
    profile, transverse index, edge data, case and quadrature rule; a
    sweep builds one for all its points.

    Per sweep (at build): nodes, weights, sqrt(u-weights chi_n^2), the data
    norm, in the resonant case ||y*'||, and whether the strip mirrors: the
    s-nodes are bitwise s = -s[::-1] and gamma, gamma' and gamma'' are even,
    odd and even there bit for bit.  Per coefficient solve: its stacked
    values (the solution and its Dirichlet partner) at the s-nodes (a kernel
    shot at eps^2 z is its own solve and misses them); on mirrored s-nodes a
    mirrored pair's right values are its left values read backwards, with
    the y' rows negated (``vertex_profile``).
    Per ratio delta/eps, as an exact float: the geometry fields and from
    them the R factors, so a power-rule sweep refactors at every point.  On
    a mirrored strip both are built on the first half of the s-nodes: the
    columns a and b are even in s and c is odd, bit for bit, and Householder
    QR is linear in the last column, which no reflector before its own is
    built from, so the second half is the first reversed with R's third
    column negated.  Per point ``residual_norms`` adds only (phi, phi') at
    the s-nodes and sum_s w_s ||R(s) X(s)||^2.
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
    u_scale: np.ndarray  # sqrt(u_wts chi_n^2)
    data_norm: float
    star_derivative_norm: float | None
    # memos: (ratio, its R factors, its fields) and (right, left, their node tables)
    _factors: tuple = field(default=(None,) * 3, init=False, repr=False)
    _sides: tuple = field(default=(None,) * 4, init=False, repr=False)
    # (S, 3, U), or (S/2, 3, U) on a mirrored strip; rewritten per ratio
    _columns: np.ndarray = field(init=False, repr=False)
    _nodes_mirror: bool = field(init=False, repr=False)  # s_pts is -s_pts[::-1]

    def __post_init__(self) -> None:
        self._nodes_mirror = _same_bits(self.s_pts, -self.s_pts[::-1])
        rows = self.s_pts.size
        if self._nodes_mirror and _even_on(self.profile, self.s_pts):
            rows //= 2
        self._columns = np.empty((rows, 3, self.u_pts.size))

    @staticmethod
    def build(profile: CurvatureProfile, n: int, f1, f2, case: CaseLabel,
              quadrature_order: int = QUADRATURE_ORDER,
              panels: tuple[int, int] = QUADRATURE_PANELS) -> "ResidualQuadrature":
        if quadrature_order < MIN_QUADRATURE_ORDER:
            raise ValueError(f"quadrature order must be >= {MIN_QUADRATURE_ORDER}")
        if n > (top := max_transverse_index(panels[1], quadrature_order)):
            # a higher mode oscillates too fast for the u-rule: sum w chi_n^2 drifts from 1
            raise ValueError(f"transverse index n = {n} exceeds {top}, the largest whose "
                             f"chi_n^2 the u-rule of {panels[1]} panels of order "
                             f"{quadrature_order} integrates to {CHI_TOLERANCE:g}")
        s_pts, s_wts = _panel_nodes(-1.0, 1.0, panels[0], quadrature_order)
        u_pts, u_wts = _panel_nodes(0.0, 1.0, panels[1], quadrature_order)
        dnorm = None
        if case.resonant:
            # y*, the zero-mode: eigenfunctions do not depend on the zero
            # tolerance, and the case fixes its index
            dnorm = spectrum_for_case(profile).functions[case.n_star - 1].derivative_norm
        return ResidualQuadrature(profile, n, f1, f2, case, quadrature_order, tuple(panels),
                                  s_pts, s_wts, u_pts, u_wts,
                                  np.sqrt(u_wts * chi_mode(n, u_pts) ** 2),
                                  data_norm(f1, f2), dnorm)

    def serves(self, sol: ApproxSolution, quadrature_order: int, panels) -> bool:
        """Whether this table was built for sol and this rule."""
        return ((self.profile, self.n, self.f1, self.f2, self.case)
                == (sol.profile, sol.n, sol.f1, sol.f2, sol.case)
                and (self.quadrature_order, self.panels) == (quadrature_order, tuple(panels)))

    def factors(self, ratio: float) -> np.ndarray:
        """R(s) at this ratio, shape (S, 3, 3): at each s-node, the R factor
        of the columns (a, b, c) of the module docstring on the u-nodes,
        scaled by sqrt(u_wts chi_n^2) and written into one (rows, 3, U)
        array, rows = S/2 on a mirrored strip (class docstring)."""
        if self._factors[0] != ratio:
            cols = self._columns
            rows = cols.shape[0]
            f = geometry_residual_fields(self.profile, self.s_pts[:rows, None],
                                         self.u_pts[None, :], ratio)
            np.multiply(f["inv_g_minus_1"], 0.25 * f["gamma_sq"], out=cols[:, 0])
            cols[:, 0] += f["w_plus_quarter_gamma_sq"]
            cols[:, 0] *= self.u_scale
            np.multiply(f["inv_g_minus_1"], self.u_scale, out=cols[:, 1])
            np.multiply(f["ds_inv_g"], self.u_scale, out=cols[:, 2])
            # f stays referenced until the next ratio's fields exist: freed at
            # once, their pages go back to the system and the next ratio faults
            # them in again (about 500 minor faults a ratio on the default rule,
            # about 150 with f kept)
            r = np.linalg.qr(cols.transpose(0, 2, 1), mode="r")
            if rows < self.s_pts.size:
                r = np.concatenate([r, r[::-1]])
                r[rows:, :, 2] *= -1.0
            self._factors = (ratio, r, f)
        return self._factors[1]

    def vertex_profile(self, sol: ApproxSolution):
        """(phi, phi') of sol at the s-nodes, bit for bit its own values:
        each side's stacked node values are held as its ``table``, so a point
        pays only the product with its powers (d^k, -sigma d^k).  When the
        s-nodes mirror and the right solve is the left one read in t = -s (it
        holds the left's arrays), its values are the left's with the columns
        reversed and the y' rows negated: psi is to chi as eta is to zeta."""
        sides = sol.coeffs.kernel.robin_sides(sol.coeffs.sigma)
        right, left = coefficients = tuple(side.coefficients for side in sides)
        if any(held is not c for held, c in zip(self._sides, coefficients)):
            zeta = left(self.s_pts)
            if self._nodes_mirror and right.states is left.states:
                eta = zeta[:, ::-1].copy()
                terms = len(eta) // 2
                np.negative(eta[terms:], out=eta[terms:])
            else:
                eta = right(self.s_pts)
            self._sides = (*coefficients, sides[0].table(eta), sides[1].table(zeta))
        return sol._vertex_profile_from(*(side.contract(table)
                                          for side, table in zip(sides, self._sides[2:])))


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
    """Tensor Gauss-Legendre norm of the residual over the vertex strip,
    summed as sum_s w_s ||R(s) X(s)||^2 from the table's R factors at
    delta/eps and X = (phi, eps^2 z phi, -phi') at the s-nodes.

    ``table`` holds the eps-independent work; a sweep passes the one it
    built for all its points, and without it a fresh one is built.
    """
    if table is None:
        table = ResidualQuadrature.build(sol.profile, sol.n, sol.f1, sol.f2, sol.case,
                                         quadrature_order, panels)
    elif not table.serves(sol, quadrature_order, panels):
        raise ValueError("the quadrature table was built for another solution or rule")
    phi, dphi = table.vertex_profile(sol)
    x = np.stack((phi, sol.epsilon**2 * sol.z * phi, -dphi), axis=1)
    rx = table.factors(sol.ratio) @ np.stack((x.real, x.imag), axis=2)
    l2 = float(np.sqrt(table.s_wts @ np.sum(rx * rx, axis=(1, 2))))
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
