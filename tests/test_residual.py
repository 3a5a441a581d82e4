from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

import wglimit.residual as residual
from wglimit import (
    CurvatureProfile,
    ExperimentConfig,
    ExpDecay,
    GaussianPulse,
    Indicator,
    assemble,
    residual_norms,
    run_sweep,
)
from wglimit.experiments import SweepContext, delta_for
from wglimit.kernels import sqrt_upper
from wglimit.profile import geometry_residual_fields
from wglimit.residual import (
    ResidualQuadrature,
    chi_mode,
    data_norm,
    residual_field,
)
from wglimit.vertex_spectrum import (
    SERIES_TERMS,
    CoefficientSolution,
    _panel_nodes,
    _TaylorSide,
    spectrum_for_case,
    taylor_shooting,
)

from conftest import ShiftedBump, log_slope, plain_geometry

Z = 1j
F1 = ExpDecay(rate=1.0)


class TestAssemble:
    def test_parameter_validation(self, bump05):
        with pytest.raises(ValueError):
            assemble(bump05, 1, Z, 0.1, 0.2, F1, None)  # delta > eps
        with pytest.raises(ValueError):
            assemble(bump05, 0, Z, 0.1, 0.01, F1, None)
        with pytest.raises(ValueError):
            assemble(bump05, 1, Z, 1.5, 0.01, F1, None)

    def test_trivial_data(self, bump05):
        sol = assemble(bump05, 1, Z, 0.1, 0.01, None, None)
        assert np.all(sol.coeffs.p == 0)
        assert np.all(sol.coeffs.q == 0)
        grid = np.linspace(-1, 1, 5)
        assert np.allclose(sol.phi(grid), 0.0)
        assert residual_norms(sol).residual_Hnorm == 0.0

    def test_edge_value_at_origin_is_q(self, zero_profile):
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, F1, None)
        assert sol.edge_profile(1, [0.0])[0] == pytest.approx(sol.coeffs.q[0], abs=1e-14)

    def test_scalar_edge_coordinate(self, zero_profile):
        # edge 1 carries data, edge 2 does not; a scalar s is a one-point grid
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, GaussianPulse(3.0, 0.5), None)
        for edge, s in ((1, 0.0), (1, 3.0), (2, 0.5)):
            value = sol.edge_profile(edge, s)
            assert isinstance(value, complex)
            assert value == sol.edge_profile(edge, [s])[0]

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05"])
    def test_interface_matching(self, profile_name, request):
        profile = request.getfixturevalue(profile_name)
        sol = assemble(profile, 1, Z, 0.1, 0.01, F1, None)
        defects = sol.interface_defects()
        assert max(defects["value"]) < 1e-9
        assert max(defects["derivative"]) < 1e-8


def _cauchy_profile(sol, s):
    """phi from the left Cauchy data, q1 zeta - eps xi1 chi (test-side
    reference), accurate while the shooting solutions stay O(1)."""
    zeta = sol.coeffs.kernel.zeta_sol
    chi = _TaylorSide(zeta.coefficients.stacked, np.concatenate([0.0 * zeta.powers, zeta.powers]))
    return sol.coeffs.q[0] * zeta(s) - sol.epsilon * sol.coeffs.xi[0] * chi(s)


class TestVertexProfileClosedForm:
    """phi = eps [p1 (eta - sigma psi) + p2 (zeta - sigma chi)] / (W - sigma tr N
    + sigma^2 D) in each regime: large |eps^2 z|, a resonance, where W -> 0,
    and a Dirichlet eigenvalue, where D = 0."""

    S = np.linspace(-1.0, 1.0, 101)
    F2 = ExpDecay(rate=2.0, coefficient=0.5)

    @pytest.mark.parametrize("z", [-400 + 1j, 400j])
    def test_large_w_on_the_flat_guide(self, zero_profile, z):
        # at eps = 1 on gamma = 0 the strip continues the edges, so phi is the
        # outgoing pair -(p1 e^(ik(s+1)) + p2 e^(ik(1-s)))/(2ik), k = sqrt(z)
        sol = assemble(zero_profile, 1, z, 1.0, 0.5, F1, self.F2)
        p, k = sol.coeffs.p, sqrt_upper(z)
        waves = np.array([np.exp(1j * k * (self.S + 1)), np.exp(1j * k * (1 - self.S))])
        exact = -(p[0] * waves[0] + p[1] * waves[1]) / (2j * k)
        slope = -(p[0] * waves[0] - p[1] * waves[1]) / 2
        phi, dphi = sol.vertex_profile(self.S)
        assert np.max(np.abs(phi - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.max(np.abs(dphi - slope)) <= 1e-12 * np.max(np.abs(slope))

    @pytest.mark.parametrize("k", range(16, 24))
    def test_resonance_needs_no_wronskian(self, tuned2, k):
        # |W| falls to 2e-14 at 2^-23, where the former eps (xi1 eta + xi2 zeta)/W
        # was off by 2.4e-8 of max|phi|
        eps = 2.0**-k
        sol = assemble(tuned2, 1, Z, eps, eps**1.5, F1, None)
        phi = sol.vertex_profile(self.S)
        assert np.max(np.abs(phi - _cauchy_profile(sol, self.S))) <= 1e-13 * np.max(np.abs(phi))
        defects = sol.interface_defects()
        assert max(defects["value"] + defects["derivative"]) <= 1e-13

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_dirichlet_eigenvalue(self, tuned2, eps):
        # w = eps^2 z at tuned:2's Dirichlet eigenvalue, where D = chi(+1) = 0 and a
        # form (q2 chi + q1 psi)/D loses 9e-4
        w = -4.853989234961234
        sol = assemble(tuned2, 1, w / eps**2, eps, 0.1 * eps, F1, self.F2)
        assert abs(sol.coeffs.kernel.dirichlet) < 1e-11
        phi = sol.vertex_profile(self.S)
        assert np.max(np.abs(phi - _cauchy_profile(sol, self.S))) <= 1e-13 * np.max(np.abs(phi))
        defects = sol.interface_defects()
        assert max(defects["value"] + defects["derivative"]) <= 1e-13


class TestResidualField:
    def test_zero_profile_vanishes(self, zero_profile):
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, F1, None)
        s = np.linspace(-0.9, 0.9, 11)
        assert np.max(np.abs(residual_field(sol, s, np.full_like(s, 0.4)))) == 0.0

    def test_wall_vanishes_with_mode(self, bump05):
        sol = assemble(bump05, 1, Z, 0.3, 0.09, F1, None)
        assert residual_field(sol, 0.3, 0.0) == 0.0

    def test_against_direct_operator_application(self, bump05):
        # apply the full vertex operator to phi*chi by 5-point stencils in
        # s and the exact transverse action, then subtract the shift
        eps, delta = 0.3, 0.09
        sol = assemble(bump05, 1, Z, eps, delta, F1, None)
        rho = delta / eps
        w = eps**2 * Z
        h = 1e-2
        for s0, u0 in [(0.2, 0.3), (-0.4, 0.7), (0.55, 0.5), (0.0, 0.9)]:
            phis = sol.phi(np.array([s0 - 2 * h, s0 - h, s0, s0 + h, s0 + 2 * h]))
            d1 = (phis[0] - 8 * phis[1] + 8 * phis[3] - phis[4]) / (12 * h)
            d2 = (-phis[0] + 16 * phis[1] - 30 * phis[2] + 16 * phis[3]
                  - phis[4]) / (12 * h**2)
            g = plain_geometry(bump05, s0, u0, rho)
            direct = (-g["inv_g"] * d2 - g["ds_inv_g"] * d1
                      + (g["W"] - w) * phis[2]) * chi_mode(1, u0)
            lib = residual_field(sol, s0, u0)
            assert abs(lib - direct) < 1e-6

    def test_edge_equation_satisfied(self, zero_profile):
        # (-d^2/ds^2 - z) x_j = f_j at sampled points via 5-point stencil
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, F1, None)
        h = 3e-2  # balances stencil truncation against quadrature noise
        for s0 in (0.5, 1.5, 3.0):
            vals = sol.edge_profile(1, s0 + h * np.arange(-2, 3))
            d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
                  - vals[4]) / (12 * h**2)
            assert abs(-d2 - Z * vals[2] - F1(s0)) < 1e-6


class TestResidualNorms:
    def test_order_guard(self, bump05):
        sol = assemble(bump05, 1, Z, 0.2, 0.02, F1, None)
        with pytest.raises(ValueError):
            residual_norms(sol, quadrature_order=3)

    @pytest.mark.parametrize("u_panels, order", [(8, 8), (16, 4), (16, 8), (32, 8)])
    def test_transverse_index_bound_resolves_the_mode(self, u_panels, order):
        # sum w exp(u) chi_n^2 against its integral (e - 1) w^2 / (1 + w^2),
        # w = 2 n pi, for every n the rule admits; the exp(u) weight keeps the
        # rule's symmetry from cancelling its error
        u, w = _panel_nodes(0.0, 1.0, u_panels, order)
        top = residual.max_transverse_index(u_panels, order)
        for n in range(1, top + 1):
            exact = (np.e - 1.0) * (2 * n * np.pi) ** 2 / (1.0 + (2 * n * np.pi) ** 2)
            assert abs(w @ (np.exp(u) * chi_mode(n, u) ** 2) - exact) <= 1e-10 * exact

    def test_transverse_index_bound_refuses(self, bump05):
        # the default rule: sum w chi_n^2 reads 1.042 at n = 64 and 0.645 at n = 128
        top = residual.max_transverse_index(residual.QUADRATURE_PANELS[1],
                                            residual.QUADRATURE_ORDER)
        assert top == 15
        case = assemble(bump05, 1, Z, 0.2, 0.02, F1, None).case
        assert ResidualQuadrature.build(bump05, top, F1, None, case).n == top
        for n in (top + 1, 128):
            with pytest.raises(ValueError, match=f"n = {n} exceeds 15"):
                ResidualQuadrature.build(bump05, n, F1, None, case)

    def test_zero_profile_exact(self, zero_profile):
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, F1, None)
        assert residual_norms(sol).residual_Hnorm <= 1e-10

    def test_report_consistency(self, bump05):
        sol = assemble(bump05, 1, Z, 0.2, 0.02, F1, None)
        rep = residual_norms(sol)
        assert rep.residual_Hnorm == 0.2**-1.5 * rep.residual_l2_V
        assert rep.bound_case1 == pytest.approx(
            0.1 * 0.2 * (rep.xi_norms[0] + rep.xi_norms[1]))

    def test_scaling_invariance(self, bump05):
        # residual_Hnorm / ||data|| is invariant under f -> c f
        sol1 = assemble(bump05, 1, Z, 0.2, 0.02, ExpDecay(coefficient=1.0), None)
        sol2 = assemble(bump05, 1, Z, 0.2, 0.02, ExpDecay(coefficient=3.7), None)
        r1 = residual_norms(sol1)
        r2 = residual_norms(sol2)
        assert r1.residual_Hnorm / r1.data_norm == pytest.approx(
            r2.residual_Hnorm / r2.data_norm, abs=1e-9)

    def test_delta_sweep_slope(self, bump05):
        eps = 0.2
        deltas = [eps * 2.0**-k for k in range(3, 9)]
        vals = [residual_norms(assemble(bump05, 1, Z, eps, d, F1, None)).residual_Hnorm
                for d in deltas]
        assert abs(log_slope(deltas, vals) - 1.0) < 0.1

    def test_eps_sweep_shape(self, bump05):
        # fixed delta/eps: H-norm follows the eps^(-1/2) shape once the
        # sweep clears the lowest-eigenvalue crossover
        eps = [2.0**-k for k in range(5, 13)]
        vals = [residual_norms(assemble(bump05, 1, Z, e, 0.1 * e, F1, None)).residual_Hnorm
                for e in eps]
        assert abs(log_slope(eps, vals) - (-0.5)) < 0.15

    def test_case2_bound_ratio_stable(self, tuned2):
        ratios = []
        for k in range(3, 8):
            e = 2.0**-k
            rep = residual_norms(assemble(tuned2, 1, Z, e, 0.1 * e, F1, None))
            ratios.append(rep.residual_l2_V / rep.bound_case2)
        assert max(ratios) / min(ratios) <= 3.0


def test_data_norm_closed_form():
    # ||exp(-s)||^2 = 1/2 over the half line
    assert data_norm(F1, None) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    g = GaussianPulse(center=3.0, width=0.5)
    expect = np.sqrt(0.5 * np.sqrt(np.pi / 2))
    assert data_norm(g, None) == pytest.approx(expect, rel=1e-10)
    # narrow data: panels of a quarter decay length, or half the pulse width
    assert data_norm(ExpDecay(1e4), None) == pytest.approx(np.sqrt(0.5e-4), rel=1e-12)
    expect = np.sqrt(0.01 * np.sqrt(np.pi / 2))
    assert data_norm(GaussianPulse(3.0, 0.01), None) == pytest.approx(expect, rel=1e-12)


def test_data_norm_sees_narrow_indicator():
    # the quadrature is split at the jump at 5, so the 0.01-wide step is seen
    assert data_norm(Indicator(5.0, 5.01), None) == pytest.approx(np.sqrt(0.01), rel=1e-12)
    assert data_norm(Indicator(0.0, 2.0), Indicator(1.0, 1.5)) == pytest.approx(
        np.sqrt(2.5), rel=1e-12)


def _bits(report) -> list:
    """Every float of a ResidualReport as its IEEE bit pattern."""
    out = []
    for value in dataclasses.astuple(report):
        for x in value if isinstance(value, tuple) else (value,):
            out.append(None if x is None else struct.pack("<d", x))
    return out


def full_strip_factors(table: ResidualQuadrature, ratio: float) -> np.ndarray:
    """R(s) on every s-node: the fields and one QR per node on the whole
    strip, as the table built them before it used the mirror (test-side
    reference)."""
    f = geometry_residual_fields(table.profile, table.s_pts[:, None],
                                 table.u_pts[None, :], ratio)
    cols = np.empty((table.s_pts.size, 3, table.u_pts.size))
    np.multiply(f["inv_g_minus_1"], 0.25 * f["gamma_sq"], out=cols[:, 0])
    cols[:, 0] += f["w_plus_quarter_gamma_sq"]
    cols[:, 0] *= table.u_scale
    np.multiply(f["inv_g_minus_1"], table.u_scale, out=cols[:, 1])
    np.multiply(f["ds_inv_g"], table.u_scale, out=cols[:, 2])
    return np.linalg.qr(cols.transpose(0, 2, 1), mode="r")


def _ratios(profile) -> list[float]:
    """From 1e-9 up to the profile's bound ratio * sup|gamma| < 1 (or 1)."""
    top = min(1.0, 0.999 / profile.sup_gamma) if profile.sup_gamma else 1.0
    return [1e-9, 1e-5, 0.013, 0.1, top]


def _residual_config(profile, eps_grid, delta_rule) -> ExperimentConfig:
    return ExperimentConfig(profile=profile, metric="residual", z=1j, eps_grid=eps_grid,
                            delta_rule=delta_rule, p=None,
                            f1={"type": "exp", "rate": 1.0})


def _sweep_solution(ctx: SweepContext, eps: float):
    """The trial field a residual sweep assembles at eps, with its p and case."""
    cfg = ctx.config
    return assemble(cfg.profile, cfg.n, cfg.z, eps, delta_for(cfg.delta_rule, eps),
                    ctx.f1, ctx.f2, p=ctx.p, case=ctx.case)


class TestQuadratureTable:
    # (eps grid, delta rule): a power-of-two grid at a fixed ratio, where the
    # geometry fields are built once; a power rule, where the ratio changes
    # at every point; a grid where r*eps/eps != r at 0.2 and 0.1; and eps = 0.9,
    # where |eps^2 z| = 0.81 > 0.25 and the kernel is shot, not a polynomial.
    SWEEPS = [
        (tuple(2.0**-k for k in range(3, 8)), ("ratio", 0.1)),
        (tuple(2.0**-k for k in range(3, 8)), ("power", 2.0)),
        ((0.9, 0.3, 0.2, 0.1, 0.07), ("ratio", 0.1)),
    ]
    RULES = [(residual.QUADRATURE_ORDER, residual.QUADRATURE_PANELS), (6, (32, 8))]

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("eps_grid, delta_rule", SWEEPS)
    def test_table_matches_direct_call_bit_for_bit(self, profile_name, eps_grid,
                                                   delta_rule, request):
        profile = request.getfixturevalue(profile_name)
        cfg = _residual_config(profile, eps_grid, delta_rule)
        ctx = SweepContext.build(cfg)
        for eps in eps_grid:
            sol = _sweep_solution(ctx, eps)
            via_table = residual_norms(sol, cfg.quadrature_order, cfg.quadrature_panels,
                                       table=ctx.residual)
            direct = residual_norms(sol, cfg.quadrature_order, cfg.quadrature_panels)
            assert _bits(via_table) == _bits(direct)

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("eps_grid, delta_rule", SWEEPS)
    @pytest.mark.parametrize("order, panels", RULES)
    def test_factored_norm_matches_pointwise_gauss_sum(self, profile_name, eps_grid,
                                                       delta_rule, order, panels, request):
        # sum_s w_s ||R(s) X(s)||^2 against the same tensor rule summed node
        # by node over |residual_field|^2 (chi_n inside the field)
        profile = request.getfixturevalue(profile_name)
        cfg = dataclasses.replace(_residual_config(profile, eps_grid, delta_rule),
                                  quadrature_order=order, quadrature_panels=panels)
        ctx = SweepContext.build(cfg)
        table = ctx.residual
        for eps in eps_grid:
            sol = _sweep_solution(ctx, eps)
            l2 = residual_norms(sol, order, panels, table=table).residual_l2_V
            values = residual_field(sol, table.s_pts[:, None], table.u_pts[None, :])
            brute = np.sqrt(table.s_wts @ np.abs(values) ** 2 @ table.u_wts)
            if profile_name == "zero_profile":
                assert not table.factors(sol.ratio).any()
                assert l2 == 0.0
            else:
                assert brute > 0.0
                assert abs(l2 - brute) <= 1e-13 * brute

    @pytest.mark.parametrize("profile", [CurvatureProfile.zero(), CurvatureProfile.bump(0.5),
                                         CurvatureProfile.bump(-0.9), "tuned2"],
                             ids=["zero", "bump:0.5", "bump:-0.9", "tuned:2"])
    @pytest.mark.parametrize("order, panels", RULES)
    def test_mirrored_factors_are_the_full_strip_qr(self, profile, order, panels, request):
        # the default rules' s-nodes mirror bit for bit, and so does gamma on
        # them, except the zero profile's gamma' (+0.0 where -0.0 is odd)
        if profile == "tuned2":
            profile = request.getfixturevalue(profile)
        case = spectrum_for_case(profile).case
        table = ResidualQuadrature.build(profile, 1, F1, None, case, order, panels)
        half = table.s_pts.size // 2
        assert table._columns.shape[0] == (table.s_pts.size if profile.kind == "zero" else half)
        for ratio in _ratios(profile):
            got = table.factors(ratio)
            assert got.shape == (table.s_pts.size, 3, 3)
            assert got.tobytes() == full_strip_factors(table, ratio).tobytes()

    @pytest.mark.parametrize("profile_name", ["bump05", "tuned2"])
    @pytest.mark.parametrize("order, panels", [(4, (3, 4)), (8, (48, 16))])
    def test_unmirrored_nodes_take_the_full_strip(self, profile_name, order, panels, request):
        # the s-nodes mirror bit for bit at power-of-two panel counts (all of
        # 1 to 256 checked), not at these
        profile = request.getfixturevalue(profile_name)
        table = ResidualQuadrature.build(profile, 1, F1, None,
                                         spectrum_for_case(profile).case, order, panels)
        assert not np.array_equal(table.s_pts, -table.s_pts[::-1])
        assert table._columns.shape[0] == table.s_pts.size
        for ratio in _ratios(profile):
            assert table.factors(ratio).tobytes() == full_strip_factors(table, ratio).tobytes()

    @pytest.mark.parametrize("order, panels", RULES)
    def test_uneven_profile_takes_the_full_strip(self, bump05, order, panels):
        profile = ShiftedBump("bump", 0.5)
        table = ResidualQuadrature.build(profile, 1, F1, None,
                                         spectrum_for_case(bump05).case, order, panels)
        assert np.array_equal(table.s_pts, -table.s_pts[::-1])
        assert table._columns.shape[0] == table.s_pts.size
        for ratio in _ratios(profile):
            assert table.factors(ratio).tobytes() == full_strip_factors(table, ratio).tobytes()

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("eps", [0.1, 0.9])
    def test_vertex_profile_is_the_solution_s_own(self, profile_name, eps, request):
        # eps = 0.1 at z = i reads the cached Taylor series (|w| = 0.01); at
        # eps = 0.9, |w| = 0.81 > 0.25 and the kernel is a 1-term shot
        profile = request.getfixturevalue(profile_name)
        sol = assemble(profile, 1, Z, eps, 0.1 * eps, F1, None)
        assert len(sol.coeffs.kernel.zeta_sol.powers) == (1 if eps == 0.9 else SERIES_TERMS)
        table = ResidualQuadrature.build(profile, 1, F1, None, sol.case)
        for _ in range(2):  # a fresh and a cached node table
            got = table.vertex_profile(sol)
            expect = sol.vertex_profile(table.s_pts)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("eps", [0.1, 0.9])
    @pytest.mark.parametrize("order, panels", RULES + [(4, (3, 4))])
    def test_right_table_is_the_evaluated_one(self, profile_name, eps, order, panels, request):
        # on mirrored s-nodes the right side's table comes from the left's node
        # values; it equals the table of its own dense values, layout included
        profile = request.getfixturevalue(profile_name)
        sol = assemble(profile, 1, Z, eps, 0.1 * eps, F1, None)
        table = ResidualQuadrature.build(profile, 1, F1, None, sol.case, order, panels)
        table.vertex_profile(sol)
        eta, zeta = sol.coeffs.kernel.robin_sides(sol.coeffs.sigma)
        assert eta.coefficients.states is zeta.coefficients.states
        expect = eta.table(eta.coefficients(table.s_pts))
        got = table._sides[2]
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.flags.c_contiguous and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("eps", [0.1, 0.9])
    def test_uneven_profile_evaluates_the_right_side(self, bump05, eps, counts):
        # an uneven profile's right side is its own solve, evaluated at the nodes
        profile = ShiftedBump("bump", 0.5)
        sol = assemble(profile, 1, Z, eps, 0.1 * eps, F1, None,
                       case=spectrum_for_case(bump05).case)
        sides = sol.coeffs.kernel.robin_sides(sol.coeffs.sigma)
        right, left = (side.coefficients for side in sides)
        assert right.states is not left.states
        table = ResidualQuadrature.build(profile, 1, F1, None, sol.case)
        got = table.vertex_profile(sol)
        assert counts["dense"] == [left, right]
        assert got.tobytes() == sol.vertex_profile(table.s_pts).tobytes()

    def test_third_grid_moves_the_ratio(self):
        grid, (_, r) = self.SWEEPS[2]
        assert any(r * e / e != r for e in grid)

    def test_table_of_another_rule_rejected(self, bump05):
        sol = assemble(bump05, 1, Z, 0.2, 0.02, F1, None)
        table = ResidualQuadrature.build(bump05, 1, F1, None, sol.case, 6)
        with pytest.raises(ValueError):
            residual_norms(sol, table=table)
        with pytest.raises(ValueError):
            residual_norms(assemble(bump05, 2, Z, 0.2, 0.02, F1, None), 6, table=table)
        assert residual_norms(sol, 6, table=table) == residual_norms(sol, 6)

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls to the geometry fields, the data norm and each dense
        coefficient solution at the s-nodes, made through wglimit.residual."""
        counts = {"geometry": 0, "data_norm": 0, "dense": []}
        for name, key in (("geometry_residual_fields", "geometry"), ("data_norm", "data_norm")):
            def counted(*args, _fn=getattr(residual, name), _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(residual, name, counted)
        n_nodes = residual.QUADRATURE_PANELS[0] * residual.QUADRATURE_ORDER
        call = CoefficientSolution.__call__

        def dense(self, s):
            if np.size(s) == n_nodes:
                counts["dense"].append(self)
            return call(self, s)

        monkeypatch.setattr(CoefficientSolution, "__call__", dense)
        return counts

    def test_fixed_ratio_sweep_builds_the_tables_once(self, bump05, counts):
        grid = tuple(2.0**-k for k in range(3, 9))
        result = run_sweep(_residual_config(bump05, grid, ("ratio", 0.1)))
        assert len(result.rows) == len(grid)
        taylor = taylor_shooting(bump05)
        assert counts["geometry"] == 1
        assert counts["data_norm"] == 1
        # the mirrored right side's node values are the left's read backwards
        assert sum(sol is taylor.left.stacked for sol in counts["dense"]) == 1
        assert not any(sol is taylor.right.stacked for sol in counts["dense"])

    def test_power_rule_sweep_recomputes_the_geometry(self, bump05, counts):
        grid = tuple(2.0**-k for k in range(3, 9))
        run_sweep(_residual_config(bump05, grid, ("power", 1.5)))
        assert counts["geometry"] == len(grid)
        assert counts["data_norm"] == 1

