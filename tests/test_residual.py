from __future__ import annotations

import numpy as np
import pytest

from wglimit import (
    ExpDecay,
    GaussianPulse,
    assemble,
    residual_field,
    residual_norms,
    vertex_subtracted_norms,
)
from wglimit.profile import geometry_fields
from wglimit.residual import chi_mode, data_norm

from conftest import log_slope

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

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05"])
    def test_interface_matching(self, profile_name, request):
        profile = request.getfixturevalue(profile_name)
        sol = assemble(profile, 1, Z, 0.1, 0.01, F1, None)
        defects = sol.interface_defects()
        assert max(defects["value"]) < 1e-9
        assert max(defects["derivative"]) < 1e-8


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
            g = geometry_fields(bump05, s0, u0, rho)
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


class TestVertexSubtractedNorms:
    def test_case1_rejected(self, bump05):
        sol = assemble(bump05, 1, Z, 0.2, 0.02, F1, None)
        with pytest.raises(ValueError):
            vertex_subtracted_norms(sol)

    def test_zero_data(self, zero_profile):
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, None, None)
        out = vertex_subtracted_norms(sol)
        assert out["diff_norm"] == 0.0 and out["ratio"] == 0.0

    def test_bounded_along_sweep(self, zero_profile):
        ratios = []
        for k in range(3, 9):
            sol = assemble(zero_profile, 1, Z, 2.0**-k, 0.1 * 2.0**-k, F1, None)
            out = vertex_subtracted_norms(sol)
            ratios.append(max(out["ratio"], out["deriv_ratio"]))
        assert max(ratios) <= 2.0 * max(ratios[0], 1e-12)

    def test_tuned_regression_value(self, tuned2):
        # first-run calibration: finite ratio recorded for regression
        sol = assemble(tuned2, 1, Z, 0.1, 0.01, F1, None)
        out = vertex_subtracted_norms(sol)
        assert 0.0 < out["ratio"] < 10.0


def test_data_norm_closed_form():
    # ||exp(-s)||^2 = 1/2 over the half line
    assert data_norm(F1, None) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    g = GaussianPulse(center=3.0, width=0.5)
    expect = np.sqrt(0.5 * np.sqrt(np.pi / 2))
    assert data_norm(g, None) == pytest.approx(expect, rel=1e-10)
