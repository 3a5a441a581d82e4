from __future__ import annotations

import numpy as np
import pytest

from wglimit import ExpDecay, assemble, kirchhoff_projector, pi_theta_projector
from wglimit.graph_limit import (
    apply_resolvent_grid,
    boundary_limits,
    decoupled_resolvent,
    kirchhoff_resolvent,
    limit_comparison,
    limit_resolvent,
)
from wglimit.vertex_spectrum import CaseLabel, classify

from conftest import log_slope

Z = 1j
F1 = ExpDecay(rate=1.0)
SYM = kirchhoff_projector(1 / np.sqrt(2), 1 / np.sqrt(2))


def one_sided_derivative(res, f1, f2, edge, h=1e-4):
    x0, x1, x2 = apply_resolvent_grid(res, f1, f2, np.array([0.0, h, 2 * h]), edge)
    return (-3 * x0 + 4 * x1 - x2) / (2 * h)


class TestApplyResolvent:
    def test_decoupled_dirichlet(self):
        res = decoupled_resolvent(Z)
        assert apply_resolvent_grid(res, F1, None, 0.0, 1) == 0.0
        assert apply_resolvent_grid(res, F1, None, 0.0, 2) == 0.0

    def test_symmetric_kirchhoff(self):
        # equal weights, equal data: profiles coincide and the common
        # boundary derivative vanishes
        res = kirchhoff_resolvent(Z, SYM)
        for s in (0.0, 0.7, 2.3):
            x1 = apply_resolvent_grid(res, F1, F1, s, 1)
            x2 = apply_resolvent_grid(res, F1, F1, s, 2)
            assert x1 == pytest.approx(x2, abs=1e-12)
        d1 = one_sided_derivative(res, F1, F1, 1)
        assert abs(d1) < 1e-6

    def test_boundary_conditions(self):
        # Lam0perp x(0) = 0 and Lam0 x'(0) = 0 for mixed data
        res = kirchhoff_resolvent(Z, SYM)
        x0 = np.array([apply_resolvent_grid(res, F1, None, 0.0, e) for e in (1, 2)])
        assert np.max(np.abs(SYM.lambda0_perp @ x0)) < 1e-9
        dx0 = np.array([one_sided_derivative(res, F1, None, e, h=1e-5) for e in (1, 2)])
        assert np.max(np.abs(SYM.lambda0 @ dx0)) < 1e-6

    def test_interior_equation(self):
        h = 5e-3
        for res in (decoupled_resolvent(Z), kirchhoff_resolvent(Z, SYM)):
            for s0 in (0.8, 2.0):
                vals = apply_resolvent_grid(res, F1, None, s0 + h * np.arange(-2, 3), 1)
                d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
                      - vals[4]) / (12 * h**2)
                assert abs(-d2 - Z * vals[2] - F1(s0)) < 1e-6

    def test_grid_against_closed_form(self):
        # r0 f1 = (e^{iks} - e^{-s})/(1 + z) on edge 1, plus the tails
        # q e^{iks} with p1 = Int e^{ikt} e^{-t} dt = 1/(1 - ik), q = (i/k) Lam0 p
        res = kirchhoff_resolvent(Z, SYM)
        k = np.sqrt(Z)
        s = np.array([0.0, 0.4, 1.7, 5.0])
        q = (1j / k) * (SYM.lambda0 @ np.array([1.0 / (1.0 - 1j * k), 0.0]))
        r0f = (np.exp(1j * k * s) - np.exp(-s)) / (1.0 + Z)
        for edge, base in ((1, r0f), (2, 0.0)):
            expect = base + q[edge - 1] * np.exp(1j * k * s)
            assert np.max(np.abs(apply_resolvent_grid(res, F1, None, s, edge) - expect)) < 1e-9

    def test_edge_index_guard(self, zero_profile):
        # edges are 1 and 2; 3 once read edge 2 (decoupled) or hit IndexError
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, F1, None)
        for edge in (0, 3):
            for res in (decoupled_resolvent(Z), kirchhoff_resolvent(Z, SYM)):
                with pytest.raises(ValueError):
                    apply_resolvent_grid(res, F1, None, 0.0, edge)
            with pytest.raises(ValueError):
                sol.edge_profile(edge, 0.5)


class TestLimitComparison:
    def test_trivial_data(self, zero_profile):
        sol = assemble(zero_profile, 1, Z, 0.1, 0.01, None, None)
        assert limit_comparison(sol.coeffs) == 0.0

    def test_reduction_matches_quadrature(self, zero_profile):
        # the analytic reduction equals a brute-force edge integral
        sol = assemble(zero_profile, 1, Z, 0.05, 0.005, F1, None)
        res = kirchhoff_resolvent(Z, SYM)
        value = limit_comparison(sol.coeffs)
        s = np.linspace(0.0, 40.0, 160001)
        total = 0.0
        for edge in (1, 2):
            diff = sol.edge_profile(edge, s) - apply_resolvent_grid(res, F1, None, s, edge)
            total += np.trapezoid(np.abs(diff) ** 2, s)
        assert value == pytest.approx(np.sqrt(total), rel=1e-6)

    def test_case2_slope(self, zero_profile):
        eps = [2.0**-k for k in range(4, 11)]
        vals = [limit_comparison(assemble(zero_profile, 1, Z, e, e**1.5, F1, None).coeffs)
                for e in eps]
        assert abs(log_slope(eps[1:], vals[1:]) - 1.0) < 0.15

    def test_case1_slope(self, bump05):
        eps = [2.0**-k for k in range(6, 13)]
        vals = [limit_comparison(assemble(bump05, 1, Z, e, e**1.5, F1, None).coeffs)
                for e in eps]
        assert abs(log_slope(eps[1:], vals[1:]) - 1.0) < 0.15


class TestBoundaryLimits:
    def test_trivial_data(self, bump05):
        sol = assemble(bump05, 1, Z, 0.1, 0.01, None, None)
        lims = boundary_limits(sol.coeffs)
        assert lims["value_defects"] == (0.0, 0.0)
        assert lims["derivative_defects"] == (0.0, 0.0)

    def test_case2_defects_shrink(self, zero_profile):
        eps = [2.0**-k for k in range(4, 11)]
        v, f = [], []
        for e in eps:
            lims = boundary_limits(assemble(zero_profile, 1, Z, e, e**1.5, F1, None).coeffs)
            v.append(lims["kirchhoff_value_defect"])
            f.append(lims["kirchhoff_flux_defect"])
        assert log_slope(eps[1:], v[1:]) >= 0.9
        assert log_slope(eps[1:], f[1:]) >= 0.9

    def test_case1_defects_shrink(self, bump05):
        eps = [2.0**-k for k in range(6, 13)]
        cols = {k: [] for k in range(4)}
        for e in eps:
            lims = boundary_limits(assemble(bump05, 1, Z, e, e**1.5, F1, None).coeffs)
            vals = lims["value_defects"] + lims["derivative_defects"]
            for k in range(4):
                cols[k].append(vals[k])
        for k in range(4):
            assert log_slope(eps[1:], cols[k][1:]) >= 0.9


class TestProjections:
    def test_pi_theta_two_edges_matches_complement(self):
        for a in ((1 / np.sqrt(2), 1 / np.sqrt(2)), (0.8, -0.6), (1.0, 0.0)):
            proj = kirchhoff_projector(*a)
            pi = pi_theta_projector(np.array(a))
            assert np.max(np.abs(pi.real - proj.lambda0_perp)) < 1e-12
            assert np.max(np.abs(pi.imag)) < 1e-12

    def test_pi_theta_general_projector(self, rng):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        pi = pi_theta_projector(a)
        assert np.max(np.abs(pi @ pi - pi)) < 1e-12
        assert np.max(np.abs(pi @ a)) < 1e-12

    def test_pi_theta_zero_vector(self):
        with pytest.raises(ValueError):
            pi_theta_projector(np.zeros(2))


class TestLimitResolvent:
    def test_generic_case_decouples(self):
        res = limit_resolvent(CaseLabel(False), Z)
        assert res.projector is None

    def test_resonant_case_uses_weights(self, zero_profile):
        res = limit_resolvent(classify(zero_profile), Z)
        assert res.projector is not None and res.z == Z
        assert np.allclose(res.projector.lambda0, SYM.lambda0, atol=1e-9)
