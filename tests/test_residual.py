from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

import wglimit.residual as residual
from wglimit import (
    ExperimentConfig,
    ExpDecay,
    GaussianPulse,
    Indicator,
    assemble,
    residual_norms,
    run_sweep,
)
from wglimit.experiments import SweepContext, _assemble, delta_for
from wglimit.residual import (
    ResidualQuadrature,
    chi_mode,
    data_norm,
    residual_field,
    vertex_subtracted_norms,
)
from wglimit.vertex_spectrum import CoefficientSolution, taylor_shooting

from conftest import log_slope, plain_geometry

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


def _residual_config(profile, eps_grid, delta_rule) -> ExperimentConfig:
    return ExperimentConfig(profile=profile, metric="residual", z=1j, eps_grid=eps_grid,
                            delta_rule=delta_rule, p=None,
                            f1={"type": "exp", "rate": 1.0})


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

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("eps_grid, delta_rule", SWEEPS)
    def test_table_matches_direct_call_bit_for_bit(self, profile_name, eps_grid,
                                                   delta_rule, request):
        profile = request.getfixturevalue(profile_name)
        cfg = _residual_config(profile, eps_grid, delta_rule)
        ctx = SweepContext.build(cfg)
        for eps in eps_grid:
            sol = _assemble(ctx, eps, delta_for(delta_rule, eps))
            via_table = residual_norms(sol, cfg.quadrature_order, cfg.quadrature_panels,
                                       table=ctx.residual)
            direct = residual_norms(sol, cfg.quadrature_order, cfg.quadrature_panels)
            assert _bits(via_table) == _bits(direct)

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
        for side in (taylor.left, taylor.right):
            assert sum(sol is side for sol in counts["dense"]) == 1

    def test_power_rule_sweep_recomputes_the_geometry(self, bump05, counts):
        grid = tuple(2.0**-k for k in range(3, 9))
        run_sweep(_residual_config(bump05, grid, ("power", 1.5)))
        assert counts["geometry"] == len(grid)
        assert counts["data_norm"] == 1

