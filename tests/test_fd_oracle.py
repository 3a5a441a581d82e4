from __future__ import annotations

import numpy as np
import pytest

from wglimit import (
    CurvatureProfile,
    GaussianPulse,
    WaveguideGrid,
    assemble,
    fd_resolvent,
    fd_vertex_eigen,
)
from wglimit.fd_oracle import (
    MAX_FD_UNKNOWNS,
    FDSolution,
    OracleError,
    WaveguideField,
    _assemble,
    suggest_edge_length,
    trapezoid_weights,
)
from wglimit.residual import chi_mode, data_norm

Z4 = 4j  # faster decay -> short truncated edges for module-level tests
F_G = GaussianPulse(center=2.0, width=0.4)


def small_grid(eps=0.25, delta=0.25**3, h=1.0 / 16) -> WaveguideGrid:
    return WaveguideGrid.build(eps, delta, Z4, h_u=h, h_s=h)


class TestVertexEigen:
    def test_size_guard(self, zero_profile):
        with pytest.raises(OracleError):
            fd_vertex_eigen(zero_profile, 100, 2)

    def test_zero_profile_extrapolated(self, zero_profile):
        fd = fd_vertex_eigen(zero_profile, 2000, 4)
        assert abs(fd.lams[1] - np.pi**2 / 4) < 1e-5
        # Richardson beats the raw coarse value by orders of magnitude
        assert abs(fd.lams[1] - np.pi**2 / 4) < abs(fd.lams_coarse[1] - np.pi**2 / 4)

    def test_matches_shooting(self, bump05):
        from wglimit import eigenvalues

        spec = eigenvalues(bump05, 6)
        fd = fd_vertex_eigen(bump05, 2000, 6)
        assert np.max(np.abs(spec.eigenvalues - fd.lams)) < 1e-6

    def test_tuned_second_mode_has_one_node(self, tuned2):
        fd = fd_vertex_eigen(tuned2, 1000, 2)
        v = fd.vectors[:, 1]
        sig = np.sign(v[np.abs(v) > 1e-3 * np.max(np.abs(v))])
        assert int(np.sum(sig[1:] != sig[:-1])) == 1

    def test_vectors_l2_normalised(self, bump05):
        fd = fd_vertex_eigen(bump05, 500, 3)
        h = fd.grid.h
        for k in range(3):
            assert abs(h * np.sum(fd.vectors[:, k] ** 2) - 1.0) < 1e-12


class TestGridValidation:
    def test_h_u_must_divide(self):
        with pytest.raises(ValueError):
            WaveguideGrid(0.25, 0.01, 10.0, 1 / 16, 0.3)

    def test_delta_le_eps(self):
        with pytest.raises(ValueError):
            WaveguideGrid(0.1, 0.2, 10.0, 1 / 16, 1 / 16)

    def test_unknowns_bounded(self):
        # the edge length grows like 1/Im sqrt(z): 1.46e17 unknowns here
        with pytest.raises(ValueError, match="unknowns exceeds"):
            WaveguideGrid.build(0.3, 0.027, 1 + 1e-12j)
        grid = WaveguideGrid.build(0.3, 0.027, 1j, h_s=1 / 512)
        assert grid.n_unknowns <= MAX_FD_UNKNOWNS
        with pytest.raises(ValueError, match="unknowns exceeds"):
            grid.refined()

    def test_suggest_edge_length(self):
        s = suggest_edge_length(1j)
        assert np.exp(-np.sqrt(0.5) * s) <= 1e-8 * 1.0001

    def test_real_z_rejected(self):
        with pytest.raises(OracleError):
            suggest_edge_length(4.0)


class TestFDResolvent:
    def test_zero_data_zero_field(self, bump05):
        grid = small_grid()
        fd = fd_resolvent(grid, bump05, 1, Z4, None, None)
        assert np.max(np.abs(fd.field.vertex)) == 0.0
        assert np.max(np.abs(fd.field.edge1)) == 0.0

    def test_real_z_rejected(self, bump05):
        with pytest.raises(OracleError):
            fd_resolvent(small_grid(), bump05, 1, 4.0, F_G, None)

    def test_truncation_guard(self, bump05):
        grid = WaveguideGrid(0.25, 0.25**3, 2.0, 1 / 16, 1 / 16)
        with pytest.raises(OracleError):
            fd_resolvent(grid, bump05, 1, Z4, F_G, None)

    def test_scaled_operator_symmetry(self, bump05):
        a = _assemble(small_grid(), bump05, 1, Z4, None, None)[0]
        assert abs(a - a.T).max() <= 1e-12

    def test_resolvent_bound(self, bump05):
        grid = small_grid()
        fd = fd_resolvent(grid, bump05, 1, Z4, F_G, None)
        xi_norm = data_norm(F_G, None)  # transverse mode is normalised
        assert fd.energy_norm <= xi_norm / abs(Z4.imag) * 1.05

    def test_energy_norm_matches_field_trapezoid(self, bump05):
        # the chain-vector norm equals trapezoid sums over the stored field:
        # each interface line gets h_s/2 from its edge and eps*h_s/2 from the vertex
        grid = small_grid()
        fd = fd_resolvent(grid, bump05, 1, Z4, F_G, None)
        f = fd.field
        w_edge = trapezoid_weights(grid.n_edge + 1, grid.h_s)[:, None]
        w_vert = grid.epsilon * trapezoid_weights(grid.n_vertex + 1, grid.h_s)[:, None]
        sq = grid.h_u * (np.sum(w_edge * np.abs(f.edge1) ** 2)
                         + np.sum(w_edge * np.abs(f.edge2) ** 2)
                         + np.sum(w_vert * np.abs(f.vertex) ** 2))
        assert fd.energy_norm == pytest.approx(np.sqrt(sq), rel=1e-12)

    def test_interface_continuity_encoded(self, bump05):
        fd = fd_resolvent(small_grid(), bump05, 1, Z4, F_G, None)
        assert np.allclose(fd.field.edge1[0], fd.field.vertex[0], atol=1e-14)
        assert np.allclose(fd.field.edge2[0], fd.field.vertex[-1], atol=1e-14)

    def test_zero_profile_matches_trial_field(self, zero_profile):
        # the trial field is the exact resolvent at gamma = 0, so the
        # discrete mismatch is pure discretisation error
        eps, delta = 0.3, 0.3**3
        grid = WaveguideGrid.build(eps, delta, 1j, h_u=1 / 32, h_s=1 / 64)
        fd = fd_resolvent(grid, zero_profile, 1, 1j, F_G, None)
        sol = assemble(zero_profile, 1, 1j, eps, delta, F_G, None)
        s = grid.edge_s
        w = np.full(len(s), grid.h_s)
        w[0] = w[-1] = grid.h_s / 2
        err_sq = ref_sq = 0.0
        for edge in (1, 2):
            diff = fd.edge_projection(edge) - sol.edge_profile(edge, s)
            err_sq += np.sum(w * np.abs(diff) ** 2)
            ref_sq += np.sum(w * np.abs(sol.edge_profile(edge, s)) ** 2)
        assert np.sqrt(err_sq / ref_sq) <= 0.02

    def test_grid_convergence_second_order(self, zero_profile):
        eps, delta = 0.25, 0.25**3
        sol = assemble(zero_profile, 1, Z4, eps, delta, F_G, None)
        errs = []
        for h in (1 / 16, 1 / 32):
            grid = WaveguideGrid.build(eps, delta, Z4, h_u=1 / 16, h_s=h)
            fd = fd_resolvent(grid, zero_profile, 1, Z4, F_G, None)
            s = grid.edge_s
            w = np.full(len(s), h)
            w[0] = w[-1] = h / 2
            e = 0.0
            for edge in (1, 2):
                diff = fd.edge_projection(edge) - sol.edge_profile(edge, s)
                e += np.sum(w * np.abs(diff) ** 2)
            errs.append(np.sqrt(e))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_transverse_mode_exactness(self, zero_profile):
        # for gamma = 0 the discrete field stays in the driven mode
        fd = fd_resolvent(small_grid(), zero_profile, 2, Z4, F_G, None)
        other = fd.edge_projection(1, n=1)
        driven = fd.edge_projection(1, n=2)
        assert np.max(np.abs(other)) < 1e-12 * max(np.max(np.abs(driven)), 1e-30)


def hand_solution(grid: WaveguideGrid, edge1, edge2, n: int) -> FDSolution:
    """An FDSolution wrapping given edge fields (zero vertex field)."""
    vertex = np.zeros((grid.n_vertex + 1, grid.n_u))
    field = WaveguideField(grid, edge1, edge2, vertex)
    return FDSolution(grid, CurvatureProfile.zero(), n, 1j, field, 0.0, 0.0)


class TestEdgeProjection:
    def test_adjoint(self):
        # ((g1,g2), P psi)_G == (P* (g1,g2), psi) with shared quadrature
        grid = WaveguideGrid(1.0, 1.0, 5.0, 0.05, 1.0 / 64)
        h_u, u, s = grid.h_u, grid.u_nodes, grid.edge_s
        n = 2
        psi = [np.outer(np.exp(-s) * np.cos(3 * s), np.sin(np.pi * u))
               + 0.5 * np.outer(np.exp(-0.5 * s), np.sin(2 * np.pi * u))
               for _ in range(2)]
        g = [np.exp(-s), np.cos(s) * np.exp(-s)]
        sol = hand_solution(grid, psi[0], psi[1], n)
        lhs = sum(np.trapezoid(g[j] * sol.edge_projection(j + 1), s) for j in range(2))
        chi = chi_mode(n, u)
        rhs = sum(np.trapezoid((g[j][:, None] * chi[None, :] * psi[j]).sum(axis=1) * h_u, s)
                  for j in range(2))
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_discrete_orthonormality(self):
        grid = WaveguideGrid(1.0, 1.0, 2.0, 1.0, 1.0 / 32)
        field = np.outer(np.ones(3), chi_mode(2, grid.u_nodes))
        sol = hand_solution(grid, field, field, 2)
        assert np.allclose(sol.edge_projection(1), 1.0, atol=1e-12)
        assert np.allclose(sol.edge_projection(2), 1.0, atol=1e-12)
        assert np.allclose(sol.edge_projection(1, n=1), 0.0, atol=1e-12)
