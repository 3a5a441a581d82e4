from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from wglimit import CurvatureProfile, GaussianPulse, assemble, fd_vertex_eigen, oracle_report
from wglimit.cli import main
from wglimit.fd_oracle import (
    CUT_LOG,
    MAX_FD_UNKNOWNS,
    SOLVE_RESIDUAL_TOL,
    FDSolution,
    OracleError,
    WaveguideField,
    WaveguideGrid,
    _sine_system,
    _strip_factor,
    _unflatten,
    fd_resolvent,
    suggest_edge_length,
    trapezoid_weights,
)
from wglimit.profile import geometry_fields
from wglimit.residual import chi_mode, data_norm

Z4 = 4j  # faster decay -> short truncated edges for module-level tests
F_G = GaussianPulse(center=2.0, width=0.4)
F_G2 = GaussianPulse(center=1.5, width=0.3)


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
        # 441k unknowns, but the strip's dense 511 x 511 blocks hold 2.5e7 entries
        with pytest.raises(ValueError, match="block entries exceeds"):
            WaveguideGrid(0.3, 0.027, 26.0, 1 / 16, 1 / 512)

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
        # every diagonal and off-diagonal block of the strip is symmetric;
        # its mode diagonal is a diagonal
        grid = small_grid()
        system = _sine_system(grid, bump05, 1, Z4)
        J, M = grid.n_vertex, grid.n_u
        assert system.diag.shape == (J + 1, M, M) and system.off.shape == (J, M, M)
        for blocks in (system.diag, system.off):
            assert np.abs(blocks - blocks.transpose(0, 2, 1)).max() <= 1e-14 * np.abs(blocks).max()

    def test_apply_matches_dense_operator(self, bump05):
        # A y and |A| |y| against the matrix built out of the dense blocks,
        # the chains and their couplings to the interface lines
        system = _sine_system(small_grid(), bump05, 1, Z4)
        a, abs_a = operator_matrix(system), operator_matrix(system, absolute=True)
        y = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, a.shape[0]))
        assert np.allclose(system.apply(y), a @ y, rtol=0.0,
                           atol=1e-13 * abs(a).max() * np.abs(y).max())
        assert np.allclose(system.apply(y, absolute=True), abs_a @ np.abs(y), rtol=1e-13, atol=0.0)

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


def assemble_physical(grid: WaveguideGrid, profile, n: int, z: complex, f1, f2):
    """The 2-D system in the physical basis (u-node values line by line), the
    independent reference for the sine-basis solve: second-order stencils
    with the discrete transverse shift subtracted on every diagonal."""
    eps, delta = grid.epsilon, grid.delta
    he, hv, hu = grid.h_s, grid.h_s, grid.h_u
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    u = grid.u_nodes
    ratio = delta / eps
    shift = (2.0 / hu * math.sin(n * math.pi * hu / 2.0)) ** 2 / delta**2 + z
    diag_edge = he * hu * (2.0 / he**2 + 2.0 / (delta**2 * hu**2) - shift)
    wu_edge, ws_edge = -he / (delta**2 * hu), -hu / he

    sigma = grid.vertex_s
    mid = sigma[:-1] + 0.5 * hv
    amid = geometry_fields(profile, mid[:, None], u[None, :], ratio)["inv_g"]
    w_pot = geometry_fields(profile, sigma[1:-1, None], u[None, :], ratio)["W"]
    c_cell = 0.5 * (he + eps * hv)

    n_lines = grid.n_lines
    iface1, iface2 = K - 1, K + J - 1
    vertex_lines = np.arange(K, K + J - 1)
    edge1_lines = np.arange(0, K - 1)
    edge2_lines = np.arange(K + J, n_lines)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64).ravel())
        cols.append(np.asarray(c, dtype=np.int64).ravel())
        vals.append(np.asarray(v, dtype=complex).ravel())

    m_idx = np.arange(M)
    for lines in (edge1_lines, edge2_lines):
        r = lines[:, None] * M + m_idx[None, :]
        add(r, r, np.full(r.shape, diag_edge))
    r = vertex_lines[:, None] * M + m_idx[None, :]
    add(r, r, eps * hv * hu * ((amid[:-1, :] + amid[1:, :]) / (eps**2 * hv**2)
                               + w_pot / eps**2 + 2.0 / (delta**2 * hu**2) - shift))
    for iface, a_edge in ((iface1, amid[0, :]), (iface2, amid[-1, :])):
        r = iface * M + m_idx
        add(r, r, hu * (1.0 / he + a_edge / (eps * hv)
                        + 2.0 * c_cell / (delta**2 * hu**2) - c_cell * shift))

    # s-coupling between adjacent lines
    pair_l = np.arange(n_lines - 1)
    left = pair_l[:, None] * M + m_idx[None, :]
    right = (pair_l[:, None] + 1) * M + m_idx[None, :]
    coup = np.empty((n_lines - 1, M), dtype=complex)
    coup[: K - 1, :] = ws_edge
    coup[K - 1: K + J - 1, :] = -hu * amid / (eps * hv)
    coup[K + J - 1:, :] = ws_edge
    add(left, right, coup)
    add(right, left, coup)

    # u-coupling within each line, by its s-weight
    weight = np.full(n_lines, he)
    weight[K: K + J - 1] = eps * hv
    weight[[iface1, iface2]] = c_cell
    line_wu = -weight / (delta**2 * hu)
    line_wu[np.r_[edge1_lines, edge2_lines]] = wu_edge
    lo = np.arange(n_lines)[:, None] * M + m_idx[None, :-1]
    wv = np.broadcast_to(line_wu[:, None], lo.shape)
    add(lo, lo + 1, wv)
    add(lo + 1, lo, wv)
    a = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(grid.n_unknowns, grid.n_unknowns)).tocsc()

    # edge data f_j chi_n
    chi = chi_mode(n, u)
    b = np.zeros(grid.n_unknowns, dtype=complex)
    for lines, f, iface in ((edge1_lines, f1, iface1), (edge2_lines, f2, iface2)):
        if f is None:
            continue
        fv = np.asarray(f(np.abs(lines - iface) * he), dtype=float)
        b[(lines[:, None] * M + m_idx[None, :]).ravel()] = \
            (he * hu * fv[:, None] * chi[None, :]).ravel()
        b[iface * M + m_idx] = hu * (he / 2.0) * float(f(0.0)) * chi
    return a, b


def operator_matrix(system, absolute: bool = False) -> sp.csr_matrix:
    """The packed sine-basis system as one matrix, from its parts: the strip
    dense out of its blocks, the chains and their interface couplings.  With
    ``absolute`` each part is taken in modulus first, the blocks apart from
    the mode diagonal, as the backward error reads |A|."""
    J, M = system.grid.n_vertex, system.grid.n_u
    mod = np.abs if absolute else np.asarray
    strip = np.zeros(((J + 1) * M,) * 2, dtype=complex)
    for j in range(J + 1):
        rows = slice(j * M, (j + 1) * M)
        strip[rows, rows] = mod(system.diag[j]) + np.diag(mod(system.strip_diag[j]))
        if j < J:
            nxt = slice(rows.start + M, rows.stop + M)
            strip[rows, nxt] = strip[nxt, rows] = mod(system.off[j])
    off, N = mod(system.chain_off), len(system.chain_diag)
    chain = sp.diags([off, mod(system.chain_diag), off], [-1, 0, 1])
    couple = [sp.coo_matrix((np.full(M, mod(system.w_s)), (system.start, line * M + np.arange(M))),
                            shape=(N, (J + 1) * M)) for line in (0, J)]
    return sp.bmat([[chain, None, couple[0]], [None, chain, couple[1]],
                    [couple[0].T, couple[1].T, strip]], format="csr")


def assert_matches_direct_solve(fd: FDSolution, profile, f1, f2, rel: float) -> None:
    """fd's field equals spsolve of the physical-basis system, line block by line block."""
    grid = fd.grid
    a, b = assemble_physical(grid, profile, fd.n, fd.z, f1, f2)
    ref = _unflatten(grid, spla.spsolve(a, b))
    for name in ("edge1", "vertex", "edge2"):
        got, want = getattr(fd.field, name), getattr(ref, name)
        assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want), name
    assert fd.solve_residual <= SOLVE_RESIDUAL_TOL


class TestEdgeElimination:
    @pytest.mark.parametrize("profile", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_direct_solve(self, request, profile, n):
        profile = request.getfixturevalue(profile)
        fd = fd_resolvent(small_grid(), profile, n, Z4, F_G, F_G2)
        assert_matches_direct_solve(fd, profile, F_G, F_G2, rel=1e-9)

    @pytest.mark.parametrize("n_edge", [1, 2])
    def test_one_edge_line_or_none(self, bump05, n_edge):
        # Im sqrt(z) ~ 89 and 141 keep the truncation guard quiet on s_max = h, 2h
        h = 1 / 8
        z = -8000.0 + 1j if n_edge == 2 else -2e4 + 1j
        grid = WaveguideGrid(0.5, 0.5**3, n_edge * h, h, h)
        assert grid.n_edge == n_edge
        f1 = GaussianPulse(center=0.1, width=0.5)
        fd = fd_resolvent(grid, bump05, 1, z, f1, F_G2)
        assert np.max(np.abs(fd.field.edge1[: n_edge])) > 0.0
        assert_matches_direct_solve(fd, bump05, f1, F_G2, rel=1e-12)

    def test_lu_sees_only_the_vertex_strip(self, bump05, monkeypatch):
        # one M x M block per strip line, nothing from the edges
        shapes = []
        zgetrf = lapack.zgetrf

        def counting_zgetrf(a, *args, **kwargs):
            shapes.append(a.shape)
            return zgetrf(a, *args, **kwargs)

        monkeypatch.setattr(lapack, "zgetrf", counting_zgetrf)
        grid = small_grid()
        fd_resolvent(grid, bump05, 1, Z4, F_G, F_G2)
        assert shapes == [(grid.n_u, grid.n_u)] * (grid.n_vertex + 1)
        assert (grid.n_vertex + 1) * grid.n_u < grid.n_unknowns / 10

    def test_chains_keep_only_their_live_lines(self, bump05, monkeypatch):
        # z = i puts the edge ends at s = 26, far past where the modes k != n
        # underflow; each such chain keeps the fewest lines l with
        # rho_k^l <= e^CUT_LOG, rho_k its decaying root
        sizes = []
        zgttrf = lapack.zgttrf

        def counting_zgttrf(dl, d, du, *args, **kwargs):
            sizes.append(len(d))
            return zgttrf(dl, d, du, *args, **kwargs)

        monkeypatch.setattr(lapack, "zgttrf", counting_zgttrf)
        grid = WaveguideGrid.build(0.25, 0.25**3, 1j, h_u=1 / 16, h_s=1 / 64)
        fd_resolvent(grid, bump05, 1, 1j, F_G, F_G2)
        hu, hs, M, L = grid.h_u, grid.h_s, grid.n_u, grid.n_edge - 1
        lam = (2.0 / hu * np.sin(np.arange(1, M + 1) * math.pi * hu / 2)) ** 2
        live = [L]
        for gap in lam[1:] - lam[0]:
            c = hs * hu * (gap / grid.delta**2 - 1j) + 2.0 * hu / hs
            rho = 1.0 / np.max(np.abs(np.roots([-hu / hs, c, -hu / hs])))
            live.append(min(L, max(1, math.ceil(CUT_LOG / math.log(rho)))))
        assert sizes == [sum(live)]
        assert sizes[0] < M * L / 5


class TestStripFactor:
    @pytest.mark.parametrize("lines", [2, 3, 17])  # 2: J = 1, the interface lines only
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_matches_dense_solve(self, lines, m):
        # real symmetric blocks plus a complex diagonal with a positive
        # imaginary part: complex symmetric and, like the resolvent at
        # Im z != 0, nonsingular, Schur complements included
        rng = np.random.default_rng(10 * lines + m)
        diag, off = (b + b.transpose(0, 2, 1) for b in
                     (rng.standard_normal((lines, m, m)), rng.standard_normal((lines - 1, m, m))))
        d = rng.standard_normal((lines, m)) + 1j * (0.5 + rng.random((lines, m)))
        r = rng.standard_normal((lines, m)) + 1j * rng.standard_normal((lines, m))
        a = np.zeros((lines * m,) * 2, dtype=complex)
        for j in range(lines):
            a[j * m: (j + 1) * m, j * m: (j + 1) * m] = diag[j] + np.diag(d[j])
            if j + 1 < lines:
                a[j * m: (j + 1) * m, (j + 1) * m: (j + 2) * m] = off[j]
                a[(j + 1) * m: (j + 2) * m, j * m: (j + 1) * m] = off[j]
        want = scipy.linalg.solve(a, r.ravel())
        got = _strip_factor(diag, off, d)(r)
        assert got.shape == (lines, m)
        assert np.linalg.norm(got.ravel() - want) <= 1e-12 * np.linalg.norm(want)


class TestThinGuide:
    """delta = eps^3 puts 1/delta^2 near 1e12 at eps = 0.0094; the mode-n
    resolvent must keep the h_s floor it has at eps = 0.3."""

    @pytest.mark.parametrize("profile", ["zero_profile", "bump05"])
    def test_trial_field_distance_holds_at_small_delta(self, request, profile):
        profile = request.getfixturevalue(profile)
        f1 = GaussianPulse(3.0, 0.5)
        hat = {eps: oracle_report(profile, 1j, eps, eps**3, f1, None)["hat_vs_discrete"]
               for eps in (0.3, 0.0094)}
        assert hat[0.0094] <= 2.0 * hat[0.3]

    def test_backward_error_gate_fires(self, bump05, monkeypatch, tmp_path):
        # a strip factor of blocks 1.01 U_j leaves, after the one refinement
        # step, a backward error far above the tolerance (a constant factor
        # over the whole solve would be cancelled by the refinement)
        zgetrf = lapack.zgetrf
        monkeypatch.setattr(lapack, "zgetrf", lambda a, *args, **kw: zgetrf(1.01 * a, *args, **kw))
        with pytest.raises(OracleError, match="backward error"):
            fd_resolvent(small_grid(), bump05, 1, Z4, F_G, None)
        argv = ["oracle-compare", "--profile", "bump:0.5", "--z", "0,1", "--epsilon", "0.3",
                "--f1", "gaussian:3,0.5", "--out", str(tmp_path / "o.json")]
        assert main(argv) == 3


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
