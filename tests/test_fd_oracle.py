from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from wglimit import GaussianPulse, assemble, fd_vertex_eigen, oracle_report
from wglimit.cli import main
from wglimit.fd_oracle import (
    APPLY_CHUNK_LINES,
    MAX_FD_UNKNOWNS,
    MIN_EDGE_STEPS,
    SOLVE_RESIDUAL_TOL,
    FDSolution,
    OracleError,
    WaveguideGrid,
    _block_solve,
    _edge_modes,
    _rhs,
    _sine_blocks,
    _sine_system,
    _strip_factor,
    fd_resolvent,
    suggest_edge_length,
    trapezoid_weights,
)
from wglimit.profile import CurvatureProfile, geometry_fields
from wglimit.residual import chi_mode, data_norm

from conftest import ShiftedBump

SRC = Path(__file__).resolve().parents[1] / "src"
Z4 = 4j  # faster decay -> short truncated edges for module-level tests
F_G = GaussianPulse(center=2.0, width=0.4)
F_G2 = GaussianPulse(center=1.5, width=0.3)


def small_grid(eps=0.25, delta=0.25**3, h=1.0 / 16) -> WaveguideGrid:
    return WaveguideGrid.build(eps, delta, Z4, h_u=h, h_s=h)


def small_grid_hs(h_s: float) -> WaveguideGrid:
    """``small_grid`` with its own s-step."""
    return WaveguideGrid.build(0.25, 0.25**3, Z4, h_u=1.0 / 16, h_s=h_s)


def sine_matrix(hu: float) -> np.ndarray:
    """S_jk = sqrt(2 h_u) sin(jk pi h_u) on the u-nodes: S = S^T = S^-1."""
    k = np.arange(1, round(1.0 / hu))
    return math.sqrt(2.0 * hu) * np.sin(np.outer(k, k) * (math.pi * hu))


def edge_shifts(grid: WaveguideGrid, n: int, z: complex) -> np.ndarray:
    """Each mode's shift h_s h_u (gap/delta^2 - z) on an edge line, whose
    diagonal is that plus 2 h_u/h_s."""
    hu = grid.h_u
    lam = (2.0 / hu * np.sin(np.arange(1, grid.n_u + 1) * math.pi * hu / 2)) ** 2
    return grid.h_s * hu * ((lam - lam[n - 1]) / grid.delta**2 - z)


def decaying_root(shift: complex, w_s: float) -> complex:
    """The root of w_s rho^2 + (shift - 2 w_s) rho + w_s = 0 inside the unit
    circle, as 1 over the larger root (the roots' product is 1; the small one
    carries no digits)."""
    roots = np.roots([w_s, shift - 2.0 * w_s, w_s])
    return 1.0 / roots[np.argmax(np.abs(roots))]


def sine_lines(grid: WaveguideGrid, profile, n: int, z: complex, f1, f2) -> np.ndarray:
    """The sine-basis solution of ``fd_resolvent`` on every line, (n_lines, M)
    in the physical line order: the packed unknowns, and each data-free edge
    chain of a mode k != n rebuilt from its interface value x_k as
    x_k (rho^l - rho^(2K-l)) / (1 - rho^(2K)), rho its decaying root."""
    system = _sine_system(grid, profile, n, z)
    chains, lines = system.split(_block_solve(system, _rhs(system, f1, f2)))
    K, J = grid.n_edge, grid.n_vertex
    out = np.zeros((grid.n_lines, grid.n_u), dtype=complex)
    out[K - 1: K + J] = lines
    rho = np.array([decaying_root(e, system.w_s) for e in edge_shifts(grid, n, z)])
    l = np.arange(1, K)[:, None]
    shape = (rho**l - rho ** (2 * K - l)) / (1.0 - rho ** (2 * K))
    outward = (K - 1 - l.ravel(), K + J - 1 + l.ravel())  # edge 1 runs to line 0
    for edge, (rows, iface) in enumerate(zip(outward, (0, J))):
        out[rows] = lines[iface] * shape
        out[rows, n - 1] = chains[edge]
    return out


def count_zgetrf(monkeypatch) -> list:
    """The shapes of the matrices that zgetrf factors from now on."""
    shapes, zgetrf = [], lapack.zgetrf

    def counting_zgetrf(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return zgetrf(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "zgetrf", counting_zgetrf)
    return shapes


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
        h = fd.h
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

    @pytest.mark.parametrize("h_u, h_s, name", [(1e-320, 1 / 16, "h_u"), (1 / 16, 1e-320, "h_s")])
    def test_tiny_step_rejected(self, h_u, h_s, name):
        # 1/h is not finite: refused before it is rounded
        with pytest.raises(ValueError, match=f"{name} = 1e-320 is too small"):
            WaveguideGrid(0.25, 0.01, 10.0, h_s, h_u)

    @pytest.mark.parametrize("delta", [1e-160, 1e-200, 5e-324])
    def test_tiny_delta_rejected(self, delta):
        # (4/h_u^2)/delta^2 is not finite: the mode diagonals would be inf
        with pytest.raises(ValueError, match="delta = .* is too small"):
            WaveguideGrid(0.25, delta, 10.0, 1 / 16, 1 / 16)
        WaveguideGrid(0.25, 1e-150, 10.0, 1 / 16, 1 / 16)

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
        assert fd.projections.shape == (2, grid.n_edge + 1)
        assert np.max(np.abs(fd.projections)) == 0.0
        assert fd.energy_norm == 0.0  # a sum of squares over every line

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
        diag, off = np.asarray(system.diag), np.asarray(system.off)
        assert diag.shape == (J + 1, M, M) and off.shape == (J, M, M)
        for blocks in (diag, off):
            assert np.abs(blocks - blocks.transpose(0, 2, 1)).max() <= 1e-14 * np.abs(blocks).max()

    @pytest.mark.parametrize("even", [False, True])
    def test_mirrored_flag_is_the_block_comparison(self, bump05, even):
        # the flag the strip factor reads, from the line arrays, against the blocks
        profile = bump05 if even else ShiftedBump("bump", 0.5)
        system = _sine_system(small_grid(), profile, 1, Z4)
        blocks = np.asarray(system.diag), np.asarray(system.off)
        assert system.mirrored == blocks_mirrored(*blocks) == even

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
        # for gamma = 0 the discrete field stays in the driven mode, on every line
        y = sine_lines(small_grid(), zero_profile, 2, Z4, F_G, None)
        driven = np.max(np.abs(y[:, 1]))
        assert driven > 0.0
        assert np.max(np.abs(np.delete(y, 1, axis=1))) < 1e-12 * driven


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
    dense out of its blocks and edge gains, mode n's chains and their interface
    couplings.  With ``absolute`` each part is taken in modulus first, the
    blocks apart from the mode diagonal and the edge gain, as the backward
    error reads |A|."""
    J, M = system.grid.n_vertex, system.grid.n_u
    mod = np.abs if absolute else np.asarray
    strip = np.zeros(((J + 1) * M,) * 2, dtype=complex)
    for j in range(J + 1):
        rows = slice(j * M, (j + 1) * M)
        strip[rows, rows] = mod(system.diag[j]) + np.diag(mod(system.strip_diag[j]))
        if j < J:
            nxt = slice(rows.start + M, rows.stop + M)
            strip[rows, nxt] = strip[nxt, rows] = mod(system.off[j])
        if j in (0, J):
            strip[rows, rows] += np.diag(mod(system.edge_gain))
    L = system.grid.n_edge - 1
    off = np.full(L - 1, mod(system.w_s))
    chain = sp.diags([off, np.full(L, mod(system.chain_diag)), off], [-1, 0, 1])
    couple = [sp.coo_matrix(([mod(system.w_s)], ([0], [line * M + system.n - 1])),
                            shape=(L, (J + 1) * M)) for line in (0, J)]
    return sp.bmat([[chain, None, couple[0]], [None, chain, couple[1]],
                    [couple[0].T, couple[1].T, strip]], format="csr")


def assert_matches_direct_solve(fd: FDSolution, profile, z: complex, f1, f2,
                                rel: float) -> None:
    """The sine-basis solution on every line equals spsolve of the
    physical-basis system mapped line by line into the sine basis (psi S),
    line block by line block; fd's edge projections and energy norm equal the
    reference's h_u psi . chi_n and trapezoid energy."""
    grid, n = fd.grid, fd.n
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    a, b = assemble_physical(grid, profile, n, z, f1, f2)
    psi = spla.spsolve(a, b).reshape(grid.n_lines, M)
    S = sine_matrix(grid.h_u)
    got, want = sine_lines(grid, profile, n, z, f1, f2), psi @ S
    # each block holds its interface lines, as the edge and vertex fields do
    for name, rows in (("edge1", slice(0, K)), ("vertex", slice(K - 1, K + J)),
                       ("edge2", slice(K + J - 1, None))):
        assert np.linalg.norm(got[rows] - want[rows]) <= rel * np.linalg.norm(want[rows]), name
    assert fd.solve_residual <= SOLVE_RESIDUAL_TOL

    end = np.zeros((1, M))  # the Dirichlet line at s_max
    edges = (np.vstack([psi[K - 1::-1], end]), np.vstack([psi[K + J - 1:], end]))
    chi = chi_mode(n, grid.u_nodes)
    for e, edge in enumerate(edges, 1):
        want = grid.h_u * (edge @ chi)
        assert np.linalg.norm(fd.edge_projection(e) - want) <= rel * np.linalg.norm(want), e

    # each interface line gets h_s/2 from its edge and eps*h_s/2 from the vertex
    w_edge = trapezoid_weights(K + 1, grid.h_s)
    w_vert = grid.epsilon * trapezoid_weights(J + 1, grid.h_s)

    def trapezoid_energy(lines):
        sq = np.sum(np.abs(lines) ** 2, axis=1)
        return math.sqrt(grid.h_u * (w_edge[:K] @ sq[K - 1::-1] + w_vert @ sq[K - 1: K + J]
                                     + w_edge[:K] @ sq[K + J - 1:]))

    assert fd.energy_norm == pytest.approx(trapezoid_energy(psi), rel=rel)
    # Parseval: the norm of the sine-basis solution is that of its lines mapped back
    assert fd.energy_norm == pytest.approx(trapezoid_energy(got @ S), rel=1e-12)


class TestEdgeElimination:
    @pytest.mark.parametrize("profile", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_direct_solve(self, request, profile, n):
        profile = request.getfixturevalue(profile)
        fd = fd_resolvent(small_grid(), profile, n, Z4, F_G, F_G2)
        assert_matches_direct_solve(fd, profile, Z4, F_G, F_G2, rel=1e-9)

    @pytest.mark.parametrize("profile", ["zero_profile", "bump05", "tuned2"])
    def test_negative_real_z_matches_direct_solve(self, request, profile):
        # z = -4: every rho_k is real, so the energy's cross sum is _geometric at x = 0
        profile, z = request.getfixturevalue(profile), -4.0
        grid = WaveguideGrid.build(0.25, 0.25**3, z, h_u=1 / 16, h_s=1 / 16)
        t, _ = _edge_modes(edge_shifts(grid, 1, z), -grid.h_u / grid.h_s, grid.n_edge)
        assert not t.imag.any()
        fd = fd_resolvent(grid, profile, 1, z, F_G, F_G2)
        assert_matches_direct_solve(fd, profile, z, F_G, F_G2, rel=1e-9)

    def test_build_pads_short_edges(self):
        # Im sqrt(z) ~ 141 asks for 0.13 = 1.04 h of edge; the grid keeps 4 steps
        grid = WaveguideGrid.build(0.5, 0.5**3, -2e4 + 1j, h_u=1 / 8, h_s=1 / 8)
        assert grid.n_edge == MIN_EDGE_STEPS == 4
        assert grid.s_max == 4 / 8

    @pytest.mark.parametrize("n_edge", [1, 2, 3])
    def test_short_edge_rejected(self, n_edge):
        with pytest.raises(ValueError, match=f"edge of {n_edge} s-steps is shorter than 4"):
            WaveguideGrid(0.5, 0.5**3, n_edge / 8, 1 / 8, 1 / 8)

    @pytest.mark.parametrize("z", [-8000.0 + 1j, -2e4 + 1j, -2e4, -202500.0 + 1j])
    def test_shortest_edge_matches_direct_solve(self, bump05, z):
        # Im sqrt(z) >= 89 keeps the truncation guard quiet on s_max = 4h
        h = 1 / 8
        grid = WaveguideGrid(0.5, 0.5**3, MIN_EDGE_STEPS * h, h, h)
        f1 = GaussianPulse(center=0.1, width=0.5)
        fd = fd_resolvent(grid, bump05, 1, z, f1, F_G2)
        assert np.max(np.abs(fd.edge_projection(1)[:MIN_EDGE_STEPS])) > 0.0
        assert_matches_direct_solve(fd, bump05, z, f1, F_G2, rel=1e-12)

    def test_thick_guide_edge_modes_hold_energy(self, bump05):
        # eps = delta = 1: the modes k != n decay slowly along the edges, and
        # their closed-form chains hold 1.4e-9 of the energy, which the 1e-12
        # Parseval check sees
        grid = WaveguideGrid.build(1.0, 1.0, Z4, h_u=1 / 16, h_s=1 / 16)
        fd = fd_resolvent(grid, bump05, 1, Z4, F_G, F_G2)
        assert_matches_direct_solve(fd, bump05, Z4, F_G, F_G2, rel=1e-9)

    def test_lu_sees_only_the_vertex_strip(self, bump05, monkeypatch):
        # M x M blocks of the strip only, nothing from the edges: the even
        # profile's strip is its own mirror image at even J, so J/2 + 1 of them
        shapes = count_zgetrf(monkeypatch)
        grid = small_grid()
        fd_resolvent(grid, bump05, 1, Z4, F_G, F_G2)
        assert shapes == [(grid.n_u, grid.n_u)] * (grid.n_vertex // 2 + 1)
        assert (grid.n_vertex + 1) * grid.n_u < grid.n_unknowns / 10

    def test_odd_vertex_lines_match_direct_solve(self, bump05, monkeypatch):
        # J = 17: the two sweeps of the twisted LU differ in length, both run,
        # and every line is factored once
        shapes = count_zgetrf(monkeypatch)
        grid = small_grid_hs(2 / 17)
        fd = fd_resolvent(grid, bump05, 1, Z4, F_G, F_G2)
        assert shapes == [(grid.n_u, grid.n_u)] * (grid.n_vertex + 1) == [(15, 15)] * 18
        assert_matches_direct_solve(fd, bump05, Z4, F_G, F_G2, rel=1e-9)

    def test_non_dyadic_step_keeps_the_mirror(self, bump05, monkeypatch):
        # h_s = 2/96 is not a power of 2, yet the nodes h_s (j - J/2) are
        # antisymmetric to the last bit, so the even profile's strip is its own
        # mirror image and half of it is factored
        grid = small_grid_hs(2 / 96)
        system = _sine_system(grid, bump05, 1, Z4)
        assert np.array_equal(-grid.vertex_s[::-1], grid.vertex_s)
        for a in (np.asarray(system.diag), np.asarray(system.off), system.strip_diag):
            assert np.array_equal(a[::-1], a)
        shapes = count_zgetrf(monkeypatch)
        fd_resolvent(grid, bump05, 1, Z4, F_G, None)
        assert len(shapes) == grid.n_vertex // 2 + 1 == 49

    def test_one_chain_of_edge_lines(self, bump05, monkeypatch):
        # z = i puts the edge ends at s = 26: only mode n's chain of K - 1 lines
        # is factored, once for both edges; the other modes leave in closed form
        sizes, zgttrf = [], lapack.zgttrf

        def counting_zgttrf(dl, d, du, *args, **kwargs):
            sizes.append(len(d))
            return zgttrf(dl, d, du, *args, **kwargs)

        monkeypatch.setattr(lapack, "zgttrf", counting_zgttrf)
        grid = WaveguideGrid.build(0.25, 0.25**3, 1j, h_u=1 / 16, h_s=1 / 64)
        fd_resolvent(grid, bump05, 1, 1j, F_G, F_G2)
        assert sizes == [grid.n_edge - 1] == [1667]


class TestEdgeModes:
    """t and E of ``_edge_modes`` against a banded LU solve of the whole chain
    w_s y_(l-1) + c y_l + w_s y_(l+1) = 0 for y_0 = 1, y_K = 0."""

    @staticmethod
    def chain_solve(shift: complex, w_s: float, K: int) -> tuple[complex, float]:
        """y_1 and sum |y_l|^2 of the chain of diagonal shift - 2 w_s."""
        rhs = np.zeros(K - 1, dtype=complex)
        rhs[0] = -w_s
        bands = np.array([np.full(K - 1, w_s), np.full(K - 1, shift - 2.0 * w_s),
                          np.full(K - 1, w_s)], dtype=complex)
        y = scipy.linalg.solve_banded((1, 1), bands, rhs)
        return y[0], float(np.sum(np.abs(y) ** 2))

    def assert_matches_chains(self, grid: WaveguideGrid, n: int, z: complex, rel: float):
        shift, w_s = edge_shifts(grid, n, z), -grid.h_u / grid.h_s
        t, energy = _edge_modes(shift, w_s, grid.n_edge)
        for k in range(grid.n_u):
            want_t, want_e = self.chain_solve(shift[k], w_s, grid.n_edge)
            assert abs(t[k] - want_t) <= rel * abs(want_t), k
            assert energy[k] == pytest.approx(want_e, rel=rel, abs=0.0), k
        return shift, w_s

    def test_fast_decay(self):
        # |rho| below 0.03 on every mode k != n: P = rho^(2(K-1)) underflows to 0
        grid = small_grid()
        shift, w_s = self.assert_matches_chains(grid, 1, Z4, rel=1e-14)
        rho = np.abs([decaying_root(e, w_s) for e in shift[1:]])
        assert rho.max() < 0.03 and rho.max() ** (2 * grid.n_edge - 2) == 0.0

    def test_slow_decay(self):
        # eps = delta = 1: mode 1 decays like e^(-Im sqrt(z) s) over the whole edge
        grid = WaveguideGrid.build(1.0, 1.0, 1j, h_u=1 / 16, h_s=1 / 16)
        shift, w_s = self.assert_matches_chains(grid, 1, 1j, rel=1e-14)
        assert abs(decaying_root(shift[0], w_s)) > 0.95

    def test_open_channel(self):
        # n = 2 at h_s = 1/128: mode 1 propagates, damped only by Im z, and
        # |rho^(2K)| = 0.81 keeps the reflection from the Dirichlet end
        grid = WaveguideGrid.build(0.3, 0.027, 1j, h_u=1 / 32, h_s=1 / 128)
        # (the closed form's powers carry K times the rounding of rho: 6e-13 here)
        shift, w_s = self.assert_matches_chains(grid, 2, 1j, rel=1e-11)
        assert abs(decaying_root(shift[0], w_s) ** (2 * grid.n_edge)) == pytest.approx(0.81, abs=0.01)

    def test_no_edge_lines(self):
        # K = 1: the Dirichlet line is the interface line's neighbour
        t, energy = _edge_modes(edge_shifts(small_grid(), 1, Z4), -16.0, 1)
        assert not t.any() and not energy.any()


def random_strip(lines: int, m: int, mirrored: bool):
    """Real symmetric blocks plus a complex diagonal with a positive imaginary
    part, and a right-hand side; with line j equal to line J - j if mirrored."""
    rng = np.random.default_rng(10 * lines + m)
    diag, off = (b + b.transpose(0, 2, 1) for b in
                 (rng.standard_normal((lines, m, m)), rng.standard_normal((lines - 1, m, m))))
    d = rng.standard_normal((lines, m)) + 1j * (0.5 + rng.random((lines, m)))
    if mirrored:
        diag, off, d = (a + a[::-1] for a in (diag, off, d))
    r = rng.standard_normal((lines, m)) + 1j * rng.standard_normal((lines, m))
    return diag, off, d, r


def blocks_mirrored(*blocks) -> bool:
    """Whether every block array equals itself reversed, bit for bit: the flag
    ``_SineSystem`` takes from its line arrays, here from the bare blocks."""
    return all(np.array_equal(b[::-1], b) for b in blocks)


ORACLE_THREADS_SCRIPT = """
import hashlib, sys
from wglimit.cli import main
for h_u in ("0.03125", "0.015625"):  # M = 31 and 63
    for h_s in ("0.015625", "0.11764705882352941"):  # J = 128 (mirrored strip) and 17
        out = f"{sys.argv[1]}/oracle-{h_u}-{h_s}.json"
        assert main(["oracle-compare", "--profile=tuned:2", "--z=0.3,0.7", "--epsilon=0.3",
                     f"--h-u={h_u}", f"--h-s={h_s}", "--f1=gaussian:3,0.5", "--refine",
                     f"--out={out}"]) == 0
        with open(out, "rb") as fh:
            print(hashlib.sha256(fh.read()).hexdigest(), file=sys.stderr)
"""


class TestStripFactor:
    @pytest.mark.parametrize("lines", [2, 3, 17, 18])  # 2: J = 1, the interface lines only
    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_matches_dense_solve(self, lines, m, mirrored, monkeypatch):
        # real symmetric blocks plus a complex diagonal with a positive
        # imaginary part: complex symmetric and, like the resolvent at
        # Im z != 0, nonsingular, Schur complements included.  A mirrored
        # strip (line j equal to line J - j) is factored only to its middle
        # line when J is even.
        diag, off, d, r = random_strip(lines, m, mirrored)
        a = np.zeros((lines * m,) * 2, dtype=complex)
        for j in range(lines):
            a[j * m: (j + 1) * m, j * m: (j + 1) * m] = diag[j] + np.diag(d[j])
            if j + 1 < lines:
                a[j * m: (j + 1) * m, (j + 1) * m: (j + 2) * m] = off[j]
                a[(j + 1) * m: (j + 2) * m, j * m: (j + 1) * m] = off[j]
        want = scipy.linalg.solve(a, r.ravel())
        shapes = count_zgetrf(monkeypatch)
        got = _strip_factor(diag, off, d, blocks_mirrored(diag, off))(r)
        assert got.shape == (lines, m)
        assert np.linalg.norm(got.ravel() - want) <= 1e-12 * np.linalg.norm(want)
        J = lines - 1
        assert len(shapes) == (J // 2 + 1 if mirrored and J % 2 == 0 else J + 1)

    @pytest.mark.parametrize("lines", [2, 17, 18])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_every_solve_getrs_takes_two_columns(self, lines, mirrored, monkeypatch):
        # a 1-column getrs rounds by the BLAS thread count: on a mirrored strip
        # lines j and J - j share one call, any other right-hand side is padded
        diag, off, d, r = random_strip(lines, 3, mirrored)
        strip = _strip_factor(diag, off, d, blocks_mirrored(diag, off))
        shapes, zgetrs = [], lapack.zgetrs
        monkeypatch.setattr(lapack, "zgetrs",
                            lambda lu, piv, b, *a, **kw: shapes.append(np.shape(b))
                            or zgetrs(lu, piv, b, *a, **kw))
        strip(r)
        J = lines - 1
        assert shapes == [(3, 2)] * (J // 2 + 1 if mirrored and J % 2 == 0 else J + 1)

    def test_oracle_report_independent_of_blas_threads(self, tmp_path):
        # the same report bytes at one and two OpenBLAS threads, M <= 63
        path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        digests = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            digests.append(subprocess.run(
                [sys.executable, "-c", ORACLE_THREADS_SCRIPT, str(tmp_path / threads)],
                check=True, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)).stderr)
        assert len(digests[0].split()) == 4 and digests[0] == digests[1]

    @pytest.mark.parametrize("m", [1, 3, 15, 31, 63])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_toeplitz_minus_hankel_blocks(self, m, mirrored):
        # S diag(v) S from cosine sums against the plain product, and equal
        # rows of a mirrored v give equal blocks, bit for bit
        rng = np.random.default_rng(m)
        v = rng.standard_normal((129, m)) + 1.0
        if mirrored:
            v = v + v[::-1]
        hu = 1.0 / (m + 1)
        S = sine_matrix(hu)
        want = (S * v[:, None, :]) @ S
        got = np.asarray(_sine_blocks(v, hu, blocks_mirrored(v)))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(got, got.transpose(0, 2, 1))
        assert np.array_equal(got[::-1], got) == mirrored


def dense_apply(system, y: np.ndarray, absolute: bool = False) -> np.ndarray:
    """``_SineSystem.apply`` on the materialised blocks, in whole-strip products:
    line j adds D_j x_j, then C_j x_(j+1), then C_(j-1) x_(j-1)."""
    J, n = system.grid.n_vertex, system.n
    parts = (np.asarray(system.diag), np.asarray(system.off), system.strip_diag,
             system.edge_gain, system.chain_diag, system.w_s, y)
    a, a_off, d, gain, c, w_s, y = map(np.abs, parts) if absolute else parts
    chains, lines = system.split(y)
    out = np.empty_like(y)
    out_chains, out_lines = system.split(out)
    x = lines[..., None] if absolute else lines.view(float).reshape(J + 1, -1, 2)
    prod = a @ x
    prod[:-1] += a_off @ x[1:]
    prod[1:] += a_off @ x[:-1]
    out_lines[:] = prod.reshape(J + 1, -1).view(y.dtype) + d * lines
    out_lines[[0, J]] += gain * lines[[0, J]]
    out_lines[[0, J], n - 1] += w_s * chains[:, 0]
    out_chains[:] = c * chains
    out_chains[:, :-1] += w_s * chains[:, 1:]
    out_chains[:, 1:] += w_s * chains[:, :-1]
    out_chains[:, 0] += w_s * lines[[0, J], n - 1]
    return out


class TestLazyBlocks:
    """The strip's blocks are formed where they are read: by chunks of
    ``APPLY_CHUNK_LINES`` lines in ``apply`` and line by line in the factor.
    Every product and sum is the one on the materialised blocks, bit for bit."""

    @pytest.mark.parametrize("lines", sorted({2, 3, APPLY_CHUNK_LINES - 1, APPLY_CHUNK_LINES,
                                              APPLY_CHUNK_LINES + 1, 2 * APPLY_CHUNK_LINES + 1}))
    @pytest.mark.parametrize("even", [True, False])
    def test_chunk_edges_bit_for_bit(self, bump05, lines, even):
        profile = bump05 if even else ShiftedBump("bump", 0.5)
        system = _sine_system(small_grid_hs(2 / (lines - 1)), profile, 1, Z4)
        assert system.grid.n_vertex + 1 == lines
        size = 2 * (system.grid.n_edge - 1) + lines * system.grid.n_u
        y, b = [1.0, 1j] @ np.random.default_rng(lines).standard_normal((2, 2, size))
        assert np.array_equal(system.apply(y), dense_apply(system, y))
        assert np.array_equal(system.apply(y, absolute=True), dense_apply(system, y, True))
        floor = np.finfo(float).tiny / np.finfo(float).eps
        denom = np.maximum(dense_apply(system, y, True) + np.abs(b), floor)
        want = float(np.max(np.abs(b - dense_apply(system, y)) / denom))
        assert system.backward_error(y, b) == want

    @pytest.mark.parametrize("lines", [2, 17, 18])
    @pytest.mark.parametrize("even", [True, False])
    def test_strip_factor_on_lazy_blocks(self, bump05, lines, even):
        # the factor forms each block from its cosine sums as np.asarray does
        profile = bump05 if even else ShiftedBump("bump", 0.5)
        system = _sine_system(small_grid_hs(2 / (lines - 1)), profile, 1, Z4)
        re, im = np.random.default_rng(lines).standard_normal((2, lines, system.grid.n_u))
        r = re + 1j * im
        lazy = _strip_factor(system.diag, system.off, system.strip_diag, system.mirrored)
        dense = _strip_factor(np.asarray(system.diag), np.asarray(system.off),
                              system.strip_diag, system.mirrored)
        assert np.array_equal(lazy(r), dense(r))

    def test_resolvent_peak_memory_is_the_factors(self):
        # the refined bump grid of the fd-oracle benchmark (M = 63, J = 256): one
        # warm solve allocates its LU and gain slabs, 32 M^2 (J//2 + 1) bytes on this
        # mirrored strip, and little else
        profile, z = CurvatureProfile.bump(-0.586), complex(-0.149, -0.8635)
        grid = WaveguideGrid.build(0.3, 0.3**3, z, h_u=1 / 64, h_s=1 / 64).refined()
        M, J = grid.n_u, grid.n_vertex
        assert (M, J) == (63, 256)
        fd_resolvent(grid, profile, 1, z, F_G, None)
        tracemalloc.start()
        try:
            fd_resolvent(grid, profile, 1, z, F_G, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * M**2 * (J // 2 + 1) + 6 * 2**20


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

    def test_vertex_strip_is_the_vertex_profile(self, zero_profile, bump05, tuned2):
        # sqrt(h_u) times the mode-n strip line against phi at the vertex nodes,
        # z = i and delta = eps^3: on zero the FD error, second order in h_s; on
        # bump:0.5 the model error, which falls with eps.  tuned:2 is printed and
        # not asserted: the width detuning of its zero mode dominates there.
        f1 = GaussianPulse(3.0, 0.5)

        def strip_error(profile, eps, h_s):
            grid = WaveguideGrid.build(eps, eps**3, 1j, h_u=1 / 32, h_s=h_s)
            system = _sine_system(grid, profile, 1, 1j)
            lines = system.split(_block_solve(system, _rhs(system, f1, None)))[1]
            phi = assemble(profile, 1, 1j, eps, eps**3, f1, None).phi(grid.vertex_s)
            return float(np.max(np.abs(math.sqrt(grid.h_u) * lines[:, 0] - phi)))

        coarse, fine = (strip_error(zero_profile, 0.0375, h_s) for h_s in (1 / 256, 1 / 512))
        assert coarse <= 1e-7 and fine <= coarse / 2
        bump = [strip_error(bump05, eps, 1 / 256) for eps in (0.0375, 0.0094, 0.0023)]
        assert bump[0] <= 4e-5 and bump[1] <= 1e-6 and bump[2] <= 1e-8
        print(f"tuned:2 strip error at eps = 0.0023, h_s = 1/256: "
              f"{strip_error(tuned2, 0.0023, 1 / 256):.2g}")

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


class TestEdgeProjection:
    @pytest.mark.parametrize("hu", [1 / 16, 1 / 32, 1 / 64])
    def test_sine_coefficient_is_the_projection(self, hu):
        # S_nj = sqrt(h_u) chi_n(u_j) and S orthogonal: the midpoint u-quadrature
        # h_u (y S) . chi_n of a line is sqrt(h_u) y_n, which the report reads
        rng = np.random.default_rng(round(1 / hu))
        M = round(1 / hu) - 1
        y = rng.standard_normal((20, M)) + 1j * rng.standard_normal((20, M))
        u = hu * np.arange(1, M + 1)
        for n in (1, 2, 7, M):
            quadrature = hu * ((y @ sine_matrix(hu)) @ chi_mode(n, u))
            assert np.abs(quadrature - math.sqrt(hu) * y[:, n - 1]).max() <= 1e-14
