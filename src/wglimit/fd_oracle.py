"""Independent finite-difference oracles.

Two brute-force cross-checks validate the semi-analytic machinery:

  * a 1-D eigensolver for the vertex Hamiltonian on a midpoint mesh with
    mirrored Neumann ghosts (symmetric tridiagonal, LAPACK bisection on
    Sturm sequences, Richardson-extrapolated eigenvalues);

  * a 2-D resolvent of the full waveguide operator on truncated edges
    plus the vertex strip.  Interior rows are plain second-order stencils
    of the strong form (the vertex s-part in conservative flux form);
    the interface lines eliminate mirrored ghosts through the value and
    eps-scaled derivative matching, which keeps the scaled system
    complex symmetric.  The transverse shift is taken discretely
    ((4/h_u^2) sin^2(n pi h_u / 2) / delta^2) so the comparison is not
    polluted by the O(h_u^2)/delta^2 eigenvalue defect of the u-stencil.
    One s-step h_s serves both edges and the vertex strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .profile import CurvatureProfile, geometry_fields
from .residual import chi_mode

__all__ = [
    "FDEigenResult",
    "FDSolution",
    "Grid1D",
    "OracleError",
    "WaveguideField",
    "WaveguideGrid",
    "fd_resolvent",
    "fd_vertex_eigen",
    "suggest_edge_length",
    "trapezoid_weights",
]

TRUNCATION_TOL = 1e-8
SOLVE_RESIDUAL_TOL = 1e-10
# Default transverse and longitudinal steps of the 2-D oracle grid.
H_U = 1.0 / 32
H_S = 1.0 / 64
# Largest 2-D grid, 2.2 times the benchmark's refined bump grid (437,661); the
# edge length -ln(tol)/Im sqrt(z), and so the grid, grows without bound.
MAX_FD_UNKNOWNS = 1_000_000


class OracleError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# 1-D vertex eigensolver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Midpoint mesh on [-1, 1]; Neumann ends close by mirrored ghosts."""

    n: int

    @property
    def h(self) -> float:
        return 2.0 / self.n

    @property
    def points(self) -> np.ndarray:
        return -1.0 + (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class FDEigenResult:
    lams: np.ndarray          # Richardson-extrapolated eigenvalues
    lams_coarse: np.ndarray   # raw eigenvalues of the n-mesh
    vectors: np.ndarray       # columns: L2-normalised eigenvectors on `grid`
    grid: Grid1D


def _tridiag_eigen(profile: CurvatureProfile, grid: Grid1D, count: int,
                   vectors: bool):
    h = grid.h
    pts = grid.points
    v = -0.25 * profile.gamma(pts) ** 2
    d = np.full(grid.n, 2.0) / h**2 + v
    d[0] -= 1.0 / h**2
    d[-1] -= 1.0 / h**2
    e = np.full(grid.n - 1, -1.0) / h**2
    if vectors:
        w, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1))
        return w, vecs
    w = eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                         eigvals_only=True)
    return w, None


def fd_vertex_eigen(profile: CurvatureProfile, n_points: int, count: int) -> FDEigenResult:
    """First ``count`` eigenpairs by central differences with extrapolation."""
    if n_points < 200:
        raise OracleError("need at least 200 mesh points")
    coarse = Grid1D(n_points)
    fine = Grid1D(2 * n_points)
    w_c, _ = _tridiag_eigen(profile, coarse, count, vectors=False)
    w_f, vecs = _tridiag_eigen(profile, fine, count, vectors=True)
    lams = (4.0 * w_f - w_c) / 3.0
    vecs = vecs / math.sqrt(fine.h)
    for k in range(count):
        if vecs[0, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return FDEigenResult(lams, w_c, vecs, fine)


# ----------------------------------------------------------------------
# 2-D waveguide grid and resolvent
# ----------------------------------------------------------------------

def suggest_edge_length(z: complex) -> float:
    """Edge truncation length with exp(-Im sqrt(z) * S) <= TRUNCATION_TOL."""
    sq = np.lib.scimath.sqrt(complex(z))
    imk = abs(sq.imag)
    if imk <= 0.0:
        raise OracleError("z must have Im sqrt(z) != 0 for truncation")
    return -math.log(TRUNCATION_TOL) / imk


@dataclass(frozen=True)
class WaveguideGrid:
    """Uniform grids for the two truncated edges and the vertex strip."""

    epsilon: float
    delta: float
    s_max: float
    h_s: float
    h_u: float
    n_u: int = field(init=False)
    n_edge: int = field(init=False)
    n_vertex: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= self.epsilon <= 1.0:
            raise ValueError("need 0 < delta <= epsilon <= 1")
        m = round(1.0 / self.h_u) - 1
        if m < 2 or abs((m + 1) * self.h_u - 1.0) > 1e-12:
            raise ValueError("h_u must divide 1")
        k = round(self.s_max / self.h_s)
        if abs(k * self.h_s - self.s_max) > 1e-9:
            raise ValueError("h_s must divide s_max")
        j = round(2.0 / self.h_s)
        if abs(j * self.h_s - 2.0) > 1e-12:
            raise ValueError("h_s must divide 2")
        object.__setattr__(self, "n_u", m)
        object.__setattr__(self, "n_edge", k)
        object.__setattr__(self, "n_vertex", j)
        if self.n_unknowns > MAX_FD_UNKNOWNS:
            raise ValueError(f"grid of {self.n_unknowns:.3g} unknowns exceeds {MAX_FD_UNKNOWNS}")

    @staticmethod
    def build(epsilon: float, delta: float, z: complex, h_u: float = H_U,
              h_s: float = H_S) -> "WaveguideGrid":
        if not (h_u > 0.0 and h_s > 0.0):
            raise ValueError("grid steps must be positive")
        s_max = math.ceil(suggest_edge_length(z) / h_s) * h_s
        return WaveguideGrid(epsilon, delta, s_max, h_s, h_u)

    def refined(self) -> "WaveguideGrid":
        """The same grid with the s-step halved."""
        return WaveguideGrid(self.epsilon, self.delta, self.s_max, self.h_s / 2,
                             self.h_u)

    @property
    def u_nodes(self) -> np.ndarray:
        return (np.arange(self.n_u) + 1) * self.h_u

    @property
    def edge_s(self) -> np.ndarray:
        return np.arange(self.n_edge + 1) * self.h_s

    @property
    def vertex_s(self) -> np.ndarray:
        return -1.0 + np.arange(self.n_vertex + 1) * self.h_s

    @property
    def n_lines(self) -> int:
        return 2 * self.n_edge + self.n_vertex - 1

    @property
    def n_unknowns(self) -> int:
        return self.n_lines * self.n_u


@dataclass(frozen=True)
class WaveguideField:
    """Fields on the waveguide grid; edge rows run outward from the vertex."""

    grid: WaveguideGrid
    edge1: np.ndarray   # (n_edge + 1, n_u)
    edge2: np.ndarray
    vertex: np.ndarray  # (n_vertex + 1, n_u)


def _line_weights(grid: WaveguideGrid) -> np.ndarray:
    """s-weight of each chain line: h_s on edge lines, eps*h_s on vertex
    lines and their mean on the two interface lines."""
    K, J = grid.n_edge, grid.n_vertex
    w = np.full(grid.n_lines, grid.h_s)
    w[K: K + J - 1] = grid.epsilon * grid.h_s
    w[[K - 1, K + J - 1]] = 0.5 * (grid.h_s + grid.epsilon * grid.h_s)
    return w


def _assemble(grid: WaveguideGrid, profile: CurvatureProfile, n: int, z: complex,
              f1, f2):
    eps, delta = grid.epsilon, grid.delta
    he, hv, hu = grid.h_s, grid.h_s, grid.h_u
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    u = grid.u_nodes
    ratio = delta / eps
    lam_u = (2.0 / hu * math.sin(n * math.pi * hu / 2.0)) ** 2
    shift = lam_u / delta**2 + z

    sigma = grid.vertex_s
    mid = sigma[:-1] + 0.5 * hv
    amid = geometry_fields(profile, mid[:, None], u[None, :], ratio)["inv_g"]
    w_pot = geometry_fields(profile, sigma[1:-1, None], u[None, :], ratio)["W"]
    c_cell = 0.5 * (he + eps * hv)

    n_lines = grid.n_lines
    iface1 = K - 1
    iface2 = K + J - 1
    vertex_lines = np.arange(K, K + J - 1)
    edge1_lines = np.arange(0, K - 1)
    edge2_lines = np.arange(K + J, n_lines)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64).ravel())
        cols.append(np.asarray(c, dtype=np.int64).ravel())
        vals.append(np.asarray(v, dtype=complex).ravel())

    m_idx = np.arange(M)

    # Diagonals.
    diag_edge = he * hu * (2.0 / he**2 + 2.0 / (delta**2 * hu**2) - shift)
    for lines in (edge1_lines, edge2_lines):
        r = (lines[:, None] * M + m_idx[None, :])
        add(r, r, np.full(r.shape, diag_edge))

    r = (vertex_lines[:, None] * M + m_idx[None, :])
    diag_v = eps * hv * hu * (
        (amid[:-1, :] + amid[1:, :]) / (eps**2 * hv**2)
        + w_pot / eps**2
        + 2.0 / (delta**2 * hu**2)
        - shift
    )
    add(r, r, diag_v)

    for iface, a_edge in ((iface1, amid[0, :]), (iface2, amid[-1, :])):
        r = iface * M + m_idx
        diag_i = hu * (1.0 / he + a_edge / (eps * hv)
                       + 2.0 * c_cell / (delta**2 * hu**2) - c_cell * shift)
        add(r, r, diag_i)

    # s-coupling between adjacent lines of the chain.
    pair_l = np.arange(n_lines - 1)
    left = pair_l[:, None] * M + m_idx[None, :]
    right = (pair_l[:, None] + 1) * M + m_idx[None, :]
    coup = np.empty((n_lines - 1, M), dtype=complex)
    coup[: K - 1, :] = -hu / he
    coup[K - 1: K + J - 1, :] = -hu * amid / (eps * hv)
    coup[K + J - 1:, :] = -hu / he
    add(left, right, coup)
    add(right, left, coup)

    # u-coupling within each line.
    line_wu = -_line_weights(grid) / (delta**2 * hu)
    all_lines = np.arange(n_lines)
    lo = all_lines[:, None] * M + m_idx[None, :-1]
    hi = lo + 1
    wv = np.broadcast_to(line_wu[:, None], lo.shape)
    add(lo, hi, wv)
    add(hi, lo, wv)

    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_unknowns, grid.n_unknowns),
    ).tocsc()

    # Right-hand side: edge data f_j chi_n.
    chi = chi_mode(n, u)
    b = np.zeros(grid.n_unknowns, dtype=complex)
    for lines, f, iface in ((edge1_lines, f1, iface1), (edge2_lines, f2, iface2)):
        if f is None:
            continue
        k_of_line = np.abs(lines - iface)  # edge coordinate index per line
        s_vals = k_of_line * he
        fv = np.asarray(f(s_vals), dtype=float)
        b[(lines[:, None] * M + m_idx[None, :]).ravel()] = \
            (he * hu * fv[:, None] * chi[None, :]).ravel()
        b[iface * M + m_idx] = hu * (he / 2.0) * float(f(0.0)) * chi
    return a, b


@dataclass(frozen=True)
class FDSolution:
    """Discrete resolvent application on the waveguide grid."""

    grid: WaveguideGrid
    profile: CurvatureProfile
    n: int
    z: complex
    field: WaveguideField
    solve_residual: float
    energy_norm: float  # discrete norm of the flat-measure energy space

    def edge_projection(self, edge: int, n: int | None = None) -> np.ndarray:
        """(chi_n, psi_edge) per s node, by midpoint u-quadrature."""
        n = self.n if n is None else n
        values = self.field.edge1 if edge == 1 else self.field.edge2
        chi = chi_mode(n, self.grid.u_nodes)
        return self.grid.h_u * (values @ chi)


def trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on ``n_nodes`` uniform nodes of spacing h."""
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


def _energy_norm(grid: WaveguideGrid, psi: np.ndarray) -> float:
    """Energy norm of a chain vector: line weights times the u-step."""
    lines = psi.reshape(grid.n_lines, grid.n_u)
    w = _line_weights(grid)
    return float(np.sqrt(grid.h_u * np.sum(w[:, None] * np.abs(lines) ** 2)))


def _unflatten(grid: WaveguideGrid, psi: np.ndarray) -> WaveguideField:
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    lines = psi.reshape(grid.n_lines, M)
    edge1 = np.zeros((K + 1, M), dtype=complex)
    edge2 = np.zeros((K + 1, M), dtype=complex)
    edge1[: K, :] = lines[K - 1 - np.arange(K), :]
    edge2[: K, :] = lines[K + J - 1 + np.arange(K), :]
    vertex = lines[K - 1 + np.arange(J + 1), :].copy()
    return WaveguideField(grid, edge1, edge2, vertex)


def fd_resolvent(grid: WaveguideGrid, profile: CurvatureProfile, n: int,
                 z: complex, f1, f2) -> FDSolution:
    """Solve the discrete shifted resolvent equation with data (f1, f2)."""
    if complex(z).imag == 0.0:
        raise OracleError("z must have nonzero imaginary part")
    sq = np.lib.scimath.sqrt(complex(z))
    trunc = math.exp(-abs(sq.imag) * grid.s_max)
    if trunc > 10.0 * TRUNCATION_TOL:
        raise OracleError(
            f"edge truncation error {trunc:.2e} exceeds bound; increase s_max")
    a, b = _assemble(grid, profile, n, z, f1, f2)
    lu = spla.splu(a)
    psi = lu.solve(b)
    psi += lu.solve(b - a @ psi)  # one step of iterative refinement
    # Normwise backward error; the raw residual-to-|b| ratio saturates at
    # eps * ||A|| ||psi|| / ||b|| ~ 1e-9 because of the 1/delta^2 scale.
    a_norm = float(np.max(np.abs(a).sum(axis=0)))
    denom = a_norm * float(np.linalg.norm(psi)) + float(np.linalg.norm(b))
    resid = float(np.linalg.norm(a @ psi - b)) / max(denom, 1e-300)
    if resid > SOLVE_RESIDUAL_TOL:
        raise OracleError(f"sparse solve backward error {resid:.2e} above tolerance")
    return FDSolution(grid, profile, n, complex(z), _unflatten(grid, psi),
                      resid, _energy_norm(grid, psi))
