"""Independent finite-difference oracles.

Two brute-force cross-checks validate the semi-analytic machinery:

  * a 1-D eigensolver for the vertex Hamiltonian on a midpoint mesh with
    mirrored Neumann ghosts (symmetric tridiagonal, LAPACK bisection on
    Sturm sequences, Richardson-extrapolated eigenvalues);

  * a 2-D resolvent of the full waveguide operator on truncated edges
    plus the vertex strip, with one s-step h_s.  Interior rows are plain
    second-order stencils of the strong form (the vertex s-part in
    conservative flux form); the interface lines eliminate mirrored ghosts
    through the value and eps-scaled derivative matching, which keeps the
    scaled system complex symmetric.

The 2-D system is assembled and solved in the orthonormal sine basis
S_jk = sqrt(2 h_u) sin(jk pi h_u) (S = S^T = S^-1) of the u-nodes, which
diagonalises the u-stencil T_h of every line: mode k carries the gap
lambda_k - lambda_n = (4/h_u^2) sin((k-n) pi h_u/2) sin((k+n) pi h_u/2)
over delta^2, which cancels nothing and is exactly 0 at k = n, so a thin
guide costs the mode-n resolvent no digits (the shift is the discrete
lambda_n, so neither is the comparison polluted by the O(h_u^2)/delta^2
defect of T_h).  The edge data lie in mode n alone, and each edge line is
M scalar chains, one per mode.  The metric 1/g and the potential W are
diagonal in u, so the J+1 interface and vertex lines form a
block-tridiagonal strip of real symmetric blocks S diag(.) S plus a complex
diagonal per mode.  The edges' Schur complement on the interface lines is
the diagonal -w_s^2 g_near of the chains' unit response g, and sparse LU
factors only the (J+1)*M strip, in its natural block order, which fills
nothing.  One step of iterative refinement and the componentwise backward
error max |b - A y| / (|A| |y| + |b|) (``FDSolution.solve_residual``) are
taken against this structured operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal, lapack

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
# edge length -ln(tol)/Im sqrt(z), and so the grid, grows without bound.  The
# edge lines cost a few complex values per unknown.
MAX_FD_UNKNOWNS = 1_000_000
# Most entries in the strip's dense M x M blocks, M^2 (3J + 1), 3.3 times the
# benchmark's refined bump grid: at about 50 bytes an entry, near 500 MB.
MAX_FD_STRIP_ENTRIES = 10_000_000


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
        if (entries := m * m * (3 * j + 1)) > MAX_FD_STRIP_ENTRIES:
            raise ValueError(f"vertex strip of {entries:.3g} block entries exceeds {MAX_FD_STRIP_ENTRIES}")

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


@dataclass(frozen=True)
class _SineSystem:
    """The 2-D system in the sine basis, on (n_lines, n_u) arrays."""

    grid: WaveguideGrid
    strip: sp.csc_matrix     # real symmetric blocks of the J + 1 strip lines
    strip_diag: np.ndarray   # (J + 1, M) mode diagonal of the strip lines
    chain_diag: np.ndarray   # (M,) mode diagonal of every edge line
    w_s: float               # edge line to each s-neighbour line
    sine: np.ndarray         # S

    def apply(self, y: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A y, or |A| |y| (blocks and mode diagonal apart) if ``absolute``."""
        K, J, M = self.grid.n_edge, self.grid.n_vertex, self.grid.n_u
        strip, d, e, w_s = self.strip, self.strip_diag, self.chain_diag, self.w_s
        if absolute:
            strip, d, e, w_s, y = abs(strip), np.abs(d), np.abs(e), abs(w_s), np.abs(y)
        out = e * y
        out[1:] += w_s * y[:-1]
        out[:-1] += w_s * y[1:]
        lines = slice(K - 1, K + J)
        x = y[lines].reshape(-1, 1)
        if not absolute:  # real and imaginary parts as two columns: no complex copy of strip
            x = x.view(float)
        out[lines] = (strip @ x).view(y.dtype).reshape(J + 1, M) + d * y[lines]
        if K > 1:  # the interface lines' edge neighbours
            out[[K - 1, K + J - 1]] += w_s * y[[K - 2, K + J]]
        return out


def _sine_system(grid: WaveguideGrid, profile: CurvatureProfile, n: int,
                 z: complex) -> _SineSystem:
    """The system of transverse mode n at z.  Line l carries
    w_l h_u (gap/delta^2 - z) on each mode (``_line_weights``); edge lines
    add 2 h_u/h_s and w_s = -h_u/h_s to each neighbour, interface lines
    h_u/h_s.  The strip's CSC arrays are written block column by block
    column, whose row blocks j-1, j, j+1 are one contiguous range."""
    eps, hs, hu = grid.epsilon, grid.h_s, grid.h_u
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    k = np.arange(1, M + 1)
    sine = math.sqrt(2.0 * hu) * np.sin(np.outer(k, k) * (math.pi * hu))
    gap = (4.0 / hu**2) * np.sin((k - n) * (math.pi * hu / 2)) \
        * np.sin((k + n) * (math.pi * hu / 2))  # lambda_k - lambda_n, no cancellation
    mode = hu * (gap / grid.delta**2 - z)
    strip_diag = _line_weights(grid)[K - 1: K + J, None] * mode
    strip_diag[[0, J]] += hu / hs

    sigma, u, ratio = grid.vertex_s[:, None], grid.u_nodes[None, :], grid.delta / eps
    amid = geometry_fields(profile, sigma[:-1] + 0.5 * hs, u, ratio)["inv_g"]
    w_pot = geometry_fields(profile, sigma[1:-1], u, ratio)["W"]
    on = np.empty((J + 1, M))
    on[[0, J]] = amid[[0, -1]]
    on[1:J] = amid[:-1] + amid[1:] + hs**2 * w_pot
    # diag[j] sits on strip line j, off[j] couples lines j and j + 1
    diag, off = (hu / (eps * hs) * ((sine * v[:, None, :]) @ sine) for v in (on, -amid))

    data = np.empty(M * M * (3 * J + 1))
    head, body, tail = np.split(data, [2 * M * M, M * M * (3 * J - 1)])
    head, body, tail = head.reshape(M, 2, M), body.reshape(J - 1, M, 3, M), tail.reshape(M, 2, M)
    head[:, 0], head[:, 1] = diag[0], off[0]
    body[:, :, 0], body[:, :, 1], body[:, :, 2] = off[:-1], diag[1:J], off[1:]
    tail[:, 0], tail[:, 1] = off[-1], diag[J]
    lo = np.maximum(np.arange(J + 1) - 1, 0) * M
    hi = np.minimum(np.arange(J + 1) + 2, J + 1) * M
    indptr = np.concatenate([[0], np.cumsum(np.repeat(hi - lo, M))]).astype(np.int32)
    indices = np.concatenate([np.tile(np.arange(a, b, dtype=np.int32), M)
                              for a, b in zip(lo, hi)])
    strip = sp.csc_matrix((data, indices, indptr), shape=((J + 1) * M,) * 2)
    return _SineSystem(grid, strip, strip_diag, hs * mode + 2.0 * hu / hs, -hu / hs, sine)


def _with_diagonal(strip: sp.csc_matrix, diag: np.ndarray) -> sp.csc_matrix:
    """strip + diag(diag), complex, on strip's index arrays (each column's
    rows are one contiguous range, so its diagonal is its row - first row)."""
    data = strip.data.astype(complex)
    start = strip.indptr[:-1]
    data[start + np.arange(len(start)) - strip.indices[start]] += diag.ravel()
    return sp.csc_matrix((data, strip.indices, strip.indptr), shape=strip.shape)


def _rhs(grid: WaveguideGrid, n: int, f1, f2) -> np.ndarray:
    """Edge data f_j chi_n in the sine basis, where they lie in mode n alone."""
    K, J = grid.n_edge, grid.n_vertex
    b = np.zeros((grid.n_lines, grid.n_u), dtype=complex)
    for f, iface, step in ((f1, K - 1, -1), (f2, K + J - 1, 1)):
        if f is None:
            continue
        values = np.asarray(f(np.arange(K) * grid.h_s), dtype=float)
        values[0] /= 2.0
        b[iface + step * np.arange(K), n - 1] = grid.h_s * math.sqrt(grid.h_u) * values
    return b


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


def _block_solve(system: _SineSystem, b: np.ndarray) -> np.ndarray:
    """A^-1 b by exact elimination of the edge lines, with one step of
    iterative refinement against ``system.apply``.

    Each edge's L = n_edge - 1 lines, ordered outward from its interface
    line, are M chains of length L, the same on both edges and factored
    once.  A chain's solution is p - w_s g x_k, where x is its interface
    line, p solves the chain for the data and g for a unit at its
    interface end.
    """
    grid, w_s = system.grid, system.w_s
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    L = K - 1
    diag = system.strip_diag.copy()
    if L:
        edge_lines = np.array([np.arange(L - 1, -1, -1), K + J + np.arange(L)])
        at = edge_lines[:, None, :] * M + np.arange(M)[:, None]  # (2, M, L) in r
        off = np.full(M * L - 1, w_s, dtype=complex)
        off[L - 1::L] = 0.0  # a chain ends at its Dirichlet line
        factors = lapack.zgttrf(off, np.repeat(system.chain_diag, L), off.copy(),
                                overwrite_dl=1, overwrite_d=1, overwrite_du=1)[:-1]

        def chains(rhs):
            """Solve the chains of each edge in rhs, shape (edges, M, L)."""
            x = lapack.zgttrs(*factors, rhs.reshape(len(rhs), -1).T)[0]
            return x.T.reshape(rhs.shape)

        unit = np.zeros((1, M, L), dtype=complex)
        unit[..., 0] = 1.0
        g = chains(unit)  # the same on both edges
        diag[[0, J]] -= w_s**2 * g[0, :, 0]
    lu = spla.splu(_with_diagonal(system.strip, diag), permc_spec="NATURAL")

    def solve(r):
        if not L:
            return lu.solve(r.ravel()).reshape(r.shape)
        p = chains(r.ravel()[at])
        rhs = r[L: K + J].copy()
        rhs[[0, J]] -= w_s * p[..., 0]
        x = lu.solve(rhs.ravel()).reshape(J + 1, M)
        p -= g * (w_s * x[[0, J], :, None])
        y = np.empty_like(r)
        y[L: K + J] = x
        y.ravel()[at] = p
        return y

    y = solve(b)
    return y + solve(b - system.apply(y))


def fd_resolvent(grid: WaveguideGrid, profile: CurvatureProfile, n: int,
                 z: complex, f1, f2) -> FDSolution:
    """Solve the discrete shifted resolvent equation with data (f1, f2)."""
    if complex(z).imag == 0.0:
        raise OracleError("z must have nonzero imaginary part")
    if not 1 <= n <= grid.n_u:
        raise ValueError(f"transverse index n = {n} outside the {grid.n_u} modes of the u-grid")
    sq = np.lib.scimath.sqrt(complex(z))
    trunc = math.exp(-abs(sq.imag) * grid.s_max)
    if trunc > 10.0 * TRUNCATION_TOL:
        raise OracleError(
            f"edge truncation error {trunc:.2e} exceeds bound; increase s_max")
    system = _sine_system(grid, profile, n, z)
    b = _rhs(grid, n, f1, f2)
    y = _block_solve(system, b)
    # Componentwise backward error of the solved system.  The chains of the
    # modes k != n decay into subnormals, which carry no relative digits, so
    # the denominators |A||y| + |b| are floored at tiny/eps.
    floor = np.finfo(float).tiny / np.finfo(float).eps
    denom = np.maximum(system.apply(y, absolute=True) + np.abs(b), floor)
    resid = float(np.max(np.abs(b - system.apply(y)) / denom))
    if not resid <= SOLVE_RESIDUAL_TOL:
        raise OracleError(f"sparse solve backward error {resid:.2e} above tolerance")
    psi = (y @ system.sine).ravel()
    return FDSolution(grid, profile, n, complex(z), _unflatten(grid, psi),
                      resid, _energy_norm(grid, psi))
