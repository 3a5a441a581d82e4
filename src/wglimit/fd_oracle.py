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
defect of T_h).  The edge data lie in mode n alone, and each edge is M
scalar chains, one per mode.  Mode n's chain keeps every edge line.  The
chain of any other mode k sees only its interface value, so its response
falls like rho_k^l, rho_k the decaying root of its recurrence; past
l ln|rho_k| <= -760 it is below the smallest subnormal, exactly 0, and the
chain ends there.  The metric 1/g and the potential W are diagonal in u, so
the J+1 interface and vertex lines form a block-tridiagonal strip of real
symmetric blocks S diag(.) S plus a complex diagonal per mode.  The edges'
Schur complement on the interface lines is the diagonal -w_s^2 g_near of
the chains' unit response g, and a block LU (LAPACK getrf/getrs on each
dense M x M block, line by line, which fills nothing) factors only the
(J+1)*M strip.  One step of iterative refinement and the componentwise
backward error max |b - A y| / (|A| |y| + |b|) (``FDSolution.solve_residual``)
are taken against this structured operator, the latter over every row: a
cut that is too short shows as the residual of the first line past it.

LAPACK comes from scipy.linalg, imported by the solvers at their first call:
importing this module (and so the CLI) loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# returned field costs a complex value per unknown; the solve holds one per
# chain line, mode n's L and some hundred per other mode (5-11% of the edge
# unknowns on the benchmark grids).
MAX_FD_UNKNOWNS = 1_000_000
# Most entries in the strip's dense M x M blocks, M^2 (3J + 1), 3.3 times the benchmark's
# refined bump grid: 21 bytes an entry (real diag, off, |diag|, |off|; complex LU of U_j and
# U_j^-1 C_j: 64 bytes per M^2 and line), near 215 MB.
MAX_FD_STRIP_ENTRIES = 10_000_000


def __getattr__(name):  # only perfbench/spans.py reads it; ROADMAP item 7 deletes it
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse.linalg as spla
    return spla


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
    from scipy.linalg import eigh_tridiagonal  # at first use: analytic commands never load scipy
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

    def mode_gaps(self, n: int) -> np.ndarray:
        """lambda_k - lambda_n of the u-stencil, k = 1..n_u (module docstring)."""
        k, half = np.arange(1, self.n_u + 1), math.pi * self.h_u / 2
        return (4.0 / self.h_u**2) * np.sin((k - n) * half) * np.sin((k + n) * half)

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


# A chain's unit response falls like rho_k^l; past e^-760 it lies below the
# smallest subnormal (e^-744.4), so it is exactly 0 in floating point.
CUT_LOG = -760.0


def _live_lines(chain_diag: np.ndarray, w_s: float, n: int, L: int) -> np.ndarray:
    """Lines each mode's edge chain keeps: all L for mode n, which carries
    the data, else the fewest l >= 1 with l ln|rho_k| <= ``CUT_LOG`` (all L
    for an open channel, |rho_k| near 1).  rho_k, the decaying root of
    w_s rho^2 + c_k rho + w_s = 0, is taken by Vieta as -q / (1 + sqrt(1 - q^2))
    with q = 2 w_s / c_k: the principal root has a real part >= 0, so the sum
    cancels nothing, and on a thin guide q is tiny, so nothing overflows."""
    q = 2.0 * w_s / chain_diag
    decay = np.maximum(-np.log(np.abs(q / (1.0 + np.sqrt(1.0 - q * q)))), 0.0)
    with np.errstate(divide="ignore"):
        live = np.minimum(np.maximum(np.ceil(-CUT_LOG / decay), 1.0), L).astype(int)
    live[n - 1] = L
    return live


@dataclass(frozen=True)
class _SineSystem:
    """The 2-D system in the sine basis.  Its unknowns are packed in one
    vector: edge 1's chains, edge 2's chains (mode k's ``live[k]`` lines,
    outward from the interface, mode after mode), then the J + 1 strip lines
    (J + 1, M).  Every chain line past a cut is exactly 0."""

    grid: WaveguideGrid
    n: int
    diag: np.ndarray         # (J + 1, M, M) real symmetric block of each strip line
    off: np.ndarray          # (J, M, M) real symmetric block between lines j, j + 1
    abs_blocks: tuple        # |diag| and |off|, for the backward error
    strip_diag: np.ndarray   # (J + 1, M) mode diagonal of the strip lines
    chain_diag: np.ndarray   # (N,) mode diagonal of every chain line
    chain_off: np.ndarray    # (N - 1,) w_s within a chain, 0 between chains
    w_s: float               # edge line to each s-neighbour line
    live: np.ndarray         # (M,) lines each mode's chain keeps on an edge
    start: np.ndarray        # (M,) offset of each mode's chain in an edge
    sine: np.ndarray         # S

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a packed vector: the chains (2, N) and the strip (J + 1, M)."""
        N = len(self.chain_diag)
        return v[: 2 * N].reshape(2, N), v[2 * N:].reshape(self.grid.n_vertex + 1, -1)

    def apply(self, y: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A y, or |A| |y| (blocks and mode diagonal apart) if ``absolute``."""
        J = self.grid.n_vertex
        (a, a_off), d, c, off, w_s = ((self.diag, self.off), self.strip_diag,
                                      self.chain_diag, self.chain_off, self.w_s)
        if absolute:
            (a, a_off), d, c, off, w_s, y = (self.abs_blocks, np.abs(d), np.abs(c),
                                             np.abs(off), abs(w_s), np.abs(y))
        chains, lines = self.split(y)
        out = np.empty_like(y)
        out_chains, out_lines = self.split(out)
        # a complex line as its (re, im) columns: real products, no complex copy of the blocks
        x = lines[..., None] if absolute else lines.view(float).reshape(J + 1, -1, 2)
        prod = a @ x
        prod[:-1] += a_off @ x[1:]
        prod[1:] += a_off @ x[:-1]
        out_lines[:] = prod.reshape(J + 1, -1).view(y.dtype) + d * lines
        if not len(c):
            return out
        out_lines[[0, J]] += w_s * chains[:, self.start]
        out_chains[:] = c * chains
        out_chains[:, :-1] += off * chains[:, 1:]
        out_chains[:, 1:] += off * chains[:, :-1]
        out_chains[:, self.start] += w_s * lines[[0, J]]
        return out

    def backward_error(self, y: np.ndarray, b: np.ndarray) -> float:
        """Componentwise backward error max |b - A y| / (|A| |y| + |b|) over
        every row of the full system.  Past a cut only the first dropped line
        is not 0/0: its residual is w_s times the chain's last value, which
        reads 1 unless it is under the floor.  The chains of the modes k != n
        decay into subnormals, which carry no relative digits, so the
        denominators are floored at tiny/eps."""
        floor = np.finfo(float).tiny / np.finfo(float).eps
        denom = np.maximum(self.apply(y, absolute=True) + np.abs(b), floor)
        resid = np.max(np.abs(b - self.apply(y)) / denom)
        cut = self.live < self.grid.n_edge - 1
        last = self.split(y)[0][:, (self.start + self.live - 1)[cut]]
        spill = np.abs(self.w_s * last) / np.maximum(abs(self.w_s) * np.abs(last), floor)
        return float(max(resid, spill.max(initial=0.0)))

    def physical(self, y: np.ndarray) -> np.ndarray:
        """psi = y S on every line, (n_lines, M).  Past the longest chain of
        the modes k != n only mode n is nonzero, and there psi = y_n S_n."""
        grid, n, S = self.grid, self.n, self.sine
        K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
        L = K - 1
        chains, lines = self.split(y)
        psi = np.empty((grid.n_lines, M), dtype=complex)
        psi[L: K + J] = lines @ S
        mode = np.repeat(np.arange(M), self.live)
        edges = np.zeros((2, L, M), dtype=complex)  # lines outward from the interface
        edges[:, np.arange(len(mode)) - self.start[mode], mode] = chains
        head = np.delete(self.live, n - 1).max()
        for edge, psi_e in zip(edges, (psi[:L][::-1], psi[K + J:])):
            psi_e[:head] = edge[:head] @ S
            psi_e[head:] = edge[head:, n - 1, None] * S[n - 1]
        return psi


def _sine_system(grid: WaveguideGrid, profile: CurvatureProfile, n: int,
                 z: complex) -> _SineSystem:
    """The system of transverse mode n at z.  Line l carries w_l h_u (gap/delta^2 - z)
    on each mode (``_line_weights``); edge lines add 2 h_u/h_s and
    w_s = -h_u/h_s to each neighbour, interface lines h_u/h_s."""
    eps, hs, hu = grid.epsilon, grid.h_s, grid.h_u
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    k = np.arange(1, M + 1)
    sine = math.sqrt(2.0 * hu) * np.sin(np.outer(k, k) * (math.pi * hu))
    mode = hu * (grid.mode_gaps(n) / grid.delta**2 - z)
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

    chain_diag, w_s = hs * mode + 2.0 * hu / hs, -hu / hs
    live = _live_lines(chain_diag, w_s, n, K - 1)
    start = np.cumsum(live) - live
    # a chain ends at its cut or at its Dirichlet line
    chain_off = np.where(np.isin(np.arange(1, live.sum()), start), 0.0, w_s)
    return _SineSystem(grid, n, diag, off, (np.abs(diag), np.abs(off)), strip_diag,
                       np.repeat(chain_diag, live), chain_off, w_s, live, start, sine)


def _rhs(system: _SineSystem, f1, f2) -> np.ndarray:
    """Edge data f_j chi_n in the sine basis, where they lie in mode n alone,
    packed as the unknowns."""
    grid, n = system.grid, system.n
    K, J = grid.n_edge, grid.n_vertex
    b = np.zeros(2 * len(system.chain_diag) + (J + 1) * grid.n_u, dtype=complex)
    chains, lines = system.split(b)
    first = system.start[n - 1]
    for f, edge, iface in ((f1, 0, 0), (f2, 1, J)):
        if f is None:
            continue
        values = np.asarray(f(np.arange(K) * grid.h_s), dtype=float)
        values[0] /= 2.0
        values = grid.h_s * math.sqrt(grid.h_u) * values
        lines[iface, n - 1] = values[0]
        chains[edge, first: first + K - 1] = values[1:]
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
    K, J = grid.n_edge, grid.n_vertex
    lines = psi.reshape(grid.n_lines, grid.n_u)
    end = np.zeros((1, grid.n_u), dtype=complex)  # the Dirichlet line at s_max
    return WaveguideField(grid, np.vstack([lines[K - 1::-1], end]),
                          np.vstack([lines[K + J - 1:], end]), lines[K - 1: K + J].copy())


def _strip_factor(diag: np.ndarray, off: np.ndarray, d: np.ndarray):
    """solve(r) = x, both (J + 1, M), for the strip of blocks D_j = diag[j] + diag(d[j])
    and C_j = off[j] on both sides of them.  Block LU: U_0 = D_0, U_j = D_j - C_{j-1} G_{j-1}
    and G_j = U_j^-1 C_j, by getrf and getrs; forward w_j = U_j^-1 (r_j - C_{j-1} w_{j-1}),
    back x_J = w_J and x_j = w_j - G_j x_{j+1}.  A real block times a complex one is one
    real product on the (re, im) columns of the complex one."""
    from scipy.linalg import lapack  # at first use: analytic commands never load scipy
    J, M = off.shape[0], diag.shape[1]
    factors, gain = [], np.empty((J, M, M), dtype=complex)
    u = diag[0].astype(complex)
    for j in range(J + 1):
        u.flat[:: M + 1] += d[j]
        factors.append(lapack.zgetrf(u)[:2])
        if j < J:
            gain[j] = lapack.zgetrs(*factors[j], off[j])[0]
            u = diag[j + 1] - (off[j] @ gain[j].view(float)).view(complex)

    def solve(r: np.ndarray) -> np.ndarray:
        w, rhs = np.empty((J + 1, M), dtype=complex), r[0]
        for j in range(J + 1):
            w[j] = lapack.zgetrs(*factors[j], rhs)[0]
            if j < J:
                rhs = r[j + 1] - (off[j] @ w[j].view(float).reshape(M, 2)).ravel().view(complex)
        for j in range(J - 1, -1, -1):
            w[j] -= gain[j] @ w[j + 1]
        return w

    return solve


def _block_solve(system: _SineSystem, b: np.ndarray) -> np.ndarray:
    """A^-1 b by exact elimination of the edge chains, with one step of
    iterative refinement against ``system.apply``.

    Mode k's chain runs over its ``live[k]`` lines outward from the
    interface line, the same on both edges; all chains are one tridiagonal
    system, factored once.  A chain's solution is p - w_s g x_k, where x is
    its interface line, p solves the chain for the data and g for a unit at
    its interface end.  The strip, with the chains' Schur complement
    -w_s^2 g on its interface lines, is solved by ``_strip_factor``.
    """
    from scipy.linalg import lapack  # at first use: analytic commands never load scipy
    grid, w_s, live, start = system.grid, system.w_s, system.live, system.start
    J, M, N = grid.n_vertex, grid.n_u, len(system.chain_diag)
    diag = system.strip_diag.copy()
    if N:
        off = system.chain_off.astype(complex)
        factors = lapack.zgttrf(off, system.chain_diag, off.copy())[:-1]

        def chains(rhs):
            """Solve the chains of each edge in rhs, shape (edges, N)."""
            return lapack.zgttrs(*factors, rhs.T)[0].T

        unit = np.zeros((1, N), dtype=complex)
        unit[0, start] = 1.0
        g = chains(unit)[0]  # the same on both edges
        diag[[0, J]] -= w_s**2 * g[start]
    strip = _strip_factor(system.diag, system.off, diag)

    def solve(r):
        if not N:
            return strip(r.reshape(J + 1, M)).ravel()
        r_chains, r_lines = system.split(r)
        p = chains(r_chains)
        rhs = r_lines.copy()
        rhs[[0, J]] -= w_s * p[:, start]
        x = strip(rhs)
        p -= g * np.repeat(w_s * x[[0, J]], live, axis=1)
        return np.concatenate([p.ravel(), x.ravel()])

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
    b = _rhs(system, f1, f2)
    y = _block_solve(system, b)
    resid = system.backward_error(y, b)
    if not resid <= SOLVE_RESIDUAL_TOL:
        raise OracleError(f"solve backward error {resid:.2e} above tolerance")
    psi = system.physical(y).ravel()
    return FDSolution(grid, profile, n, complex(z), _unflatten(grid, psi),
                      resid, _energy_norm(grid, psi))
