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
scalar chains, one per mode, closed by a Dirichlet line.  Mode n's chain
keeps its K - 1 lines.  Any other mode's chain carries no data: for its
interface value x_k it is x_k (rho_k^l - rho_k^(2K-l)) / (1 - rho_k^(2K)),
rho_k the decaying root of its recurrence, and it leaves the unknowns in
closed form (``_edge_modes``), the discrete transparent condition of Arnold,
Ehrhardt and Sofronov (Commun. Math. Sci. 1, 2003) on the truncated edge.
The metric 1/g and the potential W are diagonal in u, so the J+1 interface
and vertex lines form a block-tridiagonal strip of real symmetric blocks
S diag(.) S, each assembled as Toeplitz minus Hankel from cosine sums, plus
a complex diagonal per mode.  The edges' Schur complement on the interface
lines is diagonal: w_s t_k per mode k != n and -w_s^2 g_1 for mode n's chain
of unit response g.  A twisted block LU (LAPACK getrf/getrs on each dense
M x M block, from both ends in to the middle line, which fills nothing)
factors only the (J+1)*M strip.  The vertex nodes are antisymmetric to the
last bit, so an even profile's strip is its own mirror image, and at even J
the two halves of the factorisation are one: half the lines are factored.
One step of iterative refinement and the componentwise backward error
max |b - A y| / (|A| |y| + |b|) (``FDSolution.solve_residual``) are taken
against this structured operator, over every row that holds a computed
value.  The report is read in the same basis, and no line is mapped back
to the u-nodes: as S_nj = sqrt(h_u) chi_n(u_j), the mode-n edge projection
h_u (y S) . chi_n of a line y is sqrt(h_u) y_n, and as S is orthogonal,
sum_j |(y S)_j|^2 = sum_k |y_k|^2, so the energy norm sums the squares of
the unknowns and the closed-form chains' E_k |x_k|^2.

LAPACK comes from scipy.linalg, imported by the solvers at their first call:
importing this module (and so the CLI) loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profile import CurvatureProfile, geometry_fields

__all__ = [
    "FDEigenResult",
    "FDSolution",
    "Grid1D",
    "OracleError",
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
# Fewest s-steps of an edge: mode n's chain then has the 3 lines that scipy's
# gttrf wrapper takes at least.  ``WaveguideGrid.build`` pads s_max up to it.
MIN_EDGE_STEPS = 4
# Largest 2-D grid, 2.2 times the benchmark's refined bump grid (437,661); the
# edge length -ln(tol)/Im sqrt(z), and so the grid, grows without bound.  The
# solve holds the strip's (J + 1) M values and 2(K - 1) chain values, mode n's.
MAX_FD_UNKNOWNS = 1_000_000
# Most entries in the strip's dense M x M blocks, M^2 (3J + 1), 3.3 times the benchmark's
# refined bump grid: 16 bytes an entry (real diag and off; complex LU of U_j and U_j^-1 C_j:
# 48 bytes per M^2 and line), near 160 MB.  That is the worst case, an asymmetric strip; a
# mirrored one keeps the complex factors of about half its lines.  |diag| and |off|, 16
# bytes per M^2 and line, live only in the backward error, after the factors are freed.
MAX_FD_STRIP_ENTRIES = 10_000_000


def __getattr__(name):  # only perfbench/spans.py reads it; ROADMAP item 7 deletes it
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse.linalg as spla
    return spla


class OracleError(RuntimeError):
    pass


def _steps(length: float, h: float, name: str) -> float:
    """length / h, refused when not finite: a step that small makes no grid."""
    count = float(length) / h
    if not math.isfinite(count):
        raise ValueError(f"{name} = {h:.3g} is too small: {length:.3g}/{name} is not finite")
    return count


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


def _tridiag_eigen(profile: CurvatureProfile, grid: Grid1D, count: int):
    from scipy.linalg import eigh_tridiagonal  # at first use: analytic commands never load scipy
    h = grid.h
    pts = grid.points
    v = -0.25 * profile.gamma(pts) ** 2
    d = np.full(grid.n, 2.0) / h**2 + v
    d[0] -= 1.0 / h**2
    d[-1] -= 1.0 / h**2
    e = np.full(grid.n - 1, -1.0) / h**2
    return eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1))


def fd_vertex_eigen(profile: CurvatureProfile, n_points: int, count: int) -> FDEigenResult:
    """First ``count`` eigenpairs by central differences with extrapolation."""
    if n_points < 200:
        raise OracleError("need at least 200 mesh points")
    coarse = Grid1D(n_points)
    fine = Grid1D(2 * n_points)
    w_c, _ = _tridiag_eigen(profile, coarse, count)
    w_f, vecs = _tridiag_eigen(profile, fine, count)
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
        m = round(_steps(1.0, self.h_u, "h_u")) - 1
        if m < 2 or abs((m + 1) * self.h_u - 1.0) > 1e-12:
            raise ValueError("h_u must divide 1")
        k = round(_steps(self.s_max, self.h_s, "h_s"))
        if abs(k * self.h_s - self.s_max) > 1e-9:
            raise ValueError("h_s must divide s_max")
        if k < MIN_EDGE_STEPS:
            raise ValueError(f"an edge of {k} s-steps is shorter than {MIN_EDGE_STEPS}")
        j = round(_steps(2.0, self.h_s, "h_s"))
        if abs(j * self.h_s - 2.0) > 1e-12:
            raise ValueError("h_s must divide 2")
        object.__setattr__(self, "n_u", m)
        object.__setattr__(self, "n_edge", k)
        object.__setattr__(self, "n_vertex", j)
        if self.n_unknowns > MAX_FD_UNKNOWNS:
            raise ValueError(f"grid of {self.n_unknowns:.3g} unknowns exceeds {MAX_FD_UNKNOWNS}")
        if (entries := m * m * (3 * j + 1)) > MAX_FD_STRIP_ENTRIES:
            raise ValueError(f"vertex strip of {entries:.3g} block entries exceeds {MAX_FD_STRIP_ENTRIES}")
        # |mode gap| < 4/h_u^2: where that over delta^2 is not finite, the mode diagonals may be
        if not math.isfinite(4.0 / self.h_u**2 / self.delta / self.delta):
            raise ValueError(f"delta = {self.delta:.3g} is too small: (4/h_u^2)/delta^2, "
                             f"the largest mode gap over delta^2, is not finite")

    @staticmethod
    def build(epsilon: float, delta: float, z: complex, h_u: float = H_U,
              h_s: float = H_S) -> "WaveguideGrid":
        if not (h_u > 0.0 and h_s > 0.0):
            raise ValueError("grid steps must be positive")
        s_max = max(math.ceil(_steps(suggest_edge_length(z), h_s, "h_s")), MIN_EDGE_STEPS) * h_s
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
        """h_s (j - J/2): antisymmetric to the last bit for every J, so an even
        profile's strip is its own mirror image (``_strip_factor``)."""
        return self.h_s * (np.arange(self.n_vertex + 1) - self.n_vertex / 2)

    @property
    def n_lines(self) -> int:
        return 2 * self.n_edge + self.n_vertex - 1

    @property
    def n_unknowns(self) -> int:
        return self.n_lines * self.n_u


def _line_weights(grid: WaveguideGrid) -> np.ndarray:
    """s-weight of each strip line: eps*h_s on vertex lines and its mean with
    the edge lines' h_s on the two interface lines."""
    w = np.full(grid.n_vertex + 1, grid.epsilon * grid.h_s)
    w[[0, -1]] = 0.5 * (grid.h_s + grid.epsilon * grid.h_s)
    return w


def _geometric(x: np.ndarray, count: int) -> np.ndarray:
    """sum_(j < count) e^(j x) as expm1(count x) / expm1(x): nothing cancels near x = 0."""
    d = np.expm1(x)
    return np.divide(np.expm1(count * x), d, out=np.full_like(d, count), where=d != 0)


def _edge_modes(shift: np.ndarray, w_s: float, K: int):
    """Interface response t and energy E of each mode's data-free edge chain
    w_s y_(l-1) + c y_l + w_s y_(l+1) = 0 (l = 1..K-1, y_0 = x, y_K = 0, c = shift - 2 w_s):
    y_l = x (rho^l - rho^(2K-l)) / (1 - rho^(2K)), rho its decaying root, so y_1 = t x with
    t = rho (1 - P) / (1 - rho^2 P), P = rho^(2(K-1)), and sum_l |y_l|^2 = E |x|^2 with E =
    [(q + q^(K+1)) sum_(j<K-1) q^j - 2 q^K Re sum_(j=1..K-1) e^(-2ij theta)] / |1 - rho^(2K)|^2,
    q = |rho|^2, theta = arg rho.  rho = -v / (1 + sqrt(1 - v^2)), v = 2 w_s / c (Vieta): the
    principal root has a real part >= 0 and 1 - v^2 = (shift / c) (shift - 4 w_s) / c, so
    nothing cancels, though |rho| be near 1, and on a thin guide nothing overflows; the
    powers are exponentials of log rho, which only underflow."""
    c = shift - 2.0 * w_s
    log_rho = np.log(-2.0 * w_s / c / (1.0 + np.sqrt(shift / c * ((shift - 4.0 * w_s) / c))))
    rho, P = np.exp(log_rho), np.exp(2 * (K - 1) * log_rho)
    t = rho * (1.0 - P) / (1.0 - rho * rho * P)
    log_q, turn = 2.0 * log_rho.real, -2j * log_rho.imag
    power = np.exp(np.multiply.outer([1, K, K + 1], log_q))  # q, q^K, q^(K+1)
    cross = (np.exp(turn) * _geometric(turn, K - 1)).real
    energy = ((power[0] + power[2]) * _geometric(log_q, K - 1) - 2.0 * power[1] * cross) \
        / np.abs(1.0 - np.exp(2 * K * log_rho)) ** 2
    return t, energy


@dataclass(frozen=True)
class _SineSystem:
    """The 2-D system in the sine basis.  Its unknowns are packed in one vector:
    mode n's chains on edges 1 and 2 (2, K - 1), outward from the interface, then
    the J + 1 strip lines (J + 1, M).  Each other mode's edge chains leave in closed
    form (``_edge_modes``) as w_s t_k on its mode of both interface lines.  Only the
    real blocks are held: ``apply`` forms |A| where it reads it."""

    grid: WaveguideGrid
    n: int
    diag: np.ndarray         # (J + 1, M, M) real symmetric block of each strip line
    off: np.ndarray          # (J, M, M) real symmetric block between lines j, j + 1
    strip_diag: np.ndarray   # (J + 1, M) mode diagonal of the strip lines
    edge_gain: np.ndarray    # (M,) w_s t_k on each interface line, 0 for mode n
    edge_energy: np.ndarray  # (M,) E_k of each edge chain per |x_k|^2, 0 for mode n
    chain_diag: complex      # mode n's diagonal on every chain line
    w_s: float               # edge line to each s-neighbour line

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a packed vector: the chains (2, K - 1) and the strip (J + 1, M)."""
        L = self.grid.n_edge - 1
        return v[: 2 * L].reshape(2, L), v[2 * L:].reshape(self.grid.n_vertex + 1, -1)

    def apply(self, y: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A y, or |A| |y| (blocks, mode diagonal and edge gain apart) if ``absolute``."""
        J, n = self.grid.n_vertex, self.n
        parts = self.diag, self.off, self.strip_diag, self.edge_gain, self.chain_diag, self.w_s, y
        a, a_off, d, gain, c, w_s, y = map(np.abs, parts) if absolute else parts
        chains, lines = self.split(y)
        out = np.empty_like(y)
        out_chains, out_lines = self.split(out)
        # a complex line as its (re, im) columns: real products, no complex copy of the blocks
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

    def backward_error(self, y: np.ndarray, b: np.ndarray) -> float:
        """Componentwise backward error max |b - A y| / (|A| |y| + |b|) over every
        row that holds a computed value, mode n's chains and the strip, with |A|
        taken of the blocks for this one product; the term
        w_s t_k x_k of a closed-form chain is apart in |A| |y|, as |w_s| |y_1|.  A mode
        the data do not reach (k != n on a flat profile) is 0 or subnormal, with no
        relative digits, so the denominators are floored at tiny/eps."""
        floor = np.finfo(float).tiny / np.finfo(float).eps
        denom = np.maximum(self.apply(y, absolute=True) + np.abs(b), floor)
        return float(np.max(np.abs(b - self.apply(y)) / denom))


def _sine_blocks(v: np.ndarray, hu: float) -> np.ndarray:
    """S diag(v_j) S for each row v_j of v, (L, M) -> (L, M, M), as Toeplitz minus
    Hankel: by 2 sin a sin b = cos(a - b) - cos(a + b), entry (i, k) is
    T(|i - k|) - T(i + k), T(m) = h_u sum_l v_l cos(m l pi h_u), and one product
    gives T at m = -(M - 1)..2M, of which both are strided views.  A mirrored v (rows
    reversed) gives mirrored blocks, bit for bit: the product runs on its first half,
    since BLAS may round equal rows differently by their position."""
    M, rows = v.shape[1], np.arange(len(v))
    if np.array_equal(v, v[::-1]):
        rows = np.minimum(rows, rows[::-1])
    k, m = np.arange(1, M + 1), np.abs(np.arange(1 - M, 2 * M + 1))
    t = (v[: rows.max() + 1] @ (hu * np.cos(np.outer(k, m) * (math.pi * hu))))[rows]
    t = np.lib.stride_tricks.sliding_window_view(t, M, axis=1)
    return t[:, :M, ::-1] - t[:, M + 1:]


def _sine_system(grid: WaveguideGrid, profile: CurvatureProfile, n: int,
                 z: complex) -> _SineSystem:
    """The system of transverse mode n at z.  Line l carries w_l h_u (gap/delta^2 - z)
    on each mode, w_l = h_s on edge lines (``_line_weights`` on the strip); edge
    lines add 2 h_u/h_s and w_s = -h_u/h_s to each neighbour, interface lines h_u/h_s."""
    eps, hs, hu = grid.epsilon, grid.h_s, grid.h_u
    K, J, M = grid.n_edge, grid.n_vertex, grid.n_u
    mode = hu * (grid.mode_gaps(n) / grid.delta**2 - complex(z))  # complex at real z too
    strip_diag = _line_weights(grid)[:, None] * mode
    strip_diag[[0, J]] += hu / hs

    u, ratio = grid.u_nodes[None, :], grid.delta / eps
    s_mid = hs * (np.arange(J) - (J - 1) / 2)  # h_s (j - J/2 + 1/2), antisymmetric as vertex_s
    amid = geometry_fields(profile, s_mid[:, None], u, ratio)["inv_g"]
    w_pot = geometry_fields(profile, grid.vertex_s[1:-1, None], u, ratio)["W"]
    on = np.empty((J + 1, M))
    on[[0, J]] = amid[[0, -1]]
    on[1:J] = amid[:-1] + amid[1:] + hs**2 * w_pot
    # diag[j] sits on strip line j, off[j] couples lines j and j + 1
    diag, off = (_sine_blocks(hu / (eps * hs) * v, hu) for v in (on, -amid))

    w_s = -hu / hs
    t, energy = _edge_modes(hs * mode, w_s, K)
    t[n - 1] = energy[n - 1] = 0.0  # mode n's chain carries the data: it stays unknown
    return _SineSystem(grid, n, diag, off, strip_diag, w_s * t, energy,
                       hs * mode[n - 1] - 2.0 * w_s, w_s)


def _rhs(system: _SineSystem, f1, f2) -> np.ndarray:
    """Edge data f_j chi_n in the sine basis, where they lie in mode n alone,
    packed as the unknowns."""
    grid, n = system.grid, system.n
    K, J = grid.n_edge, grid.n_vertex
    b = np.zeros(2 * (K - 1) + (J + 1) * grid.n_u, dtype=complex)
    chains, lines = system.split(b)
    for f, edge, iface in ((f1, 0, 0), (f2, 1, J)):
        if f is None:
            continue
        values = np.asarray(f(np.arange(K) * grid.h_s), dtype=float)
        values[0] /= 2.0
        values = grid.h_s * math.sqrt(grid.h_u) * values
        lines[iface, n - 1] = values[0]
        chains[edge] = values[1:]
    return b


@dataclass(frozen=True)
class FDSolution:
    """Discrete resolvent application on the waveguide grid, as the report reads it."""

    grid: WaveguideGrid
    n: int
    projections: np.ndarray  # (2, n_edge + 1) (chi_n, psi) per edge s-node, outward
    solve_residual: float
    energy_norm: float  # discrete norm of the flat-measure energy space

    def edge_projection(self, edge: int) -> np.ndarray:
        """(chi_n, psi_edge) per s node, by midpoint u-quadrature: sqrt(h_u) y_n."""
        return self.projections[edge - 1]


def trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on ``n_nodes`` uniform nodes of spacing h."""
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


def _strip_factor(diag: np.ndarray, off: np.ndarray, d: np.ndarray):
    """solve(r) = x, both (J + 1, M), for the strip of blocks D_j = diag[j] + diag(d[j])
    and C_j = off[j] on both sides of them.  Twisted block LU, met at line m = J // 2:
    lines 0..m-1 by U_0 = D_0, U_j = D_j - C_{j-1} G_{j-1} and G_j = U_j^-1 C_j (getrf,
    getrs), lines J..m+1 by the same sweep on the mirrored strip (every array reversed),
    and Z = D_m - C_{m-1} G_{m-1} - C_m H_{m+1} on line m.  When J is even and the
    mirrored arrays equal the originals, the second sweep is the first: half the lines
    are factored.  The solve runs forward from both ends, solves Z, and substitutes
    back outward.  A real block times a complex one is one real product on the
    (re, im) columns of the complex one."""
    from scipy.linalg import lapack  # at first use: analytic commands never load scipy
    J, M = off.shape[0], diag.shape[1]
    m, flips = J // 2, (slice(None), slice(None, None, -1))

    def sweep(diag, off, d, count):
        """LU of the first ``count`` lines, their G_j, and C G of the last."""
        factors, gain = [], np.empty((count, M, M), dtype=complex)
        schur = np.zeros((M, M), dtype=complex)
        for j in range(count):
            u = diag[j] - schur
            u.flat[:: M + 1] += d[j]
            factors.append(lapack.zgetrf(u)[:2])
            gain[j] = lapack.zgetrs(*factors[j], off[j])[0]
            schur = (off[j] @ gain[j].view(float)).view(complex)
        return factors, gain, schur

    top = sweep(diag, off, d, m)
    mirrored = diag[::-1], off[::-1], d[::-1]
    same = 2 * m == J and all(map(np.array_equal, mirrored, (diag, off, d)))
    halves = (top, top if same else sweep(*mirrored, J - m))
    z = diag[m] - halves[0][2] - halves[1][2]
    z.flat[:: M + 1] += d[m]
    middle = lapack.zgetrf(z)[:2]

    def solve(r: np.ndarray) -> np.ndarray:
        x, rhs = np.empty((J + 1, M), dtype=complex), r[m].copy()
        for (factors, _, _), flip in zip(halves, flips):
            x_h, r_h, c, cw = x[flip], r[flip], off[flip], 0.0
            for j, lu in enumerate(factors):
                x_h[j] = lapack.zgetrs(*lu, r_h[j] - cw)[0]
                cw = (c[j] @ x_h[j].view(float).reshape(M, 2)).ravel().view(complex)
            rhs -= cw
        x[m] = lapack.zgetrs(*middle, rhs)[0]
        for (_, gain, _), flip in zip(halves, flips):
            x_h = x[flip]
            for j in range(len(gain) - 1, -1, -1):
                x_h[j] -= gain[j] @ x_h[j + 1]
        return x

    return solve


def _block_solve(system: _SineSystem, b: np.ndarray) -> np.ndarray:
    """A^-1 b by exact elimination of mode n's edge chains, with one step of
    iterative refinement against ``system.apply``.

    Mode n's chain runs over the K - 1 >= 3 edge lines outward from the interface
    line, one constant tridiagonal on both edges, factored once by LAPACK gttrf
    (``MIN_EDGE_STEPS`` keeps every edge long enough for it).  Its solution
    is p - w_s g x_n, x_n its interface value, p its solution for the data and g
    for a unit at its interface end.  The strip, with the Schur complement
    -w_s^2 g_1 of mode n and w_s t_k of each other mode on its interface lines,
    is solved by ``_strip_factor``."""
    from scipy.linalg import lapack  # at first use: analytic commands never load scipy
    grid, n, w_s = system.grid, system.n, system.w_s
    J, L = grid.n_vertex, grid.n_edge - 1
    off = np.full(L - 1, w_s, dtype=complex)
    factors = lapack.zgttrf(off, np.full(L, system.chain_diag), off.copy())[:-1]

    def chains(rhs):
        """Solve the chain of each edge in rhs, shape (edges, L)."""
        return lapack.zgttrs(*factors, rhs.T)[0].T

    g = chains(np.eye(1, L, dtype=complex))[0]  # the same on both edges
    diag = system.strip_diag.copy()
    diag[[0, J]] += system.edge_gain
    diag[[0, J], n - 1] -= w_s**2 * g[0]
    strip = _strip_factor(system.diag, system.off, diag)

    def solve(r):
        r_chains, r_lines = system.split(r)
        p = chains(r_chains)
        rhs = r_lines.copy()
        rhs[[0, J], n - 1] -= w_s * p[:, 0]
        x = strip(rhs)
        p -= np.outer(w_s * x[[0, J], n - 1], g)
        return np.concatenate([p.ravel(), x.ravel()])

    y = solve(b)
    return y + solve(b - system.apply(y))


def fd_resolvent(grid: WaveguideGrid, profile: CurvatureProfile, n: int,
                 z: complex, f1, f2) -> FDSolution:
    """Solve the discrete shifted resolvent equation with data (f1, f2)."""
    if not 1 <= n <= grid.n_u:
        raise ValueError(f"transverse index n = {n} outside the {grid.n_u} modes of the u-grid")
    sq = np.lib.scimath.sqrt(complex(z))
    trunc = math.exp(-abs(sq.imag) * grid.s_max)
    if trunc > 10.0 * TRUNCATION_TOL:
        raise OracleError(f"edge truncation error {trunc:.2e} exceeds bound; increase s_max")
    system = _sine_system(grid, profile, n, z)
    b = _rhs(system, f1, f2)
    y = _block_solve(system, b)
    resid = system.backward_error(y, b)
    if not resid <= SOLVE_RESIDUAL_TOL:
        raise OracleError(f"solve backward error {resid:.2e} above tolerance")
    chains, lines = system.split(y)
    K, J = grid.n_edge, grid.n_vertex
    proj = np.zeros((2, K + 1), dtype=complex)  # 0 on the Dirichlet line at s_max
    proj[:, 0] = lines[[0, J], n - 1]
    proj[:, 1:K] = chains
    squares = np.abs(lines) ** 2
    edges = np.sum(np.abs(chains) ** 2) + system.edge_energy @ (squares[0] + squares[J])
    energy = grid.h_u * (grid.h_s * edges + _line_weights(grid) @ squares.sum(axis=1))
    return FDSolution(grid, n, math.sqrt(grid.h_u) * proj, resid, float(np.sqrt(energy)))
