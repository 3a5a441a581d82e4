"""Neumann Sturm-Liouville spectrum of the effective vertex Hamiltonian.

The operator is  h = -d^2/ds^2 - gamma(s)^2/4  on (-1, 1) with Neumann
ends.  Two shooting solutions are integrated,

    zeta:  zeta(-1) = 1, zeta'(-1) = 0   (left-normalised),
    eta:   eta(1)  = 1, eta'(1)  = 0     (right-normalised),

whose s-independent Wronskian  Wv = eta*zeta' - zeta*eta'  vanishes
exactly at the eigenvalues.  With these initial conditions Wv equals
zeta'(+1), which is the classical shooting function.

Both are entire in the spectral parameter (J. D. Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993).  About a centre c,

    zeta(c + d; s) = sum_k d^k zeta_k(s),  V = -gamma^2/4,
    zeta_0'' = (V - c) zeta_0,  zeta_k'' = (V - c) zeta_k - zeta_{k-1},

with zeta_k (k >= 1) starting from zero data, and eta likewise from
s = +1.  This coefficient system is the one shooting equation here:
``shoot`` is its 1-term solve about z, ``taylor_shooting`` its 12-term
solve about 0 (near w = 0 every shooting solution is then a polynomial
in w), and each eigenpair a 4-term solve about its cosine-Galerkin
eigenvalue (the eigendata the series kernel uses), stacked with the others
of its panel count.  The eigenvalue is
the root of that Wronskian polynomial within half the Galerkin gap, so
the Galerkin count fixes the order; the eigenfunction is zeta there,
from the same solve.  Its end values alpha1 = y(-1), alpha2 = y(+1) feed
the weighted Kirchhoff projector when zero is (numerically) an eigenvalue.

Every solve is 8-stage Gauss-Legendre collocation on equal panels (E. Hairer,
S. P. Norsett and G. Wanner, Solving ODEs I), built for all panels at once;
the collocation polynomial is the dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from numpy.polynomial.polynomial import polyval

from .profile import CurvatureProfile

__all__ = [
    "EigenFunction",
    "IntegrationError",
    "SpectrumError",
    "ShootingSolution",
    "TaylorShooting",
    "VertexSpectrum",
    "CaseLabel",
    "check_zero_tolerance",
    "classify",
    "classify_case",
    "eigenvalue_by_index",
    "eigenvalues",
    "shoot",
    "taylor_shooting",
    "wronskian_values",
]

DEFAULT_ZERO_TOLERANCE = 1e-9
# Taylor coefficients w^0 .. w^(SERIES_TERMS-1) of the shooting solutions,
# used for |w| <= SERIES_RADIUS.  For gamma = 0 the tail after K terms is
# about (4|w|)^K / (2K)!: 2e-24 at the radius, and on every profile class
# it stays below 1e-16 relative out to twice the radius.
SERIES_TERMS = 12
SERIES_RADIUS = 0.25
# The solve about each Galerkin eigenvalue g: coefficients d^0 .. d^3 in
# d = lambda - g, where |d| ~ 1e-11 |g| leaves d^4 far below rounding.
# Newton steps on the root of its Wronskian polynomial stop once a step is
# below _NEWTON_TOL max(1, |g|), one or two steps from the Galerkin value.
_EIGEN_TERMS = 4
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-14
# Collocation stages per panel.  A solve about c takes 2 sqrt(max|V - c|)
# panels (h sqrt|V - c| <= 1), at least _MIN_PANELS for the bump's ends (on
# tuned:2, 32 leave 1.4e-13 in W_0).  The cap admits |z| up to about 1.1e6.
_STAGES = 8
_MIN_PANELS = 64
MAX_SHOOT_PANELS = 2100
# Largest eigenvalues() count.  The work per eigenvalue grows like the
# square root of its size: 50 on bump:0.5 take about 0.2 s on a 2-core VM.
MAX_EIGENVALUE_COUNT = 50


class IntegrationError(RuntimeError):
    """A shooting solve needs more than MAX_SHOOT_PANELS or overflows."""


class SpectrumError(RuntimeError):
    """Eigenvalue search could not locate the requested spectrum."""


def __getattr__(name):  # only perfbench/spans.py reads it; ROADMAP item 7 deletes it
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    return solve_ivp


@dataclass(frozen=True)
class ShootingSolution:
    """Dense shooting output at one complex spectral parameter.

    Away from the eigenvalues it is the vertex kernel
    r(z; s, s') = zeta(min(s, s')) eta(max(s, s')) / Wv.  Each side is a
    series of coefficient solves on the panel ends ``mesh``: 1 term about z
    when shot, SERIES_TERMS about 0 from ``taylor_shooting``.  Each side's solve
    holds its Dirichlet partner: chi(-1) = 0, chi'(-1) = 1 and psi(+1) = 0,
    psi'(+1) = -1.  Their Wronskian gives D = chi(+1) = psi(-1) (``dirichlet``),
    and the unit-determinant transfer matrix gives eta(-1) = chi'(+1), so
    det N = eta(-1) zeta(+1) - 1 = Wv D.
    """

    z: complex
    zeta_sol: _TaylorSide  # s -> (zeta, zeta') at s
    eta_sol: _TaylorSide
    wronskian: complex
    dirichlet: complex
    mesh: np.ndarray

    def zeta(self, s):
        """zeta values at s (vectorised)."""
        return self.zeta_sol(np.asarray(s))[0]

    def eta(self, s):
        return self.eta_sol(np.asarray(s))[0]

    def value(self, s, sp):
        """The kernel r(z; s, s') over broadcast s, s' (a complex for scalars), from zeta
        and eta run once per distinct min/max value; each entry has a one-point call's bits."""
        lo, hi = np.minimum(s, sp), np.maximum(s, sp)
        pts, inv = np.unique(np.stack([lo, hi]), return_inverse=True)
        i, j = inv.reshape(2, *lo.shape)
        out = self.zeta(pts)[i] * self.eta(pts)[j] / self.wronskian
        return complex(out) if out.ndim == 0 else out

    def robin_sides(self, sigma: complex) -> tuple[_TaylorSide, _TaylorSide]:
        """eta - sigma psi and zeta - sigma chi, s -> (y, y'): each side's
        stacked solve with the powers (d^k, -sigma d^k)."""
        return tuple(_TaylorSide(side.coefficients.stacked,
                                 np.concatenate([side.powers, -sigma * side.powers]))
                     for side in (self.eta_sol, self.zeta_sol))

    def corner_numerator(self) -> np.ndarray:
        """N = [[eta(-1), 1], [1, zeta(+1)]], Wv times the kernel's corner values
        r(z; +-1, +-1).  The dense output returns the initial values at the
        first node, so zeta(-1) = eta(+1) = 1 exactly.  eta(-1) and zeta(+1)
        are the last panel-end states' values, with the dense output's bits (a
        mirrored side's y' row, unread, keeps its sign)."""
        eta, zeta = (side.combine(side.coefficients.states[-1].T.ravel())[0]
                     for side in (self.eta_sol, self.zeta_sol))
        return np.array([[eta, 1.0], [1.0, zeta]])


def _basis_integrals(theta: np.ndarray) -> np.ndarray:
    """a_j(theta) = integral_0^theta l_j for the Lagrange basis l_j on the
    stage nodes c: the Gauss rule gives l_j = b_j sum_n (2n + 1) P_n(2c_j - 1)
    P_n(2t - 1) exactly, and each Legendre P_n integrates in closed form."""
    legendre = legvander(2.0 * theta - 1.0, _STAGES)
    return (theta[:, None] + 0.5 * (legendre[:, 2:] - legendre[:, :-2]) @ _LEGENDRE) * _WEIGHTS


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared: the
    stage rule below and every composite rule (``_gauss_panels``) read them."""
    rule = leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


# Stage nodes c and weights b on [0, 1], P_n(2c - 1) for 0 < n < _STAGES,
# and the collocation tableau A = a(c).
_NODES, _WEIGHTS = _gauss_rule(_STAGES)
_LEGENDRE = legvander(_NODES, _STAGES - 1)[:, 1:].T
_NODES, _WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
_TABLEAU = _basis_integrals(_NODES)
_TABLEAU_SQ = _TABLEAU @ _TABLEAU


def _panel_count(qmax: float) -> int:
    return max(_MIN_PANELS, math.ceil(2.0 * math.sqrt(qmax)))


@dataclass(frozen=True, eq=False)
class CoefficientSolution:
    """Dense coefficients s -> (y_0..y_{K-1}, y_0'..y_{K-1}'), shape (2K,) +
    shape(s); a mirrored solve runs in t = -s.  (y_k, y_k') at the panel ends
    in t, and y_k'' at each panel's stages (zero past the far end).  The right
    solve of a mirrored pair (``_coefficient_pair``) holds its left solve's
    arrays, read in t = -s.  A pair's solves also hold ``stacked``, of 2K terms:
    y_k, then chi_k of the Dirichlet partner, chi_0 = 0 and chi_0' = 1 at the start."""

    edges: np.ndarray
    states: np.ndarray  # (P + 1, K, 2)
    forcing: np.ndarray  # (P + 1, K, _STAGES)
    mirrored: bool
    stacked: CoefficientSolution | None = None

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        nodes = _dense_nodes(self.edges, (-s if self.mirrored else s).ravel())
        return self.at_nodes(nodes).reshape(-1, *s.shape)

    def at_nodes(self, nodes: tuple) -> np.ndarray:
        """The coefficients at the N points of ``_dense_nodes(self.edges, t)``,
        shape (2K, N): a solve that shares its edges shares the node table."""
        p, theta, a = nodes
        h = self.edges[1] - self.edges[0]
        y, dy = self.states[p].transpose(2, 0, 1)
        if a is not None:  # off the panel ends
            f = self.forcing[p]
            y = y + (h * theta)[:, None] * dy + h * h * np.einsum("ns,nks->nk", a[1], f)
            dy = dy + h * np.einsum("ns,nks->nk", a[0], f)
        return np.concatenate([y, -dy if self.mirrored else dy], axis=1).T


def _dense_nodes(edges: np.ndarray, t: np.ndarray) -> tuple:
    """Where the points t fall on the panel ends: each one's panel p and
    theta = (t - edges[p]) / h, and, when any theta > 0, the basis integrals
    a(theta) and a(theta) A of the dense output."""
    p = np.searchsorted(edges[1:], t, side="right")
    theta = (t - edges[p]) / (edges[1] - edges[0])
    if not theta.any():
        return p, theta, None
    a = _basis_integrals(theta)
    return p, theta, (a, a @ _TABLEAU)


def _stage_nodes(profile: CurvatureProfile, centres, what: str):
    """The panel ends of a solve about the centres c and each panel's stage
    nodes; the panel count is set by the largest |c|."""
    panels = _panel_count(profile.sup_gamma**2 / 4.0 + max(map(abs, centres)))
    if panels > MAX_SHOOT_PANELS:
        raise IntegrationError(f"{what} needs {panels:.3g} panels, more than {MAX_SHOOT_PANELS}")
    edges = np.linspace(-1.0, 1.0, panels + 1)
    return edges, edges[:-1, None] + (edges[1] - edges[0]) * _NODES


def _stage_potential(profile: CurvatureProfile, centres, t: np.ndarray) -> np.ndarray:
    """V - c at the stage nodes t for each centre c, shape (C,) + t.shape."""
    return -0.25 * profile.gamma(t) ** 2 - np.reshape(centres, (-1, 1, 1))


def _coefficient_solve(profile: CurvatureProfile, centres, terms: int, what: str,
                       mirrored: bool = False, stages=None,
                       partner: bool = False) -> list[CoefficientSolution]:
    """The Taylor coefficients about each centre c of a stack that shares one
    panel count, y_k'' = (V - c) y_k - y_{k-1} for k < terms, with y_0 = 1 and
    all other start data zero at s = -1 (+1 when mirrored): the shooting
    solution at c + d is sum_k d^k y_k.  A single centre is a stack of one.
    The stage inverses, lag blocks and panel maps run once on the stack's
    panels laid end to end, the panel recurrence and forcing once per panel
    for the whole stack; each centre gets the arithmetic of a stack of one.
    ``stages``, when given, is the panel ends and the stage potential (in
    t = -s when mirrored) that ``_stage_nodes`` and ``_stage_potential`` give.
    With ``partner`` the start data y_0' = 1 of the Dirichlet partner step
    through the same panel maps, and each solution holds both as ``stacked``."""
    if stages is None:
        edges, t = _stage_nodes(profile, centres, what)
        stages = edges, _stage_potential(profile, centres, -t if mirrored else t)
    edges, q = stages
    count, panels, h = len(q), len(edges) - 1, edges[1] - edges[0]
    q = q.reshape(count * panels, _STAGES)
    # Term k's stage values from its start data and term k - 1's stages:
    # (I - h^2 A^2 diag q) Y_k = y_k + h c y_k' - h^2 A^2 Y_{k-1}.
    inv = np.linalg.inv(np.eye(_STAGES) - h * h * _TABLEAU_SQ * q[:, None, :])
    stages = [inv @ np.stack([np.ones(_STAGES), h * _NODES], axis=1)]
    for _ in range(1, terms):
        stages.append(-h * h * inv @ (_TABLEAU_SQ @ stages[-1]))
    # y'' at the stages of term j + l from the start data of term j, block
    # lower-triangular Toeplitz in (k, j): the stage y'' are response @ state.
    blocks = np.stack([q[..., None] * y - prev for y, prev in zip(stages, [0.0] + stages)])
    # The panel map: y(1) = y + h y' + h^2 (b (1 - c)) . F, y'(1) = y' + h b . F,
    # formed once per lag l and written to the blocks (k, k - l).
    ends = np.stack([h * h * _WEIGHTS * (1.0 - _NODES), h * _WEIGHTS])
    lag_maps = np.einsum("is,lpsn->lpin", ends, blocks)
    maps = np.zeros((count * panels, terms, 2, terms, 2), dtype=q.dtype)
    response = np.zeros((count * panels, terms, _STAGES, terms, 2), dtype=q.dtype)
    for lag in range(terms):  # the diagonal views (k, k - lag), written through
        np.einsum("pkikn->pkin", maps[:, lag:, :, :terms - lag])[...] = lag_maps[lag][:, None]
        np.einsum("pkskn->pksn", response[:, lag:, :, :terms - lag])[...] = blocks[lag][:, None]
    maps = maps.reshape(count, panels, 2 * terms, 2 * terms)
    maps += np.kron(np.eye(terms), [[1.0, h], [0.0, 1.0]])
    response = response.reshape(count * panels, terms * _STAGES, -1)
    solves = []
    for start in (0, 1)[:1 + partner]:  # y_0 = 1, then y_0' = 1; one product each keeps y's bits
        states = np.zeros((panels + 1, count, 2 * terms), dtype=q.dtype)
        states[0, :, start] = 1.0
        views = list(states[..., None])  # each panel end's states, written in place
        with np.errstate(over="ignore", invalid="ignore"):
            for m, y, y_next in zip(maps.transpose(1, 0, 2, 3), views, views[1:]):
                np.matmul(m, y, out=y_next)  # one matrix-vector product per centre
            states = np.ascontiguousarray(states.transpose(1, 0, 2))
            forcing = response @ states[:, :-1].reshape(count * panels, -1, 1)
        forcing = np.pad(forcing.reshape(count, panels, terms, _STAGES),
                         ((0, 0), (0, 1), (0, 0), (0, 0)))
        if not (np.isfinite(states).all() and np.isfinite(forcing).all()):
            raise IntegrationError(f"{what} overflowed")
        solves.append((states.reshape(count, panels + 1, terms, 2), forcing))
    stacked = [None] * count
    if partner:
        ys, fs = (np.concatenate(pair, axis=2) for pair in zip(*solves))
        stacked = [CoefficientSolution(edges, ys[c], fs[c], mirrored) for c in range(count)]
    ys, fs = solves[0]
    return [CoefficientSolution(edges, ys[c], fs[c], mirrored, stacked[c]) for c in range(count)]


def _coefficient_pair(profile: CurvatureProfile, centre, terms: int, what: str):
    """The left and the mirrored right coefficient solves about c, each with
    its Dirichlet partner.  When the right's stage potential is the left's bit
    for bit (every even profile), its solve would repeat the left's
    arithmetic, so it is one solve: the right shares the left's edges, states
    and forcing, and its partner the left's partner's, read in t = -s."""
    edges, t = _stage_nodes(profile, [centre], what)
    q_left, q_right = (_stage_potential(profile, [centre], x) for x in (t, -t))
    left = _coefficient_solve(profile, [centre], terms, what, False, (edges, q_left), True)[0]
    if q_left.tobytes() != q_right.tobytes():
        return left, _coefficient_solve(profile, [centre], terms, what, True, (edges, q_right),
                                        True)[0]
    stacked = CoefficientSolution(left.edges, left.stacked.states, left.stacked.forcing, True)
    return left, CoefficientSolution(left.edges, left.states, left.forcing, True, stacked)


def shoot(profile: CurvatureProfile, z: complex) -> ShootingSolution:
    """Both shooting solutions with dense output over [-1, 1]: the 1-term
    coefficient solves about z, each a series with the one power d^0 = 1."""
    z = complex(z)
    left, right = _coefficient_pair(profile, z, 1, f"shooting at z={z}")
    # At s = +1 the right solution is exactly (1, 0), so Wv = zeta'(+1).
    one = np.ones(1)
    return ShootingSolution(z, _TaylorSide(left, one), _TaylorSide(right, one),
                            complex(left.states[-1, 0, 1]), complex(left.stacked.states[-1, 1, 0]),
                            left.edges)


@dataclass(frozen=True)
class _TaylorSide:
    """One shooting solution at c + d: s -> (y, y') from the dense
    coefficients (y_0..y_{K-1}, y_0'..y_{K-1}') about c and the powers
    d^0..d^(K-1)."""

    coefficients: CoefficientSolution
    powers: np.ndarray

    def __call__(self, s):
        return self.combine(self.coefficients(s))

    def combine(self, y):
        """(y, y') from the coefficient values ``self.coefficients(s)``."""
        return self.contract(self.table(y)).reshape(2, *y.shape[1:])

    def table(self, y) -> np.ndarray:
        """The coefficient values ``self.coefficients(s)`` at N points as the
        (K, 2N) matrix that ``contract`` multiplies by the powers, cast as the
        product casts it, so a caller that holds it for fixed s pays only that
        product.  The layout is tensordot's: a copy in C order for N > 1, a
        transposed view for N = 1, whose product rounds differently."""
        terms = len(self.powers)
        y = y.reshape(2, terms, -1).transpose(1, 0, 2).reshape(terms, -1)
        return y.astype(np.result_type(self.powers, y), copy=False)

    def contract(self, table: np.ndarray) -> np.ndarray:
        """(y, y') at the N points of ``table``, shape (2, N)."""
        return np.dot(self.powers[None], table).reshape(2, -1)


@dataclass(frozen=True)
class TaylorShooting:
    """The Taylor coefficients in w of both shooting solutions of a profile.

    ``left`` and ``right`` are the dense solutions of the real coefficient
    systems of zeta and eta; ``eta_start``, ``zeta_end``, ``wronskian`` and
    ``dirichlet`` hold eta_k(-1), zeta_k(+1), W_k = zeta_k'(+1) and D_k =
    chi_k(+1) (``ShootingSolution``), k < SERIES_TERMS.
    """

    left: CoefficientSolution
    right: CoefficientSolution
    eta_start: np.ndarray
    zeta_end: np.ndarray
    wronskian: np.ndarray
    dirichlet: np.ndarray

    def at(self, w: complex) -> ShootingSolution:
        """Both shooting solutions at w as polynomials in w."""
        powers = complex(w) ** np.arange(SERIES_TERMS)
        return ShootingSolution(complex(w), _TaylorSide(self.left, powers),
                                _TaylorSide(self.right, powers), complex(powers @ self.wronskian),
                                complex(powers @ self.dirichlet), self.left.edges)

    def pole_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Residue and regular part of the corner matrix at a pole at w = 0.

        The corners are N(w)/W(w) with N_k = [[eta_k(-1), [k=0]], [[k=0],
        zeta_k(+1)]].  Taking W_0 = 0, they are N_0/(W_1 w) + R0 + O(w) with
        R0 = N_1/W_1 - N_0 W_2/W_1^2.
        """
        n0 = np.array([[self.eta_start[0], 1.0], [1.0, self.zeta_end[0]]])
        n1 = np.diag([self.eta_start[1], self.zeta_end[1]])
        w1, w2 = self.wronskian[1], self.wronskian[2]
        return n0 / w1, n1 / w1 - n0 * (w2 / w1**2)


@lru_cache(maxsize=8)
def taylor_shooting(profile: CurvatureProfile) -> TaylorShooting:
    """The Taylor coefficients of both shooting solutions (cached)."""
    left, right = _coefficient_pair(profile, 0.0, SERIES_TERMS, "the Taylor solve")
    dirichlet = left.stacked.states[-1, SERIES_TERMS:, 0]
    arrays = (right.states[-1, :, 0], *left.states[-1].T, dirichlet)
    for arr in (*arrays, left.edges):
        arr.setflags(write=False)
    return TaylorShooting(left, right, *arrays)


def wronskian_values(solution: ShootingSolution, s) -> np.ndarray:
    """eta*zeta' - zeta*eta' sampled at s; constant in exact arithmetic."""
    s = np.asarray(s)
    zl = solution.zeta_sol(s)
    et = solution.eta_sol(s)
    return et[0] * zl[1] - zl[0] * et[1]


def _free_eigenvalue(n):
    """Neumann eigenvalue ((n-1) pi / 2)^2 of the zero-potential problem."""
    return ((n - 1) * np.pi / 2.0) ** 2


def _free_mode_values(s: np.ndarray, n_basis: int) -> np.ndarray:
    """Matrix of the Neumann cosine modes, shape (len(s), n_basis)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.cos(np.arange(n_basis) * np.pi * (s[:, None] + 1.0) / 2.0)
    out[:, 0] = 1.0 / math.sqrt(2.0)
    return out


def _gauss_panels(lo: np.ndarray, hi: np.ndarray, order: int):
    """Gauss-Legendre nodes and weights of the given order on each panel
    [lo_i, hi_i], as two arrays of shape (panels, order)."""
    nodes, weights = _gauss_rule(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * nodes[None, :], half[:, None] * weights[None, :]


def _panel_nodes(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b], flattened."""
    edges = np.linspace(a, b, panels + 1)
    pts, wts = _gauss_panels(edges[:-1], edges[1:], order)
    return pts.ravel(), wts.ravel()


def _galerkin_matrices(profile: CurvatureProfile, n_modes: int):
    """The Galerkin Hamiltonian for the lowest ``n_modes`` eigenpairs as P + diag(mu):
    P the matrix of V = -gamma^2/4 in n_modes + 60 cosines w_j cos(j x), x = pi (s + 1)/2
    and w_0 = 1/sqrt 2 (else 1), mu their free Neumann eigenvalues.  By 2 cos(jx) cos(kx)
    = cos((j - k) x) + cos((j + k) x), P_jk = w_j w_k (c_|j-k| + c_(j+k))/2 is Toeplitz plus
    Hankel in the moments c_m = integral V cos(m x) ds: one DCT-I (the rfft of the even
    extension of V) on N >= 4 n_basis equal x-steps, a trapezoid rule, which converges
    faster than any power for V smooth with support inside (-1, 1)."""
    n_basis = n_modes + 60
    n = max(1024, 1 << (4 * n_basis - 1).bit_length())
    v = -0.25 * profile.gamma(np.linspace(-1.0, 1.0, n + 1)) ** 2
    c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
    j = np.arange(n_basis)
    w = np.where(j > 0, 1.0, math.sqrt(0.5))
    potential = np.outer(w, 0.5 * w) * (c[np.abs(j[:, None] - j)] + c[j[:, None] + j])
    return potential, _free_eigenvalue(j + 1)


@lru_cache(maxsize=8)
def _galerkin_eigenpairs(profile: CurvatureProfile, n_modes: int):
    """Lowest ``n_modes`` eigenpairs of the vertex Hamiltonian in the cosine basis.

    Returns read-only (lams, coef, n_basis, mu): the eigenvalues, their
    coefficient columns in the orthonormal cosine basis of size n_basis,
    and the free Neumann eigenvalues mu of that basis.
    """
    potential, mu = _galerkin_matrices(profile, n_modes)
    lams, coef = np.linalg.eigh(potential + np.diag(mu))
    coef = coef[:, :n_modes]
    # Align eigenvector signs with the free modes they perturb.
    np.negative(coef, out=coef, where=coef.diagonal() < 0)
    out = (lams[:n_modes], coef, mu)
    for arr in out:
        arr.setflags(write=False)
    return out[0], out[1], len(mu), out[2]


@dataclass(frozen=True)
class EigenFunction:
    """Normalised eigenfunction: the left shooting solution at its eigenvalue,
    sum_j d^j zeta_j from its 4-term solve.  Its end values are the first and
    last panel-end states, read as ``ShootingSolution.corner_numerator`` reads
    them, with the dense output's bits."""

    n: int
    lam: float
    _sol: _TaylorSide
    scale: float  # 1 / ||zeta||; zeta(-1) = 1 fixes the sign
    derivative_norm: float  # ||y'||, by the Gauss rule on its solve's stage nodes

    def value(self, s):
        return self._sol(np.asarray(s))[0] * self.scale

    def derivative(self, s):
        return self._sol(np.asarray(s))[1] * self.scale

    @property
    def at_minus1(self) -> float:
        return float(self._sol.combine(self._sol.coefficients.states[0].T.ravel())[0] * self.scale)

    @property
    def at_plus1(self) -> float:
        return float(self._sol.combine(self._sol.coefficients.states[-1].T.ravel())[0] * self.scale)


def _wronskian_root(wr: np.ndarray, galerkin: np.ndarray, k: int) -> float:
    """The root d of W(g + d) = sum_j W_j d^j next to g = ``galerkin[k]``:
    Newton steps from d = 0, each within half the gap to a neighbouring
    Galerkin eigenvalue (the lowest one borrows the gap above it)."""
    g = float(galerkin[k])
    upper = 0.5 * float(galerkin[k + 1] - g)
    lower = 0.5 * float(g - galerkin[k - 1]) if k > 0 else upper
    slope = wr[1:] * np.arange(1, _EIGEN_TERMS)
    d = 0.0
    for _ in range(_NEWTON_STEPS):
        step = polyval(d, wr) / polyval(d, slope)
        d -= step
        if not -lower <= d <= upper:
            break
        if abs(step) <= _NEWTON_TOL * max(1.0, abs(g)):
            return d
    raise SpectrumError(f"no shooting root within the Galerkin gap around "
                        f"eigenvalue {k + 1} ({g:.6g})")


def _eigenpairs(profile: CurvatureProfile, galerkin: np.ndarray) -> tuple[EigenFunction, ...]:
    """The eigenpairs next to the Galerkin eigenvalues g = ``galerkin[:-1]``: one
    stacked solve of _EIGEN_TERMS coefficients per panel count, the root d of
    each W(g + d) = sum_j W_j d^j, W_j = zeta_j'(+1), and the eigenfunction
    sum_j d^j zeta_j, normalised on one node table per panel count (the Gauss
    nodes, their panels and basis integrals), as is the norm of its derivative."""
    sup_v = profile.sup_gamma**2 / 4.0
    groups: dict[int, list[int]] = {}
    for k in range(len(galerkin) - 1):
        groups.setdefault(_panel_count(sup_v + abs(float(galerkin[k]))), []).append(k)
    funcs = {}
    for panels, ks in groups.items():
        sols = _coefficient_solve(profile, [float(galerkin[k]) for k in ks], _EIGEN_TERMS,
                                  f"the solve of eigenvalues {', '.join(str(k + 1) for k in ks)}")
        rule = _panel_nodes(-1.0, 1.0, panels, _STAGES)
        nodes = _dense_nodes(sols[0].edges, rule[0])
        for k, sol in zip(ks, sols):
            d = _wronskian_root(sol.states[-1, :, 1], galerkin, k)
            side = _TaylorSide(sol, d ** np.arange(_EIGEN_TERMS))
            vals, slopes = side.combine(sol.at_nodes(nodes))
            scale = 1.0 / math.sqrt(rule[1] @ (vals * vals))
            funcs[k] = EigenFunction(k + 1, float(galerkin[k]) + d, side, scale,
                                     float(np.sqrt(rule[1] @ (slopes * scale) ** 2)))
    return tuple(funcs[k] for k in range(len(galerkin) - 1))


def eigenvalue_by_index(profile: CurvatureProfile, index: int) -> float:
    """The index-th eigenvalue (1-based), 1 <= index <= MAX_EIGENVALUE_COUNT:
    the last of the cached first ``index``."""
    if not 1 <= index <= MAX_EIGENVALUE_COUNT:
        raise ValueError(f"index must lie in [1, {MAX_EIGENVALUE_COUNT}], got {index}")
    return _shooting_eigenpairs(profile, index)[0][index - 1]


@dataclass(frozen=True)
class CaseLabel:
    """Generic (decoupling) vs resonant (weighted Kirchhoff) label."""

    resonant: bool
    n_star: int | None = None  # 1-based index of the zero eigenvalue
    alpha1: float | None = None
    alpha2: float | None = None


@dataclass(frozen=True)
class VertexSpectrum:
    """Eigenvalues, eigenfunctions and the resonance classification: the
    n-th eigenfunction is ``functions[n - 1]``, and a resonant case's
    zero-mode ``functions[case.n_star - 1]``."""

    eigenvalues: np.ndarray
    functions: tuple[EigenFunction, ...]
    case: CaseLabel


@lru_cache(maxsize=64)
def _shooting_eigenpairs(profile: CurvatureProfile, count: int):
    """The first ``count`` shooting eigenvalues (read-only) and eigenfunctions,
    from the (count + 1)-mode Galerkin eigenvalues (``_eigenpairs``)."""
    funcs = _eigenpairs(profile, _galerkin_eigenpairs(profile, count + 1)[0])
    lams = np.array([fn.lam for fn in funcs])
    lams.setflags(write=False)
    return lams, funcs


def check_zero_tolerance(zero_tolerance: float, error: type = ValueError) -> None:
    """Raise ``error`` unless the tolerance is finite and >= 0: a negative or
    NaN one calls every spectrum generic, an infinite one every resonant."""
    if not 0.0 <= zero_tolerance < math.inf:
        raise error(f"zero tolerance must be finite and >= 0, got {zero_tolerance}")


def eigenvalues(profile: CurvatureProfile, count: int,
                zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> VertexSpectrum:
    """First ``count`` eigenpairs, ordered, with resonance classification.

    The eigenpairs are solved once per (profile, count); the tolerance
    only thresholds them.
    """
    if not 1 <= count <= MAX_EIGENVALUE_COUNT:
        raise ValueError(f"count must lie in [1, {MAX_EIGENVALUE_COUNT}], got {count}")
    check_zero_tolerance(zero_tolerance)
    lams, funcs = _shooting_eigenpairs(profile, count)
    # Strict threshold: resonant only if the smallest |lambda| is within tolerance.
    k = int(np.argmin(np.abs(lams)))
    case = CaseLabel(False)
    if abs(lams[k]) <= zero_tolerance:
        case = CaseLabel(True, k + 1, funcs[k].at_minus1, funcs[k].at_plus1)
    return VertexSpectrum(lams, funcs, case)


def classify_case(spectrum: VertexSpectrum) -> CaseLabel:
    """The classification stored on a computed spectrum."""
    return spectrum.case


def _count_for_classification(profile: CurvatureProfile) -> int:
    """Eigenvalues needed to cover [-sup(gamma^2/4), 1]."""
    sup_v = profile.sup_gamma**2 / 4.0
    n = 2
    while _free_eigenvalue(n) - sup_v <= 1.0:
        n += 1
    return n


def classify(profile: CurvatureProfile,
             zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> CaseLabel:
    """Classification with an automatically sufficient eigenvalue count."""
    return spectrum_for_case(profile, zero_tolerance).case


def spectrum_for_case(profile: CurvatureProfile,
                      zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> VertexSpectrum:
    """Spectrum with enough eigenvalues for classification (cached)."""
    return eigenvalues(profile, _count_for_classification(profile), zero_tolerance)
