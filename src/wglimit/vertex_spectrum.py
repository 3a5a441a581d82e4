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
eigenvalue (the eigendata the series kernel uses).  The eigenvalue is
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
    when shot, SERIES_TERMS about 0 from ``taylor_shooting``.
    """

    z: complex
    zeta_sol: _TaylorSide  # s -> (zeta, zeta') at s
    eta_sol: _TaylorSide
    wronskian: complex
    mesh: np.ndarray

    def zeta(self, s):
        """zeta values at s (vectorised)."""
        return self.zeta_sol(np.asarray(s))[0]

    def zeta_prime(self, s):
        return self.zeta_sol(np.asarray(s))[1]

    def eta(self, s):
        return self.eta_sol(np.asarray(s))[0]

    def eta_prime(self, s):
        return self.eta_sol(np.asarray(s))[1]

    def value(self, s, sp):
        """The kernel r(z; s, s') over broadcast s, s' (a complex for scalars), from zeta
        and eta run once per distinct min/max value; each entry has a one-point call's bits."""
        lo, hi = np.minimum(s, sp), np.maximum(s, sp)
        pts, inv = np.unique(np.stack([lo, hi]), return_inverse=True)
        i, j = inv.reshape(2, *lo.shape)
        out = self.zeta(pts)[i] * self.eta(pts)[j] / self.wronskian
        return complex(out) if out.ndim == 0 else out

    def s_derivative(self, s, endpoint: int):
        """d/ds r(z; s, endpoint) from the stored shooting derivatives."""
        if endpoint not in (-1, 1):
            raise ValueError("endpoint must be -1 or +1")
        s = np.asarray(s, dtype=float)
        prime = self.zeta_prime if endpoint == 1 else self.eta_prime
        out = np.asarray(prime(s.ravel()) / self.wronskian).reshape(s.shape)
        return complex(out) if out.ndim == 0 else out

    def corners(self) -> np.ndarray:
        """The 2x2 matrix r(z; +-1, +-1).  The dense output returns the
        initial values at the first node, so zeta(-1) = eta(+1) = 1 exactly."""
        return np.array([[self.eta(-1.0), 1.0], [1.0, self.zeta(1.0)]]) / self.wronskian


def _basis_integrals(theta: np.ndarray) -> np.ndarray:
    """a_j(theta) = integral_0^theta l_j for the Lagrange basis l_j on the
    stage nodes c: the Gauss rule gives l_j = b_j sum_n (2n + 1) P_n(2c_j - 1)
    P_n(2t - 1) exactly, and each Legendre P_n integrates in closed form."""
    legendre = legvander(2.0 * theta - 1.0, _STAGES)
    return (theta[:, None] + 0.5 * (legendre[:, 2:] - legendre[:, :-2]) @ _LEGENDRE) * _WEIGHTS


# Stage nodes c and weights b on [0, 1], P_n(2c - 1) for 0 < n < _STAGES,
# and the collocation tableau A = a(c).
_NODES, _WEIGHTS = leggauss(_STAGES)
_LEGENDRE = legvander(_NODES, _STAGES - 1)[:, 1:].T
_NODES, _WEIGHTS = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
_TABLEAU = _basis_integrals(_NODES)
_TABLEAU_SQ = _TABLEAU @ _TABLEAU
_gauss_rule = lru_cache(maxsize=None)(leggauss)  # callers only read the arrays


def _panel_count(qmax: float) -> int:
    return max(_MIN_PANELS, math.ceil(2.0 * math.sqrt(qmax)))


@dataclass(frozen=True, eq=False)
class CoefficientSolution:
    """Dense coefficients s -> (y_0..y_{K-1}, y_0'..y_{K-1}'), shape (2K,) +
    shape(s); a mirrored solve runs in t = -s.  (y_k, y_k') at the panel ends
    in t, and y_k'' at each panel's stages (zero past the far end)."""

    edges: np.ndarray
    states: np.ndarray  # (P + 1, K, 2)
    forcing: np.ndarray  # (P + 1, K, _STAGES)
    mirrored: bool

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        t = (-s if self.mirrored else s).ravel()
        p = np.searchsorted(self.edges[1:], t, side="right")
        h = self.edges[1] - self.edges[0]
        theta = (t - self.edges[p]) / h
        y, dy = self.states[p].transpose(2, 0, 1)
        if theta.any():  # off the panel ends
            a, f = _basis_integrals(theta), self.forcing[p]
            y = y + (h * theta)[:, None] * dy + h * h * np.einsum("ns,nks->nk", a @ _TABLEAU, f)
            dy = dy + h * np.einsum("ns,nks->nk", a, f)
        return np.concatenate([y, -dy if self.mirrored else dy], axis=1).T.reshape(-1, *s.shape)


def _coefficient_solve(profile: CurvatureProfile, centre, terms: int, what: str,
                       mirrored: bool = False) -> CoefficientSolution:
    """The Taylor coefficients about c, y_k'' = (V - c) y_k - y_{k-1} for
    k < terms, with y_0 = 1 and all other start data zero at s = -1 (+1
    when mirrored): the shooting solution at c + d is sum_k d^k y_k."""
    panels = _panel_count(profile.sup_gamma**2 / 4.0 + abs(centre))
    if panels > MAX_SHOOT_PANELS:
        raise IntegrationError(f"{what} needs {panels} panels, more than {MAX_SHOOT_PANELS}")
    edges = np.linspace(-1.0, 1.0, panels + 1)
    h = edges[1] - edges[0]
    t = edges[:-1, None] + h * _NODES
    q = -0.25 * profile.gamma(-t if mirrored else t) ** 2 - centre
    # Term k's stage values from its start data and term k - 1's stages:
    # (I - h^2 A^2 diag q) Y_k = y_k + h c y_k' - h^2 A^2 Y_{k-1}.
    inv = np.linalg.inv(np.eye(_STAGES) - h * h * _TABLEAU_SQ * q[:, None, :])
    stages = [inv @ np.stack([np.ones(_STAGES), h * _NODES], axis=1)]
    for _ in range(1, terms):
        stages.append(-h * h * inv @ (_TABLEAU_SQ @ stages[-1]))
    # y'' at the stages of term j + m from the start data of term j, block
    # lower-triangular Toeplitz in (k, j): the stage y'' are response @ state.
    blocks = [q[..., None] * y - prev for y, prev in zip(stages, [0.0] + stages)]
    lag = np.subtract.outer(np.arange(terms), np.arange(terms))
    response = np.stack(blocks + [0.0 * blocks[0]])[np.where(lag < 0, terms, lag)]
    response = response.transpose(2, 0, 3, 1, 4)  # (P, K, stage, K, 2)
    # The panel map: y(1) = y + h y' + h^2 (b (1 - c)) . F, y'(1) = y' + h b . F.
    ends = np.stack([h * h * _WEIGHTS * (1.0 - _NODES), h * _WEIGHTS])
    maps = np.einsum("is,pksjn->pkijn", ends, response).reshape(panels, 2 * terms, 2 * terms)
    maps += np.kron(np.eye(terms), [[1.0, h], [0.0, 1.0]])
    states = np.zeros((panels + 1, 2 * terms), dtype=q.dtype)
    states[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(panels):
            states[p + 1] = maps[p] @ states[p]
        forcing = response.reshape(panels, terms * _STAGES, -1) @ states[:-1, :, None]
    forcing = np.pad(forcing.reshape(panels, terms, _STAGES), ((0, 1), (0, 0), (0, 0)))
    if not (np.isfinite(states).all() and np.isfinite(forcing).all()):
        raise IntegrationError(f"{what} overflowed")
    return CoefficientSolution(edges, states.reshape(panels + 1, terms, 2), forcing, mirrored)


def shoot(profile: CurvatureProfile, z: complex) -> ShootingSolution:
    """Both shooting solutions with dense output over [-1, 1]: the 1-term
    coefficient solves about z, each a series with the one power d^0 = 1."""
    z = complex(z)
    left, right = (_coefficient_solve(profile, z, 1, f"shooting at z={z}", mirrored)
                   for mirrored in (False, True))
    # At s = +1 the right solution is exactly (1, 0), so Wv = zeta'(+1).
    one = np.ones(1)
    return ShootingSolution(z, _TaylorSide(left, one), _TaylorSide(right, one),
                            complex(left.states[-1, 0, 1]), left.edges)


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
        """(y, y') from the coefficient values ``self.coefficients(s)``, so a
        caller that holds them for fixed s pays only the sum over powers."""
        y = y.reshape(2, len(self.powers), *y.shape[1:])
        return np.tensordot(self.powers, y, axes=(0, 1))


@dataclass(frozen=True)
class TaylorShooting:
    """The Taylor coefficients in w of both shooting solutions of a profile.

    ``left`` and ``right`` are the dense solutions of the real coefficient
    systems of zeta and eta; ``eta_start``, ``zeta_end`` and ``wronskian``
    hold eta_k(-1), zeta_k(+1) and W_k = zeta_k'(+1), k < SERIES_TERMS.
    """

    left: CoefficientSolution
    right: CoefficientSolution
    eta_start: np.ndarray
    zeta_end: np.ndarray
    wronskian: np.ndarray

    def at(self, w: complex) -> ShootingSolution:
        """Both shooting solutions at w as polynomials in w."""
        powers = complex(w) ** np.arange(SERIES_TERMS)
        return ShootingSolution(complex(w), _TaylorSide(self.left, powers),
                                _TaylorSide(self.right, powers),
                                complex(powers @ self.wronskian), self.left.edges)

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
    left, right = (_coefficient_solve(profile, 0.0, SERIES_TERMS, "the Taylor solve", mirrored)
                   for mirrored in (False, True))
    arrays = (right.states[-1, :, 0], *left.states[-1].T)
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


@lru_cache(maxsize=4)
def _galerkin_basis(n_basis: int):
    """The Galerkin rule (200 panels of 10 Gauss nodes) and the cosine basis on it."""
    pts, wts = _panel_nodes(-1.0, 1.0, 200, 10)
    return pts, wts, _free_mode_values(pts, n_basis)


def _galerkin_matrices(profile: CurvatureProfile, n_modes: int):
    """The Galerkin Hamiltonian for the lowest ``n_modes`` eigenpairs as P + diag(mu):
    P the matrix of the potential -gamma^2/4 in n_modes + 60 cosines, mu their free
    Neumann eigenvalues."""
    n_basis = n_modes + 60
    pts, wts, basis = _galerkin_basis(n_basis)
    v = -0.25 * profile.gamma(pts) ** 2
    return basis.T @ (basis * (wts * v)[:, None]), _free_eigenvalue(np.arange(1, n_basis + 1))


@lru_cache(maxsize=8)
def _galerkin_eigenpairs(profile: CurvatureProfile, n_modes: int):
    """Lowest ``n_modes`` eigenpairs of the vertex Hamiltonian in the cosine basis.

    Returns read-only (lams, coef, n_basis, mu): the eigenvalues, their
    coefficient columns in the orthonormal cosine basis of size n_basis,
    and the free Neumann eigenvalues mu of that basis.
    """
    potential, mu = _galerkin_matrices(profile, n_modes)
    lams, coef = np.linalg.eigh(potential + np.diag(mu))
    n_basis = len(mu)
    # Align eigenvector signs with the free modes they perturb.
    for n in range(n_basis):
        if coef[n, n] < 0:
            coef[:, n] = -coef[:, n]
    out = (lams[:n_modes], coef[:, :n_modes], mu)
    for arr in out:
        arr.setflags(write=False)
    return out[0], out[1], n_basis, out[2]


@dataclass(frozen=True)
class EigenFunction:
    """Normalised eigenfunction: the left shooting solution at its eigenvalue."""

    n: int
    lam: float
    _sol: _TaylorSide
    scale: float  # 1 / ||zeta||; zeta(-1) = 1 fixes the sign
    rule: tuple  # Gauss nodes and weights on [-1, 1]: its solve's stage nodes

    def value(self, s):
        return self._sol(np.asarray(s))[0] * self.scale

    def derivative(self, s):
        return self._sol(np.asarray(s))[1] * self.scale

    @property
    def at_minus1(self) -> float:
        return float(self.value(-1.0))

    @property
    def at_plus1(self) -> float:
        return float(self.value(1.0))


def _eigenfunction(n: int, lam: float, side: _TaylorSide) -> EigenFunction:
    """Normalise zeta by its stage values and Gauss weights."""
    rule = _panel_nodes(-1.0, 1.0, len(side.coefficients.edges) - 1, _STAGES)
    vals = side(rule[0])[0]
    return EigenFunction(n, lam, side, 1.0 / math.sqrt(rule[1] @ (vals * vals)), rule)


def _eigenpair(profile: CurvatureProfile, galerkin: np.ndarray, k: int) -> EigenFunction:
    """Eigenpair next to the Galerkin eigenvalue g = ``galerkin[k]``.

    One dense solve of _EIGEN_TERMS coefficients about g gives the
    Wronskian W(g + d) = sum_j W_j d^j, W_j = zeta_j'(+1).  Newton steps
    from d = 0 take its root, and every step must stay within half the
    gap to a neighbouring Galerkin eigenvalue (the lowest one borrows the
    gap above it).  The eigenfunction is sum_j d^j zeta_j from the same
    solve.
    """
    g = float(galerkin[k])
    upper = 0.5 * float(galerkin[k + 1] - g)
    lower = 0.5 * float(g - galerkin[k - 1]) if k > 0 else upper
    sol = _coefficient_solve(profile, g, _EIGEN_TERMS, f"the eigenvalue {k + 1} solve")
    wr = sol.states[-1, :, 1]
    slope = wr[1:] * np.arange(1, _EIGEN_TERMS)
    d = 0.0
    for _ in range(_NEWTON_STEPS):
        step = polyval(d, wr) / polyval(d, slope)
        d -= step
        if not -lower <= d <= upper:
            break
        if abs(step) <= _NEWTON_TOL * max(1.0, abs(g)):
            return _eigenfunction(k + 1, g + d,
                                  _TaylorSide(sol, d ** np.arange(_EIGEN_TERMS)))
    raise SpectrumError(f"no shooting root within the Galerkin gap around "
                        f"eigenvalue {k + 1} ({g:.6g})")


def eigenvalue_by_index(profile: CurvatureProfile, index: int) -> float:
    """The index-th eigenvalue alone (1-based)."""
    if index < 1:
        raise ValueError("index must be >= 1")
    galerkin = _galerkin_eigenpairs(profile, index + 1)[0]
    return _eigenpair(profile, galerkin, index - 1).lam


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
    """The first ``count`` shooting eigenvalues (read-only) and eigenfunctions."""
    galerkin = _galerkin_eigenpairs(profile, count + 1)[0]
    funcs = tuple(_eigenpair(profile, galerkin, k) for k in range(count))
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
