"""Neumann Sturm-Liouville spectrum of the effective vertex Hamiltonian.

The operator is  h = -d^2/ds^2 - gamma(s)^2/4  on (-1, 1) with Neumann
ends.  Two shooting solutions are integrated,

    zeta:  zeta(-1) = 1, zeta'(-1) = 0   (left-normalised),
    eta:   eta(1)  = 1, eta'(1)  = 0     (right-normalised),

whose s-independent Wronskian  Wv = eta*zeta' - zeta*eta'  vanishes
exactly at the eigenvalues.  With these initial conditions Wv equals
zeta'(+1), which is the classical shooting function.

Eigenvalues are located by a cosine-Galerkin diagonalisation of h (the
same eigendata the series kernel uses) and polished on the shooting
function: each Galerkin value, accurate to ~1e-11, is bracketed by a
sign change of the adaptive high-order Wronskian within half the gap to
its neighbours, and the root is taken inside that bracket.  Reported
eigenvalues are therefore shooting roots, and the Galerkin count fixes
their order.

Eigenfunctions are the normalised zeta at the root; their boundary
values alpha1 = y(-1), alpha2 = y(+1) feed the weighted Kirchhoff
projector when zero is (numerically) an eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import roots_legendre

from .profile import CurvatureProfile

__all__ = [
    "EigenFunction",
    "IntegrationError",
    "SpectrumError",
    "ShootingSolution",
    "VertexSpectrum",
    "CaseLabel",
    "classify",
    "classify_case",
    "eigenvalue_by_index",
    "eigenvalues",
    "shoot",
    "wronskian_values",
]

DEFAULT_ZERO_TOLERANCE = 1e-9
# Points of the uniform Simpson grid on [-1, 1] for eigenfunction norms.
VERTEX_GRID_POINTS = 4001
_SHOOT_RTOL = 1e-10
_SHOOT_ATOL = 1e-13
_REFINE_RTOL = 1e-12
_REFINE_ATOL = 1e-14
# Right-hand-side evaluations allowed per integration.  The work grows like
# sqrt(|z|); the largest solve of the test suite and the README examples
# takes under 2000.  The cap admits |z| up to about 1.1e6 at _SHOOT_RTOL and
# eigenvalues up to about 5.6e5 (the first 477) at _REFINE_RTOL.
MAX_SHOOT_NFEV = 100_000
# Largest eigenvalues() count.  The work per eigenvalue grows like its index:
# 50 on bump:0.5 takes about 12 s on a 2-core VM; the shooting cap admits 477.
MAX_EIGENVALUE_COUNT = 50
# Initial relative half-width of the shooting bracket around a Galerkin
# eigenvalue; the two agree to ~1e-11.
_POLISH_START = 1e-9


class IntegrationError(RuntimeError):
    """The shooting integrator failed (step underflow or stiffness)."""


class SpectrumError(RuntimeError):
    """Eigenvalue search could not locate the requested spectrum."""


@dataclass(frozen=True)
class ShootingSolution:
    """Dense shooting output at one complex spectral parameter.

    Away from the eigenvalues it is the vertex kernel
    r(z; s, s') = zeta(min(s, s')) eta(max(s, s')) / Wv.
    """

    z: complex
    zeta_sol: object  # scipy OdeSolution for (zeta, zeta')
    eta_sol: object
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
        """The kernel r(z; s, s') (vectorised over broadcast s, s')."""
        s = np.asarray(s, dtype=float)
        sp = np.asarray(sp, dtype=float)
        lo, hi = np.broadcast_arrays(np.minimum(s, sp), np.maximum(s, sp))
        out = self.zeta(lo.ravel()) * self.eta(hi.ravel()) / self.wronskian
        out = np.asarray(out).reshape(lo.shape)
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


def _integrate(profile: CurvatureProfile, z: complex, s0: float, s1: float,
               rtol: float, atol: float, dense: bool):
    """Integrate  w'' = (-gamma^2/4 - z) w  from s0 to s1 with w(s0)=1, w'(s0)=0,
    in at most MAX_SHOOT_NFEV right-hand-side evaluations."""
    nfev = 0

    def rhs(s, y):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_SHOOT_NFEV:
            raise IntegrationError(f"shooting at z={z} needs more than "
                                   f"{MAX_SHOOT_NFEV} right-hand-side evaluations")
        v = -0.25 * profile.gamma(s) ** 2
        return [y[1], (v - z) * y[0]]

    y0 = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    sol = solve_ivp(rhs, (s0, s1), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense)
    if not sol.success:
        raise IntegrationError(f"shooting failed at z={z}: {sol.message}")
    return sol


def shoot(profile: CurvatureProfile, z: complex,
          rtol: float = _SHOOT_RTOL, atol: float = _SHOOT_ATOL) -> ShootingSolution:
    """Both shooting solutions with dense output over [-1, 1]."""
    left = _integrate(profile, z, -1.0, 1.0, rtol, atol, dense=True)
    right = _integrate(profile, z, 1.0, -1.0, rtol, atol, dense=True)
    # At s = +1 the right solution is exactly (1, 0), so Wv = zeta'(+1).
    wr = complex(left.y[1, -1])
    mesh = np.union1d(left.t, right.t[::-1])
    return ShootingSolution(complex(z), left.sol, right.sol, wr, mesh)


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
    out = np.empty((s.size, n_basis))
    out[:, 0] = 1.0 / math.sqrt(2.0)
    for k in range(2, n_basis + 1):
        out[:, k - 1] = np.cos((k - 1) * np.pi * (s + 1.0) / 2.0)
    return out


def _panel_nodes(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    nodes, weights = roots_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


@lru_cache(maxsize=8)
def _galerkin_eigenpairs(profile: CurvatureProfile, n_modes: int):
    """Lowest ``n_modes`` eigenpairs of the vertex Hamiltonian in the cosine basis.

    Returns read-only (lams, coef, n_basis, mu): the eigenvalues, their
    coefficient columns in the orthonormal cosine basis of size n_basis,
    and the free Neumann eigenvalues mu of that basis.
    """
    n_basis = n_modes + 60
    pts, wts = _panel_nodes(-1.0, 1.0, 200, 10)
    basis = _free_mode_values(pts, n_basis)
    v = -0.25 * profile.gamma(pts) ** 2
    ham = basis.T @ (basis * (wts * v)[:, None])
    mu = _free_eigenvalue(np.arange(1, n_basis + 1))
    ham[np.diag_indices_from(ham)] += mu
    lams, coef = eigh(ham)
    # Align eigenvector signs with the free modes they perturb.
    for n in range(n_basis):
        if coef[n, n] < 0:
            coef[:, n] = -coef[:, n]
    out = (lams[:n_modes], coef[:, :n_modes], mu)
    for arr in out:
        arr.setflags(write=False)
    return out[0], out[1], n_basis, out[2]


def _wronskian_accurate(profile: CurvatureProfile, lam: float) -> float:
    sol = _integrate(profile, lam, -1.0, 1.0, _REFINE_RTOL, _REFINE_ATOL, dense=False)
    return float(sol.y[1, -1].real)


def _polish(profile: CurvatureProfile, galerkin: np.ndarray, k: int) -> float:
    """Shooting root next to the Galerkin eigenvalue ``galerkin[k]``.

    A bracket of relative half-width _POLISH_START around it widens
    tenfold until the Wronskian changes sign, never past the midpoint to
    a neighbouring Galerkin eigenvalue (the lowest one borrows the gap
    above it).  Across the first bracket the Wronskian is linear up to
    O(width^2), far below the integrator noise, so one secant step gives
    the root; a widened bracket is refined by brentq.
    """
    g = float(galerkin[k])
    upper = 0.5 * float(galerkin[k + 1] - g)
    lower = 0.5 * float(g - galerkin[k - 1]) if k > 0 else upper
    start = step = _POLISH_START * max(1.0, abs(g))
    while True:
        a, b = g - min(step, lower), g + min(step, upper)
        fa, fb = _wronskian_accurate(profile, a), _wronskian_accurate(profile, b)
        if fa * fb <= 0.0:
            break
        if step >= max(lower, upper):
            raise SpectrumError(
                f"no shooting root within the Galerkin gap around "
                f"eigenvalue {k + 1} ({g:.6g})")
        step *= 10.0
    if step == start and fa != fb:
        return b - fb * (b - a) / (fb - fa)
    return float(brentq(lambda lam: _wronskian_accurate(profile, lam), a, b,
                        xtol=1e-13, rtol=8.9e-16))


def eigenvalue_by_index(profile: CurvatureProfile, index: int) -> float:
    """The index-th eigenvalue alone (1-based); used by resonance tuning."""
    if index < 1:
        raise ValueError("index must be >= 1")
    galerkin = _galerkin_eigenpairs(profile, index + 1)[0]
    return _polish(profile, galerkin, index - 1)


@dataclass(frozen=True)
class EigenFunction:
    """Normalised eigenfunction built from the left shooting solution."""

    n: int
    lam: float
    _sol: object
    scale: float  # sign/norm applied to zeta

    def value(self, s):
        return self._sol(np.asarray(s))[0].real * self.scale

    def derivative(self, s):
        return self._sol(np.asarray(s))[1].real * self.scale

    @property
    def at_minus1(self) -> float:
        return float(self.value(-1.0))

    @property
    def at_plus1(self) -> float:
        return float(self.value(1.0))


@dataclass(frozen=True)
class CaseLabel:
    """Generic (decoupling) vs resonant (weighted Kirchhoff) label."""

    resonant: bool
    n_star: int | None = None  # 1-based index of the zero eigenvalue
    alpha1: float | None = None
    alpha2: float | None = None


@dataclass(frozen=True)
class VertexSpectrum:
    """Eigenvalues, eigenfunctions and the resonance classification."""

    eigenvalues: np.ndarray
    functions: tuple[EigenFunction, ...]
    case: CaseLabel

    @property
    def resonant(self) -> bool:
        return self.case.resonant

    def eigenfunction(self, n: int) -> EigenFunction:
        return self.functions[n - 1]

    @property
    def star_function(self) -> EigenFunction:
        if not self.case.resonant:
            raise SpectrumError("generic spectrum has no zero-mode")
        return self.functions[self.case.n_star - 1]


def _build_eigenfunction(profile: CurvatureProfile, n: int, lam: float) -> EigenFunction:
    sol = _integrate(profile, lam, -1.0, 1.0, _REFINE_RTOL, _REFINE_ATOL, dense=True)
    grid = np.linspace(-1.0, 1.0, VERTEX_GRID_POINTS)
    vals = sol.sol(grid)[0].real
    norm = float(np.sqrt(simpson(vals * vals, x=grid)))
    # Sign convention: positive at s=-1 when the boundary value is
    # resolvable, else positive at the first resolvable mesh point.
    thresh = 1e-8 * float(np.max(np.abs(vals)))
    anchor = vals[0]
    if abs(anchor) <= thresh:
        idx = np.argmax(np.abs(vals) > thresh)
        anchor = vals[idx]
    sign = 1.0 if anchor > 0 else -1.0
    return EigenFunction(n, lam, sol.sol, sign / norm)


@lru_cache(maxsize=64)
def _shooting_eigenpairs(profile: CurvatureProfile, count: int):
    """The first ``count`` shooting eigenvalues (read-only) and eigenfunctions."""
    galerkin = _galerkin_eigenpairs(profile, count + 1)[0]
    lams = np.array([_polish(profile, galerkin, n) for n in range(count)])
    lams.setflags(write=False)
    return lams, tuple(_build_eigenfunction(profile, n + 1, lams[n]) for n in range(count))


def eigenvalues(profile: CurvatureProfile, count: int,
                zero_tolerance: float = DEFAULT_ZERO_TOLERANCE) -> VertexSpectrum:
    """First ``count`` eigenpairs, ordered, with resonance classification.

    The eigenpairs are solved once per (profile, count); the tolerance
    only thresholds them.
    """
    if not 1 <= count <= MAX_EIGENVALUE_COUNT:
        raise ValueError(f"count must lie in [1, {MAX_EIGENVALUE_COUNT}], got {count}")
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
