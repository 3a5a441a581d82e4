"""Resolvent kernels: vertex Green's function, free Neumann kernel and
the half-line Dirichlet resolvent with its boundary derivative.

Vertex kernel.  With the shooting solutions zeta, eta of the vertex
problem and their Wronskian Wv,

    r(z; s, s') = zeta(z; min) * eta(z; max) / Wv(z),

valid for z away from the eigenvalues; ``vertex_kernel_at`` returns the
shooting solution, which evaluates it.  For |z| <= SERIES_RADIUS the
solution is the profile's cached Taylor series in z; farther out it is
shot at z.  A second, independent route,
``series_kernel``, evaluates the eigenfunction expansion
sum y_n(s) y_n(s') / (lambda_n - z) from a cosine-Galerkin
diagonalisation; its slowly convergent free part is resummed in closed
form so finite truncations are accurate at the corners as well.

Half line.  For Im sqrt(z) > 0 the Dirichlet resolvent on (0, inf) has
the method-of-images kernel

    K(s, t) = (i / (2 k)) [exp(i k |s-t|) - exp(i k (s+t))],  k = sqrt(z)

(at z = -mu^2 this is the classical (exp(-mu|s-t|) - exp(-mu(s+t)))/(2 mu),
which fixes the sign of the prefactor), and its boundary derivative
functional reduces analytically to

    p = (r0(z) f)'(0) = Integral_0^inf exp(i k t) f(t) dt.

r0(z) f is evaluated by one route, ``half_line_apply_grid``: Gauss-Legendre
panels over the data's range, cumulated once for every target point.  The
scalar integrals p and ||f|| go through adaptive quadrature told of the
data's jumps.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_legendre

from .profile import CurvatureProfile
from .vertex_spectrum import (
    SERIES_RADIUS,
    ShootingSolution,
    _free_mode_values,
    _galerkin_eigenpairs,
    shoot,
    taylor_shooting,
)

__all__ = [
    "ExpDecay",
    "GaussianPulse",
    "HalfLineResolvent",
    "Indicator",
    "KernelError",
    "NearEigenvalueError",
    "QuadratureError",
    "boundary_derivative",
    "boundary_derivatives",
    "edge_field",
    "half_line_apply_grid",
    "neumann_free_kernel",
    "series_kernel",
    "sqrt_upper",
    "vertex_kernel_at",
]

WRONSKIAN_FLOOR = 1e-13
SERIES_DEFAULT_TERMS = 200
# Most Gauss-Legendre panels half_line_apply_grid lays over the data's range
# (8 nodes each; its arrays peak near 60 MB at the cap).
# The range grows as 1/rate for exp data: exp:1e-6 would ask for 1.6e8 panels.
MAX_HALF_LINE_PANELS = 100_000


class KernelError(RuntimeError):
    pass


class NearEigenvalueError(KernelError):
    """Spectral parameter too close to an eigenvalue for kernel evaluation."""


class QuadratureError(KernelError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def sqrt_upper(z: complex) -> complex:
    """Square root with nonnegative imaginary part."""
    r = cmath.sqrt(z)
    if r.imag < 0.0:
        r = -r
    return r


# ----------------------------------------------------------------------
# Free Neumann kernel on (-1, 1)
# ----------------------------------------------------------------------

def neumann_free_kernel(z: complex, s: float, sp: float) -> complex:
    """Closed-form Neumann resolvent kernel of -d^2/ds^2 on (-1, 1)."""
    sq = sqrt_upper(z)
    den = sq * cmath.sin(2.0 * sq)
    if abs(den) < WRONSKIAN_FLOOR:
        raise NearEigenvalueError(f"z={z} too close to a Neumann eigenvalue")
    lo, hi = (s, sp) if s <= sp else (sp, s)
    return -cmath.cos(sq * (lo + 1.0)) * cmath.cos(sq * (hi - 1.0)) / den


# ----------------------------------------------------------------------
# Vertex kernel
# ----------------------------------------------------------------------

def vertex_kernel_at(profile: CurvatureProfile, z: complex) -> ShootingSolution:
    """The shooting solution at z, which is the vertex kernel there: from
    the Taylor series in z when |z| <= SERIES_RADIUS, else shot at z.

    Raises NearEigenvalueError when |Wv| is below WRONSKIAN_FLOOR.
    """
    sol = taylor_shooting(profile).at(z) if abs(z) <= SERIES_RADIUS else shoot(profile, z)
    if abs(sol.wronskian) < WRONSKIAN_FLOOR:
        raise NearEigenvalueError(
            f"|Wronskian|={abs(sol.wronskian):.2e} at z={sol.z}; kernel undefined")
    return sol


def series_kernel(profile: CurvatureProfile, z: complex, s, sp,
                  n_terms: int = SERIES_DEFAULT_TERMS):
    """r(z; s, s') from the eigenfunction expansion truncated at n_terms.

    The free part is resummed through the closed-form Neumann kernel
    (plain truncation leaves an O(1/n_terms) tail at the corners, far
    above the accuracy this independent route is used for).
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    z = complex(z)
    lams, coef, n_basis, mu = _galerkin_eigenpairs(profile, n_terms)
    cs = _free_mode_values(s, n_basis)
    csp = _free_mode_values(sp, n_basis)
    pert = ((cs @ coef) / (lams - z)[None, :] * (csp @ coef)).sum(axis=1)
    free = (cs[:, :n_terms] / (mu[:n_terms] - z)[None, :] * csp[:, :n_terms]).sum(axis=1)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    sp_arr = np.atleast_1d(np.asarray(sp, dtype=float))
    base = np.array([
        neumann_free_kernel(z, float(a), float(b))
        for a, b in zip(np.broadcast_to(s_arr, pert.shape),
                        np.broadcast_to(sp_arr, pert.shape))
    ])
    out = base + pert - free
    return complex(out[0]) if np.isscalar(s) or np.ndim(s) == 0 else out


# ----------------------------------------------------------------------
# Edge data records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDecay:
    """f(s) = coefficient * exp(-rate * s) on (0, inf)."""

    rate: float = 1.0
    coefficient: float = 1.0

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self.coefficient * np.exp(-self.rate * s)
        return float(out) if out.ndim == 0 else out

    def effective_cutoff(self) -> float:
        return 40.0 / self.rate


@dataclass(frozen=True)
class GaussianPulse:
    """f(s) = exp(-((s - center)/width)^2)."""

    center: float = 3.0
    width: float = 0.5

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.exp(-(((s - self.center) / self.width) ** 2))
        return float(out) if out.ndim == 0 else out

    def effective_cutoff(self) -> float:
        return self.center + 7.0 * self.width


@dataclass(frozen=True)
class Indicator:
    """Characteristic function of [lo, hi]."""

    lo: float = 0.0
    hi: float = 1.0

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.where((s >= self.lo) & (s <= self.hi), 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def cutoff(self) -> float:
        return self.hi

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)

    def effective_cutoff(self) -> float:
        return self.hi


# ----------------------------------------------------------------------
# Half-line Dirichlet resolvent
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HalfLineResolvent:
    """Resolvent of the Dirichlet Laplacian on (0, inf) at z, Im sqrt(z) > 0."""

    z: complex
    sqrt_z: complex = field(init=False)

    def __post_init__(self) -> None:
        sq = sqrt_upper(self.z)
        if sq.imag <= 0.0:
            raise KernelError(f"z={self.z} has no square root with Im > 0")
        object.__setattr__(self, "sqrt_z", sq)


def _complex_quad(fn, a, b, points=None) -> complex:
    kw = {"epsabs": 1e-13, "epsrel": 1e-10, "limit": 200}
    if points:
        kw["points"] = points
    re, re_err = quad(lambda t: fn(t).real, a, b, **kw)
    im, im_err = quad(lambda t: fn(t).imag, a, b, **kw)
    scale = max(1.0, abs(re) + abs(im))
    if max(re_err, im_err) > 1e-6 * scale:
        raise QuadratureError(
            f"half-line quadrature error {max(re_err, im_err):.2e} too large")
    return complex(re, im)


def _data_range(f) -> tuple[float, list[float]]:
    """The range (0, upper) of edge data f and the sorted breakpoints of f
    inside it, where an integrand over f may jump.  Adaptive quadrature
    that is not told of them can step over narrow data entirely.  Only
    data with a cutoff have breakpoints, so the range is then finite."""
    cut = getattr(f, "cutoff", None)
    upper = float(cut) if cut is not None else np.inf
    return upper, sorted({p for p in getattr(f, "breakpoints", ()) if 0.0 < p < upper})


def half_line_apply(res: HalfLineResolvent, f, s: float) -> complex:
    """(r0(z) f)(s) at one point; a view of half_line_apply_grid."""
    return complex(half_line_apply_grid(res, f, s))


def boundary_derivative(res: HalfLineResolvent, f) -> complex:
    """p = (r0(z) f)'(0) = Integral exp(i sqrt(z) t) f(t) dt."""
    k = res.sqrt_z
    upper, points = _data_range(f)
    return _complex_quad(lambda t: np.exp(1j * k * t) * f(t), 0.0, upper, points=points)


def boundary_derivatives(res: HalfLineResolvent, f1, f2) -> np.ndarray:
    """The data vector p = (p1, p2); an edge without data contributes 0."""
    return np.array([0.0 if f is None else boundary_derivative(res, f)
                     for f in (f1, f2)], dtype=complex)


def _panel_grid(cutoff: float, k_abs: float, breakpoints=()):
    width = min(0.25, 1.5 / max(k_abs, 1e-6))
    n_panels = cutoff / width
    if not n_panels <= MAX_HALF_LINE_PANELS:
        raise ValueError(f"the half-line resolvent needs {n_panels:.3g} panels over the "
                         f"data's range (0, {cutoff:.3g}); at most {MAX_HALF_LINE_PANELS}")
    n_panels = max(8, int(np.ceil(n_panels)))
    edges = np.linspace(0.0, cutoff, n_panels + 1)
    inner = [p for p in breakpoints if 0.0 < p < cutoff]
    if inner:
        edges = np.unique(np.concatenate([edges, inner]))
    nodes, weights = roots_legendre(8)
    return edges, nodes, weights


def half_line_apply_grid(res: HalfLineResolvent, f, s: np.ndarray) -> np.ndarray:
    """(r0(z) f) at the points s via cumulative panel quadrature.

    Panels of width min(0.25, 1.5/|sqrt(z)|) up to f's effective cutoff,
    split at its breakpoints, are summed once; each target adds its own
    partial panel, so the cost is O(panels + targets) and the kernel kink
    at t = s is a panel end.  The result has the shape of s (a 0-d array
    for a scalar s), and it vanishes at s = 0.  More panels than
    MAX_HALF_LINE_PANELS raise ValueError.
    """
    k = res.sqrt_z
    shape = np.shape(s)
    s = np.asarray(s, dtype=float).ravel()
    cutoff = f.effective_cutoff()
    edges, nodes, weights = _panel_grid(cutoff, abs(k),
                                        getattr(f, "breakpoints", ()))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    fv = f(pts)
    ep = np.exp(1j * k * pts) * fv * wts
    em = np.exp(-1j * k * pts) * fv * wts
    cum_plus = np.concatenate([[0.0], np.cumsum(ep.sum(axis=1))])
    cum_minus = np.concatenate([[0.0], np.cumsum(em.sum(axis=1))])
    f_plus = cum_plus[-1]

    s_in = np.clip(s, 0.0, cutoff)
    idx = np.clip(np.searchsorted(edges, s_in, side="right") - 1, 0, len(edges) - 2)
    lo = edges[idx]
    phalf = 0.5 * (s_in - lo)
    pmid = lo + phalf
    ppts = pmid[:, None] + phalf[:, None] * nodes[None, :]
    pwts = phalf[:, None] * weights[None, :]
    pfv = f(ppts)
    a_plus = cum_plus[idx] + (np.exp(1j * k * ppts) * pfv * pwts).sum(axis=1)
    a_minus = cum_minus[idx] + (np.exp(-1j * k * ppts) * pfv * pwts).sum(axis=1)

    b_plus = f_plus - a_plus
    out = (0.5j / k) * (np.exp(1j * k * s) * a_minus
                        + np.exp(-1j * k * s) * b_plus
                        - np.exp(1j * k * s) * f_plus)
    return out.reshape(shape)


def edge_field(res: HalfLineResolvent, f, q: complex, s):
    """r0(z) f + q exp(i sqrt(z) s) at edge points s (a complex for a
    scalar s); f may be None."""
    s = np.asarray(s, dtype=float)
    base = np.zeros(s.shape, dtype=complex) if f is None else \
        half_line_apply_grid(res, f, s)
    out = base + q * np.exp(1j * res.sqrt_z * s)
    return complex(out) if out.ndim == 0 else out
