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

r0(z) f, p and the data norm ||f|| (``residual.data_norm``) are three
integrals of the same record over (0, inf), and all three read one table,
``_data_panels``: 8-point Gauss-Legendre panels up to the record's
effective cutoff, split at its jumps, no wider than 0.25, 1.5/|sqrt(z)|
(dropped for the norm, which takes no z) and the record's own length
scale.  ``half_line_apply_grid`` carries bounded sums over the table's
panel ends once forwards and once backwards for all target points; p is
the backward end value.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .profile import CurvatureProfile
from .vertex_spectrum import (
    SERIES_RADIUS,
    ShootingSolution,
    _free_mode_values,
    _galerkin_eigenpairs,
    _gauss_panels,
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
# Most Gauss-Legendre panels an edge data table lays over the data's range
# (8 nodes each; half_line_apply_grid's arrays peak near 60 MB at the cap).
# The range grows as 1/rate for exp data: exp:1e-6 would ask for 1.6e8 panels.
MAX_HALF_LINE_PANELS = 100_000
PANEL_ORDER = 8


def __getattr__(name):  # only perfbench/spans.py reads it; ROADMAP item 7 deletes it
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    return quad


class KernelError(RuntimeError):
    pass


class NearEigenvalueError(KernelError):
    """Spectral parameter too close to an eigenvalue for kernel evaluation."""


def sqrt_upper(z: complex) -> complex:
    """Square root with nonnegative imaginary part."""
    r = cmath.sqrt(z)
    if r.imag < 0.0:
        r = -r
    return r


# ----------------------------------------------------------------------
# Free Neumann kernel on (-1, 1)
# ----------------------------------------------------------------------

def neumann_free_kernel(z: complex, s, sp):
    """Closed-form Neumann resolvent kernel of -d^2/ds^2 on (-1, 1) over broadcast
    s, s' (a complex for scalars).  Its denominator is cmath's, so a z past range
    raises OverflowError; a finite one bounds each cosine, <= cosh(2 Im sqrt(z))."""
    sq = sqrt_upper(z)
    den = sq * cmath.sin(2.0 * sq)
    if abs(den) < WRONSKIAN_FLOOR:
        raise NearEigenvalueError(f"z={z} too close to a Neumann eigenvalue")
    lo, hi = np.minimum(s, sp), np.maximum(s, sp)
    out = -np.cos(sq * (lo + 1.0)) * np.cos(sq * (hi - 1.0)) / den
    return complex(out) if out.ndim == 0 else out


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
    """r(z; s, s') from the eigenfunction expansion truncated at n_terms, over
    broadcast s, s' (a complex for scalars).

    The free part is resummed through the closed-form Neumann kernel
    (plain truncation leaves an O(1/n_terms) tail at the corners, far
    above the accuracy this independent route is used for).  The modes are
    formed once on the distinct points, and the cost is two matrix products
    of distinct(s) x distinct(s') entries, a grid's size.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    z = complex(z)
    base = neumann_free_kernel(z, s, sp)
    lams, coef, n_basis, mu = _galerkin_eigenpairs(profile, n_terms)
    pts, inv = np.unique(np.broadcast_arrays(s, sp), return_inverse=True)
    (rows, i), (cols, j) = (np.unique(k, return_inverse=True) for k in inv.reshape(2, -1))
    modes = _free_mode_values(pts, n_basis)
    amp, free = modes @ coef, modes[:, :n_terms]
    part = (amp[rows] / (lams - z)) @ amp[cols].T \
        - (free[rows] / (mu[:n_terms] - z)) @ free[cols].T
    out = base + part[i, j].reshape(np.shape(base))
    return complex(out) if out.ndim == 0 else out


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

    @property
    def length_scale(self) -> float:
        return 0.25 / self.rate


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

    @property
    def length_scale(self) -> float:
        return 0.5 * self.width


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


def _data_panels(f, k_abs: float = 0.0):
    """The panel table of edge data f: panel ends over (0, f's effective
    cutoff), split at its breakpoints, and the Gauss-Legendre nodes and
    weights of each panel, shape (panels, PANEL_ORDER).

    Panels are at most min(0.25, 1.5/k_abs, f.length_scale) wide; a record
    without a length scale (an indicator) is constant between its
    breakpoints.  More panels than MAX_HALF_LINE_PANELS raise ValueError.
    """
    cutoff = max(f.effective_cutoff(), 0.0)
    width = min(0.25, 1.5 / max(k_abs, 1e-6), getattr(f, "length_scale", np.inf))
    n_panels = cutoff / width
    if not n_panels <= MAX_HALF_LINE_PANELS:
        raise ValueError(f"the edge data need {n_panels:.3g} quadrature panels over their "
                         f"range (0, {cutoff:.3g}); at most {MAX_HALF_LINE_PANELS}")
    edges = np.linspace(0.0, cutoff, max(8, int(np.ceil(n_panels))) + 1)
    inner = [p for p in getattr(f, "breakpoints", ()) if 0.0 < p < cutoff]
    if inner:
        edges = np.unique(np.concatenate([edges, inner]))
    return (edges, *_gauss_panels(edges[:-1], edges[1:], PANEL_ORDER))


def half_line_apply(res: HalfLineResolvent, f, s: float) -> complex:
    """(r0(z) f)(s) at one point; a view of half_line_apply_grid."""
    return complex(half_line_apply_grid(res, f, s))


def boundary_derivative(res: HalfLineResolvent, f) -> complex:
    """p = (r0(z) f)'(0) = Integral exp(i sqrt(z) t) f(t) dt, the total of
    f's panel table."""
    k = res.sqrt_z
    _, pts, wts = _data_panels(f, abs(k))
    return complex(np.sum(np.exp(1j * k * pts) * f(pts) * wts))


def boundary_derivatives(res: HalfLineResolvent, f1, f2) -> np.ndarray:
    """The data vector p = (p1, p2); an edge without data contributes 0."""
    return np.array([0.0 if f is None else boundary_derivative(res, f)
                     for f in (f1, f2)], dtype=complex)


def half_line_apply_grid(res: HalfLineResolvent, f, s: np.ndarray) -> np.ndarray:
    """(r0(z) f) at the points s via panel quadrature of

        (r0 f)(s) = [A(s) + h(s) B(s)] / k,   h(t) = sin(kt) exp(ikt),
        A(s) = Integral_0^s exp(ik(s-t)) h(t) f dt,
        B(s) = Integral_s^inf exp(ik(t-s)) f dt,

    the kernel sin(k min(s,t)) exp(ik max(s,t)) / k in factors of modulus at
    most 1, so nothing overflows at any Im k * s.  A and B at f's panel ends
    come from one forward and one backward recurrence (B(0) = p); each
    target adds its own partial panel, so the cost is O(panels + targets)
    and the kernel kink t = s is a panel end.  The result has the shape of s
    (0-d for a scalar s) and vanishes at s = 0.  More panels than
    MAX_HALF_LINE_PANELS raise ValueError.
    """
    k = res.sqrt_z
    shape = np.shape(s)
    s = np.asarray(s, dtype=float).ravel()
    edges, pts, wts = _data_panels(f, abs(k))
    fw = f(pts) * wts
    a_panel = (np.exp(1j * k * (edges[1:, None] - pts)) * _h(k, pts) * fw).sum(axis=1)
    b_panel = (np.exp(1j * k * (pts - edges[:-1, None])) * fw).sum(axis=1)
    carry = np.exp(1j * k * np.diff(edges)).tolist()
    a_end, b_end = [0j], [0j]
    for c, a_j in zip(carry, a_panel.tolist()):
        a_end.append(c * a_end[-1] + a_j)
    for c, b_j in zip(carry[::-1], b_panel.tolist()[::-1]):
        b_end.append(c * b_end[-1] + b_j)
    a_end, b_end = np.array(a_end), np.array(b_end[::-1])

    s_in = np.clip(s, 0.0, edges[-1])
    idx = np.clip(np.searchsorted(edges, s_in, side="right") - 1, 0, len(edges) - 2)
    start = edges[idx]
    ppts, pwts = _gauss_panels(start, s_in, PANEL_ORDER)
    pfw = f(ppts) * pwts
    a = np.exp(1j * k * (s - start)) * a_end[idx] \
        + (np.exp(1j * k * (s[:, None] - ppts)) * _h(k, ppts) * pfw).sum(axis=1)
    b = np.exp(1j * k * (start - s_in)) \
        * (b_end[idx] - (np.exp(1j * k * (ppts - start[:, None])) * pfw).sum(axis=1))
    return ((a + _h(k, s) * b) / k).reshape(shape)


def _h(k: complex, t):
    """sin(kt) exp(ikt) = -(i/2) expm1(2ikt), of modulus at most 1 for t >= 0."""
    return -0.5j * np.expm1(2j * k * t)


def edge_field(res: HalfLineResolvent, f, q: complex, s):
    """r0(z) f + q exp(i sqrt(z) s) at edge points s (a complex for a
    scalar s, bit for bit the 1-point grid's value); f may be None."""
    s = np.asarray(s, dtype=float)
    base = np.zeros(s.size, dtype=complex) if f is None else \
        half_line_apply_grid(res, f, s.ravel())
    out = (base + q * np.exp(1j * res.sqrt_z * s.ravel())).reshape(s.shape)
    return complex(out) if out.ndim == 0 else out
