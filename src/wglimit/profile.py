"""Curvature profiles of the vertex region and derived geometric fields.

The vertex strip carries the metric factor

    g(s, u) = (1 + u * rho * gamma(s))**2,     rho = delta/eps in (0, 1],

built from a smooth curvature function gamma compactly supported in
(-1, 1).  Everything downstream (effective potential W, the operator
coefficients 1/g and d/ds(1/g)) is evaluated here with closed-form
derivatives; numerical differentiation is reserved for test oracles.

The manufactured profile family is the classical bump

    gamma(s) = amplitude * exp(1 - 1/(1 - s**2))      for |s| < 1,

normalised so the peak value equals ``amplitude``.  Plain bumps respect
the standing geometric bound sup|gamma| < 1.  Resonance-tuned bumps
(``tuned_bump``) carry larger amplitudes and are therefore only valid
for aspect ratios rho < 1/sup|gamma|; evaluation enforces this.

The fields have one formula, ``geometry_residual_fields``, which carries
the O(rho) parts 1/g - 1 and W + gamma^2/4 without cancellation;
``geometry_fields`` (the FD oracle's 1/g and W) reads them from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "AMPLITUDE_CAP",
    "TUNED_AMPLITUDE_CAP",
    "CurvatureProfile",
    "GeometryAt",
    "ProfileError",
    "check_potential_identity",
    "eval_geometry",
    "geometry_fields",
    "geometry_residual_fields",
    "tune_to_resonance",
]

# Strict version of the standing bound sup|gamma| < 1 for plain bumps.
AMPLITUDE_CAP = 0.999
# Resonance tuning needs amplitudes ~6; geometry is then restricted to
# rho < 1/amplitude instead of the uniform rho <= 1.
TUNED_AMPLITUDE_CAP = 8.0
# Steps and last step of the bracketed Newton iteration on the Galerkin
# eigenvalue (about five), then Newton steps of the polish on the Wronskian
# at w = 0 and the |lambda| = |W_0/W_1| at which it stops (one step: tuned:2
# reaches 5e-16, a half amplitude ulp times the slope -0.94 plus rounding).
_BRACKET_STEPS = 60
_BRACKET_TOL = 1e-13
_NEWTON_STEPS = 4
_RESONANCE_FLOOR = 2e-15


class ProfileError(ValueError):
    """Invalid profile construction or evaluation outside the valid range."""


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature function gamma with exact derivatives.

    kind is one of ``zero``, ``bump``, ``tuned_bump``.  ``target_index``,
    an integer >= 2 given for tuned bumps only, records which eigenvalue
    of the vertex Hamiltonian was driven to zero.
    """

    kind: str
    amplitude: float = 0.0
    target_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "bump", "tuned_bump"):
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        if self.kind != "tuned_bump" and self.target_index is not None:
            raise ProfileError(f"a {self.kind} profile takes no target_index")
        if self.kind == "zero":
            if self.amplitude != 0.0:
                raise ProfileError("zero profile has no amplitude")
        elif self.kind == "bump":
            if not 0.0 < abs(self.amplitude) <= AMPLITUDE_CAP:
                raise ProfileError(
                    f"bump amplitude {self.amplitude} outside (0, {AMPLITUDE_CAP}]"
                )
        else:
            if not 0.0 < abs(self.amplitude) <= TUNED_AMPLITUDE_CAP:
                raise ProfileError(
                    f"tuned bump amplitude {self.amplitude} outside "
                    f"(0, {TUNED_AMPLITUDE_CAP}]"
                )
            k = self.target_index
            if not (isinstance(k, int) and not isinstance(k, bool) and k >= 2):
                raise ProfileError(f"tuned bump requires an integer target_index >= 2, "
                                   f"got {k!r}")

    @staticmethod
    def zero() -> "CurvatureProfile":
        return CurvatureProfile("zero", 0.0)

    @staticmethod
    def bump(amplitude: float) -> "CurvatureProfile":
        return CurvatureProfile("bump", amplitude)

    @property
    def sup_gamma(self) -> float:
        """Peak of |gamma|; the bump attains |amplitude| at s = 0."""
        return abs(self.amplitude)

    def gamma(self, s, order: int = 0):
        """gamma and its first two derivatives, vectorised over s."""
        if order not in (0, 1, 2):
            raise ProfileError("order must be 0, 1 or 2")
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        if self.kind == "zero":
            return out if out.ndim else float(out)
        inside = np.abs(s) < 1.0
        si = s[inside]
        t = 1.0 - si * si
        base = np.exp(1.0 - 1.0 / t)
        if order == 0:
            out[inside] = base
        elif order == 1:
            # d/ds exp(w), w = 1 - 1/(1-s^2), w' = -2s/(1-s^2)^2
            out[inside] = base * (-2.0 * si / t**2)
        else:
            wp = -2.0 * si / t**2
            wpp = -2.0 / t**2 - 8.0 * si * si / t**3
            out[inside] = base * (wpp + wp * wp)
        out *= self.amplitude
        return out if out.ndim else float(out)

    def to_json_fragment(self) -> dict:
        frag = {"kind": self.kind, "amplitude": self.amplitude}
        if self.target_index is not None:
            frag["target_index"] = self.target_index
        return frag

    @staticmethod
    def from_json_fragment(frag: dict) -> "CurvatureProfile":
        try:
            kind = frag["kind"]
        except (TypeError, KeyError) as exc:
            raise ProfileError(f"malformed profile fragment {frag!r}") from exc
        if unknown := sorted(set(frag) - {"kind", "amplitude", "target_index"}):
            raise ProfileError(f"profile fragment {frag!r} has unknown keys {unknown}")
        try:
            amplitude = float(frag.get("amplitude", 0.0))
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"profile amplitude {frag['amplitude']!r} is not a number") from exc
        return CurvatureProfile(kind, amplitude, frag.get("target_index"))


@dataclass(frozen=True)
class GeometryAt:
    """Pointwise geometric data of the vertex strip."""

    s: float
    u: float
    ratio: float
    g: float
    inv_g: float
    ds_inv_g: float
    W: float


def _check_ratio(profile: CurvatureProfile, ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ProfileError(f"ratio {ratio} outside (0, 1]")
    if ratio * profile.sup_gamma >= 1.0:
        raise ProfileError(
            f"ratio {ratio} too large for amplitude {profile.amplitude}: "
            "metric factor would vanish"
        )


def geometry_residual_fields(profile: CurvatureProfile, s, u, ratio: float) -> dict:
    """1/g - 1, W + gamma^2/4 and d/ds(1/g), free of small-ratio cancellation.

    All three fields are O(ratio); they are assembled from b = u*rho*gamma
    directly (1/g - 1 = -b(2+b)/a^2 etc.) so they stay accurate down to
    ratio ~ 1e-12 where the naive differences would lose all digits.
    """
    _check_ratio(profile, ratio)
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    gam = profile.gamma(s, 0)
    gam1 = profile.gamma(s, 1)
    gam2 = profile.gamma(s, 2)
    b = u * ratio * gam
    a = 1.0 + b
    two_plus_b, a_sq, a_cube = 2.0 + b, a * a, a**3
    inv_g_minus_1 = -b * two_plus_b / a_sq
    urg1 = u * ratio * gam1
    w_plus = (
        0.25 * gam * gam * b * two_plus_b / a_sq
        + 0.5 * (u * ratio * gam2) / a_cube
        - 1.25 * urg1 * urg1 / a**4
    )
    ds_inv_g = -2.0 * urg1 / a_cube
    return {
        "inv_g_minus_1": inv_g_minus_1,
        "w_plus_quarter_gamma_sq": w_plus,
        "ds_inv_g": ds_inv_g,
        "gamma_sq": gam * gam,
    }


def geometry_fields(profile: CurvatureProfile, s, u, ratio: float) -> dict:
    """g, 1/g, d/ds(1/g) and W on broadcastable arrays s, u, read from
    ``geometry_residual_fields``: 1/g = 1 + (1/g - 1) and
    W = (W + gamma^2/4) - gamma^2/4."""
    f = geometry_residual_fields(profile, s, u, ratio)
    inv_g = 1.0 + f["inv_g_minus_1"]
    return {"g": 1.0 / inv_g, "inv_g": inv_g, "ds_inv_g": f["ds_inv_g"],
            "W": f["w_plus_quarter_gamma_sq"] - 0.25 * f["gamma_sq"]}


def eval_geometry(profile: CurvatureProfile, s: float, u: float, ratio: float) -> GeometryAt:
    """Metric factor, its reciprocal and derivative, and the potential W."""
    if not -1.0 <= s <= 1.0:
        raise ProfileError(f"s {s} outside [-1, 1]")
    if not 0.0 <= u <= 1.0:
        raise ProfileError(f"u {u} outside [0, 1]")
    f = geometry_fields(profile, s, u, ratio)
    return GeometryAt(
        s=s,
        u=u,
        ratio=ratio,
        g=float(f["g"]),
        inv_g=float(f["inv_g"]),
        ds_inv_g=float(f["ds_inv_g"]),
        W=float(f["W"]),
    )


def check_potential_identity(
    profile: CurvatureProfile,
    ratio: float,
    sample_grid: Iterable[tuple[float, float]],
) -> float:
    """Max defect of the quadratic-form potential identity on a grid.

    The multiplication potential produced by conjugating the form with
    g**(1/4) splits into an s-part Ws and a u-part Wu,

        Ws = -d/ds[g^(-3/4) d/ds g^(-1/4)] + g^(-1/2) (d/ds g^(-1/4))^2,
        Wu = -d/du[g^(1/4)  d/du g^(-1/4)] + g^(1/2)  (d/du g^(-1/4))^2,

    and must reassemble W:  Ws + Wu/rho^2 = W.  The pieces below keep the
    un-cancelled expression trees so the check is a real floating-point
    cross-validation, not an algebraic tautology.
    """
    grid = list(sample_grid)
    if not grid:
        raise ProfileError("sample grid must be nonempty")
    s = np.array([p[0] for p in grid], dtype=float)
    u = np.array([p[1] for p in grid], dtype=float)
    _check_ratio(profile, ratio)
    gam = profile.gamma(s, 0)
    gam1 = profile.gamma(s, 1)
    gam2 = profile.gamma(s, 2)
    a = 1.0 + u * ratio * gam

    # s-part: A = d/ds g^(-1/4) = -(1/2) a^(-3/2) u rho gamma'
    A = -0.5 * a ** (-1.5) * u * ratio * gam1
    dA = -0.5 * u * ratio * gam2 * a ** (-1.5) + 0.75 * (u * ratio * gam1) ** 2 * a ** (-2.5)
    d_g34A = a ** (-1.5) * dA - 1.5 * a ** (-2.5) * (u * ratio * gam1) * A
    Ws = -d_g34A + a ** (-1.0) * A * A

    # u-part: B = d/du g^(-1/4) = -(1/2) a^(-3/2) rho gamma
    B = -0.5 * a ** (-1.5) * ratio * gam
    dB = 0.75 * a ** (-2.5) * (ratio * gam) ** 2
    d_g14B = a**0.5 * dB + 0.5 * a ** (-0.5) * (ratio * gam) * B
    Wu = -d_g14B + a * B * B

    W = geometry_fields(profile, s, u, ratio)["W"]
    defect = np.abs(Ws + Wu / ratio**2 - W)
    return float(np.max(defect))


def _amplitude_slope(profile: CurvatureProfile) -> float:
    """Hellmann-Feynman slope d(lambda_K)/dA of a tuned bump, K = target_index.

    With gamma = A b the potential -A^2 b^2/4 scales as A^2, so

        d lambda/dA = -(A/2) Integral b^2 y^2 ds = 2 <y, V y> / A,

    and in the cosine-Galerkin basis <y, V y> = lambda - sum_k mu_k c_k^2
    for the normalised eigenvector c of y.
    """
    from . import vertex_spectrum as vs

    k = profile.target_index
    lams, coef, _, mu = vs._galerkin_eigenpairs(profile, k + 1)
    c = coef[:, k - 1]
    return 2.0 * float(lams[k - 1] - mu @ (c * c)) / profile.amplitude


@lru_cache(maxsize=16)
def _tuned_amplitude(target_index: int) -> float:
    """Root of lambda_{target_index}(amplitude) = 0 over the bump family.

    Newton steps with the Hellmann-Feynman slope on the cosine-Galerkin
    eigenvalue, bisecting a 16-point amplitude grid's bracket when a step
    leaves it, give the root to ~1e-12.  Newton steps then polish it on
    lambda = -W_0/W_1 from a one-sided 2-term solve about w = 0, the first
    two Taylor coefficients of the Wronskian the vertex kernel reads, and
    return the amplitude whose |lambda| they checked: the kernel's pole
    sits at w = 0 to the tuning residue.
    """
    # Lazy import: the eigenvalue solver depends on this module.
    from . import vertex_spectrum as vs

    # min-max: lambda_K >= ((K-1) pi/2)^2 - sup(gamma^2)/4 > 0 for K >= 4
    if vs._free_eigenvalue(target_index) > TUNED_AMPLITUDE_CAP**2 / 4.0:
        raise ProfileError(f"eigenvalue {target_index} stays positive for every "
                           f"amplitude in (0, {TUNED_AMPLITUDE_CAP}]")

    def galerkin_lam(amp: float) -> float:
        prof = CurvatureProfile("tuned_bump", amp, target_index)
        return float(vs._galerkin_eigenpairs(prof, target_index + 1)[0][target_index - 1])

    # gamma = A b, so the Galerkin Hamiltonian at A is A^2 P_1 + diag(mu), P_1
    # that of -b^2/4: the grid's eigenvalues are one batched solve.
    grid = np.linspace(0.5, TUNED_AMPLITUDE_CAP, 16)
    unit, mu = vs._galerkin_matrices(CurvatureProfile("tuned_bump", 1.0, target_index),
                                     target_index + 1)
    vals = np.linalg.eigvalsh(grid[:, None, None] ** 2 * unit + np.diag(mu))[:, target_index - 1]
    k = next((k for k in range(len(grid) - 1) if vals[k] * vals[k + 1] <= 0.0), None)
    if k is None:
        raise ProfileError(
            f"no amplitude in (0, {TUNED_AMPLITUDE_CAP}] brackets a zero of "
            f"eigenvalue {target_index}"
        )
    amp, lo, hi = float(grid[k]), float(grid[k]), float(grid[k + 1])
    for _ in range(_BRACKET_STEPS):
        lam = galerkin_lam(amp)
        lo, hi = (amp, hi) if lam * vals[k] > 0.0 else (lo, amp)
        new = amp - lam / _amplitude_slope(CurvatureProfile("tuned_bump", amp, target_index))
        amp, last = (new if lo < new < hi else 0.5 * (lo + hi)), amp
        if abs(amp - last) <= _BRACKET_TOL:
            break
    for _ in range(_NEWTON_STEPS):
        prof = CurvatureProfile("tuned_bump", amp, target_index)
        wr = vs._coefficient_solve(prof, 0.0, 2, "the tuning solve").states[-1, :, 1]
        lam = -float(wr[0] / wr[1])
        if abs(lam) <= _RESONANCE_FLOOR:
            return prof.amplitude
        amp -= lam / _amplitude_slope(prof)
    raise vs.SpectrumError(
        f"Newton polish of the eigenvalue {target_index} amplitude did not "
        f"converge (last eigenvalue {lam:.3e})")


def tune_to_resonance(base: CurvatureProfile, target_index: int) -> CurvatureProfile:
    """Bump profile whose eigenvalue ``target_index`` sits at zero.

    The first eigenvalue cannot be tuned: any nonzero bump pushes it
    strictly negative.  Amplitudes above 1 are required (min-max pins
    lambda_2 >= pi^2/4 - sup(gamma^2)/4), so the result is a
    ``tuned_bump`` with geometry restricted to rho < 1/amplitude.
    """
    if base.kind == "zero":
        raise ProfileError("zero family has no amplitude to tune")
    if target_index < 2:
        raise ProfileError("target_index must be >= 2")
    amp = _tuned_amplitude(target_index)
    return CurvatureProfile("tuned_bump", amp, target_index)
