from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wglimit import CurvatureProfile, tune_to_resonance


@dataclasses.dataclass(frozen=True)
class ShiftedBump(CurvatureProfile):
    """A bump moved to s = 0.1, so gamma is not even in s: every profile the
    library builds is even."""

    def gamma(self, s, order: int = 0):
        return super().gamma(np.asarray(s, dtype=float) - 0.1, order)


@pytest.fixture(scope="session")
def zero_profile():
    return CurvatureProfile.zero()


@pytest.fixture(scope="session")
def bump05():
    return CurvatureProfile.bump(0.5)


@pytest.fixture(scope="session")
def tuned2():
    return tune_to_resonance(CurvatureProfile.bump(0.5), 2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


def corners(sol) -> np.ndarray:
    """The kernel's corner values r(z; +-1, +-1) = N / Wv of a shooting solution."""
    return sol.corner_numerator() / sol.wronskian


def log_slope(x, y):
    """Plain least-squares log-log slope (test-side oracle)."""
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def plain_geometry(profile, s, u, ratio):
    """1/g, d/ds(1/g) and W straight from a = 1 + u*rho*gamma, g = a^2
    (test-side oracle for the library's cancellation-free assembly)."""
    gam, gam1, gam2 = (profile.gamma(np.asarray(s, dtype=float), k) for k in range(3))
    a = 1.0 + u * ratio * gam
    urg1 = u * ratio * gam1
    return {
        "inv_g": 1.0 / (a * a),
        "ds_inv_g": -2.0 * urg1 / a**3,
        "W": (-0.25 * gam * gam / (a * a) + 0.5 * u * ratio * gam2 / a**3
              - 1.25 * urg1 * urg1 / a**4),
    }
