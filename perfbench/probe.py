"""Fixed calibration work that measures the machine's current speed.

The work uses only numpy and scipy, never wglimit, so no change to the
program under test changes its cost.  It mixes the three kinds of work
the workloads do: adaptive DOP853 integration with a Python right-hand
side (shooting), a sparse complex LU (the FD oracle) and plain
interpreter arithmetic.  It takes about ``REFERENCE_S`` seconds on an
unloaded 2-core x86-64 VM with Python 3.11, numpy 2.4 and scipy 1.17.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

REFERENCE_S = 0.4
_GRID = 100


def _bump(s, amplitude: float = 2.0):
    # Same numpy-scalar pattern as a curvature evaluation: the cost of the
    # shooting right-hand side is mostly numpy call overhead.
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    t = 1.0 - s[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / t)
    out *= amplitude
    return out if out.ndim else float(out)


def _rhs(z: complex):
    def rhs(s, y):
        return [y[1], (-0.25 * _bump(s) ** 2 - z) * y[0]]

    return rhs


def run() -> float:
    """Seconds the calibration work took."""
    start = time.perf_counter()
    for k in range(18):
        solve_ivp(_rhs(0.5 + 0.03 * k + 1j), (-1.0, 1.0), np.array([1.0 + 0j, 0j]),
                  method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True)
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
    eye = sp.identity(_GRID)
    a = (sp.kron(line, eye) + sp.kron(eye, line)
         + (0.3 + 1j) * sp.identity(_GRID * _GRID)).tocsc()
    spla.splu(a).solve(np.ones(_GRID * _GRID, dtype=complex))
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start
