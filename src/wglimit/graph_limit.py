"""Limit operators on the two-edge graph and their resolvents.

Two self-adjoint realizations of -d^2/ds^2 on two half-lines joined at a
vertex appear as collapse limits.  Both have the vertex condition
P0perp x(0) = 0, P0 x'(0) = 0 of a projector P0 (``KirchhoffProjector``),
and one resolvent  r0(z) f_j + q_j exp(i sqrt(z) s)  with
q = (i/sqrt(z)) P0 p  and  p_j = (r0(z) f_j)'(0):

  * decoupled:  P0 = 0 (``DECOUPLED``), so x1(0) = x2(0) = 0 (Dirichlet on
    both edges), q = 0 and the resolvent acts edgewise as r0(z);
  * weighted Kirchhoff with weights (a1, a2):  P0 the rank-one projector
    onto (a1, a2).

The comparison with the limit reads only the coupling coefficients of the
point (``CouplingCoefficients``: z, p, q, xi and the case label), no trial
field.  The limit is the one of their own case label
(``limit_resolvent(coeffs.case, coeffs.z)``), so a solution cannot be
paired with the wrong limit, and the comparison reduces analytically: the
r0 parts cancel edgewise, leaving pure outgoing tails whose L2 norm is
|q_eps - q| / sqrt(2 Im sqrt(z)) per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import DECOUPLED, CouplingCoefficients, KirchhoffProjector, kirchhoff_projector
from .kernels import HalfLineResolvent, boundary_derivatives, edge_field, sqrt_upper
from .vertex_spectrum import CaseLabel

__all__ = [
    "GraphResolvent",
    "apply_resolvent_grid",
    "boundary_limits",
    "decoupled_resolvent",
    "graph_q",
    "kirchhoff_resolvent",
    "limit_comparison",
    "limit_resolvent",
    "pi_theta_projector",
]


@dataclass(frozen=True)
class GraphResolvent:
    """Resolvent at z of the limit operator with vertex projector P0:
    weighted Kirchhoff for rank one, decoupled for ``DECOUPLED``."""

    z: complex
    projector: KirchhoffProjector


def decoupled_resolvent(z: complex) -> GraphResolvent:
    return GraphResolvent(complex(z), DECOUPLED)


def kirchhoff_resolvent(z: complex, projector: KirchhoffProjector) -> GraphResolvent:
    return GraphResolvent(complex(z), projector)


@lru_cache(maxsize=16)
def _case_projector(case: CaseLabel) -> KirchhoffProjector:
    """The weighted Kirchhoff projector of a resonant case, built once per case
    (the record is frozen and its arrays are read-only, so it is shared)."""
    return kirchhoff_projector(case.alpha1, case.alpha2)


def limit_resolvent(case: CaseLabel, z: complex) -> GraphResolvent:
    """The limit operator's resolvent for a case: weighted Kirchhoff or decoupled."""
    if case.resonant:
        return kirchhoff_resolvent(z, _case_projector(case))
    return decoupled_resolvent(z)


def graph_q(res: GraphResolvent, p) -> np.ndarray:
    """Outgoing amplitudes of the graph resolvent for data p: (i/sqrt(z)) P0 p."""
    return (1j / sqrt_upper(res.z)) * (res.projector.lambda0 @ p)


def apply_resolvent(res: GraphResolvent, f1, f2, s: float, edge: int) -> complex:
    """Edge value at one point; a view of apply_resolvent_grid."""
    return complex(apply_resolvent_grid(res, f1, f2, s, edge))


def apply_resolvent_grid(res: GraphResolvent, f1, f2, s, edge: int):
    """Edge values of the graph resolvent applied to (f1, f2) at the points
    s of edge 1 or 2 (a complex for a scalar s)."""
    if edge not in (1, 2):
        raise ValueError(f"edge must be 1 or 2, got {edge!r}")
    r0 = HalfLineResolvent(res.z)
    q = graph_q(res, boundary_derivatives(r0, f1, f2))[edge - 1]
    return edge_field(r0, f1 if edge == 1 else f2, q, s)


def limit_comparison(coeffs: CouplingCoefficients) -> float:
    """L2 distance (both edges) between the trial and the limit edge profiles
    of the point whose coupling coefficients these are.

    The limit is the one of the coefficients' case.  The r0 parts agree
    identically, so the distance is carried by the outgoing tails:
    ||(q_eps - q) exp(i sqrt(z) .)||  per edge.
    """
    q_g = graph_q(limit_resolvent(coeffs.case, coeffs.z), coeffs.p)
    tail_sq = 1.0 / (2.0 * sqrt_upper(coeffs.z).imag)
    diff = coeffs.q - q_g
    return float(np.sqrt(float(np.sum(np.abs(diff) ** 2)) * tail_sq))


def boundary_limits(coeffs: CouplingCoefficients) -> dict:
    """Vertex boundary-value diagnostics of the edge profiles, whose values
    and derivatives at the vertex are q and xi.

    Generic case: both boundary values must vanish in the limit while
    the derivatives approach p.  Resonant case: the weighted-Kirchhoff
    combinations a2 x1(0) - a1 x2(0) and a1 x1'(0) + a2 x2'(0) vanish.
    """
    q, xi, p = coeffs.q, coeffs.xi, coeffs.p
    if not coeffs.case.resonant:
        return {
            "value_defects": (float(abs(q[0])), float(abs(q[1]))),
            "derivative_defects": (float(abs(xi[0] - p[0])), float(abs(xi[1] - p[1]))),
        }
    a1, a2 = coeffs.case.alpha1, coeffs.case.alpha2
    return {
        "kirchhoff_value_defect": float(abs(a2 * q[0] - a1 * q[1])),
        "kirchhoff_flux_defect": float(abs(a1 * xi[0] + a2 * xi[1])),
    }


def pi_theta_projector(alphas) -> np.ndarray:
    """General weighted-Kirchhoff projector  1 - alpha alpha^H / |alpha|^2.

    For two real weights this equals the complement of the rank-one
    vertex projector, bridging the N-edge parameterisation to the
    two-edge limit used here.
    """
    a = np.asarray(alphas, dtype=complex)
    nsq = float(np.sum(np.abs(a) ** 2))
    if nsq <= 0.0:
        raise ValueError("weight vector must be nonzero")
    n = a.size
    return np.eye(n, dtype=complex) - np.outer(a, np.conj(a)) / nsq
