"""Thin-waveguide collapse onto a two-edge quantum graph: approximate
resolvent construction, vertex coupling asymptotics, convergence-rate
sweeps and finite-difference oracles.

The package re-exports what the acceptance suite and the test fixtures
read; everything else is imported from its module."""

__version__ = "0.1.0"

from .profile import CurvatureProfile, check_potential_identity, tune_to_resonance
from .vertex_spectrum import eigenvalues, shoot
from .kernels import (
    ExpDecay,
    GaussianPulse,
    Indicator,
    neumann_free_kernel,
    vertex_kernel_at,
)
from .coupling import kirchhoff_projector, resonant_projector, solve_coupling
from .residual import assemble, residual_norms
from .graph_limit import pi_theta_projector
from .fd_oracle import fd_vertex_eigen
from .experiments import ExperimentConfig, oracle_report, run_sweep
