"""Thin-waveguide collapse onto a two-edge quantum graph: approximate
resolvent construction, vertex coupling asymptotics, convergence-rate
sweeps and finite-difference oracles."""

__version__ = "0.1.0"

from .profile import (
    CurvatureProfile,
    GeometryAt,
    ProfileError,
    check_potential_identity,
    eval_geometry,
    tune_to_resonance,
)
from .vertex_spectrum import (
    CaseLabel,
    ShootingSolution,
    VertexSpectrum,
    classify,
    classify_case,
    eigenvalues,
    shoot,
)
from .kernels import (
    ExpDecay,
    GaussianPulse,
    HalfLineResolvent,
    Indicator,
    NearEigenvalueError,
    boundary_derivative,
    half_line_apply,
    neumann_free_kernel,
    vertex_kernel_at,
)
from .coupling import (
    CouplingCoefficients,
    KirchhoffProjector,
    SingularSystemError,
    asymptotic_deviation,
    kirchhoff_projector,
    resonant_projector,
    solve_coupling,
)
from .residual import (
    ApproxSolution,
    ResidualReport,
    assemble,
    residual_field,
    residual_norms,
    vertex_subtracted_norms,
)
from .graph_limit import (
    GraphResolvent,
    apply_resolvent,
    boundary_limits,
    decoupled_resolvent,
    kirchhoff_resolvent,
    limit_comparison,
    pi_theta_projector,
)
from .fd_oracle import (
    FDSolution,
    Grid1D,
    WaveguideGrid,
    fd_resolvent,
    fd_vertex_eigen,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    fit_slope,
    oracle_report,
    run_sweep,
)
