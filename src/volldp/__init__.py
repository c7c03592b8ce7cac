"""Simulation and large-deviation analysis of Volterra-driven volatility models.

The package is organized bottom-up:

* :mod:`volldp.kernels` -- Volterra kernel families, quadrature, rescaling
* :mod:`volldp.gaussian` -- driver sampling, covariance, deterministic replay
* :mod:`volldp.model` -- coefficient maps, Euler scheme, assumption checks
* :mod:`volldp.ratefn` -- rate functionals and their minimization
* :mod:`volldp.asymptotics` -- tail estimators, slope fits, short-time routes
* :mod:`volldp.config` / :mod:`volldp.cli` -- experiment files and driver
* :mod:`volldp.selftest` -- property checks shared by ``volldp selftest``
  and the test suite
"""

from .errors import (
    ConfigurationError,
    DomainError,
    NonFinitePathError,
    OptimizationError,
    QuadratureError,
    SingularDiffusionError,
    ValidationError,
    VolldpError,
)
from .grids import TimeGrid
from .kernels import (
    FractionalOUKernel,
    KernelBank,
    LogFbmKernel,
    MolchanGolosovKernel,
    RescaledKernel,
    RiemannLiouvilleKernel,
    ScalingSchedule,
    VolterraKernel,
    kernel_l2_slice,
    make_kernel,
    rescale_kernel,
)
from .gaussian import (
    covariance_matrix,
    discretize_kernel,
    draw_driver_arrays,
    path_normals,
    replay_volterra,
    terminal_variance_bound,
)
from .model import (
    AffineMap,
    ConstantMap,
    EulerPaths,
    ExpLinearMap,
    ModelCoefficients,
    ProbeLattice,
    Scaling,
    ValidationReport,
    euler_paths_array,
    make_map,
    validate_coefficients,
)
from .ratefn import (
    CameronMartinPath,
    MultistartSpreadWarning,
    OptimizerConfig,
    RateSolution,
    gamma_functional,
    hat_map,
    i_uncorrelated,
    i_z,
    i_z_m,
    terminal_rate,
)
from .asymptotics import (
    ShortTimeReport,
    SlopeEstimate,
    TailEstimate,
    TerminalHalfSpace,
    equivalence_diagnostic,
    estimate_tail_prob,
    ldp_slope,
    short_time_direct,
    short_time_report,
    short_time_values,
    tilted_estimate,
)
from .config import ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"
