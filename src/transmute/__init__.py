"""Transmutation-operator numerics for perturbed Bessel equations.

Builds the Volterra integral kernel that maps solutions of the
unperturbed radial equation into regular solutions of

    -u'' + (l(l+1)/x^2 + q(x)) u = omega^2 u   on (0, b],

represents solutions as truncated Neumann-type series whose error is
uniform in omega, and solves Dirichlet spectral problems on top of that
representation.  See the README for the pipeline and the CLI.
"""

from .coeffs import BetaTable, compute_beta, unperturbed_term
from .errors import (
    AccuracyWarning,
    DomainError,
    IllConditionedFit,
    IntegrationFailure,
    QuadratureError,
    TransmuteError,
)
from .kernel import (
    KernelSeries,
    apply_transmutation,
    epsilon_N,
    kernel_K,
    kernel_moment,
    make_kernel_series,
)
from .oracle import (
    ProblemSetup,
    SolutionSample,
    make_potential,
    regular_solution_ode,
    regular_solutions,
    zero_count,
)
from .solution import (
    integral_row,
    sup_sqrt_bessel,
    u_N,
    uniform_error_bound,
)
from .spectral import (
    HARMONIC_L1_EIGENVALUES,
    SpectrumReport,
    choose_N,
    default_fit_size,
    dirichlet_eigenvalues,
    oracle_eigenvalues,
)
from .validation import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # problem data and oracle
    "ProblemSetup",
    "SolutionSample",
    "make_potential",
    "regular_solution_ode",
    "regular_solutions",
    "zero_count",
    # coefficients
    "BetaTable",
    "compute_beta",
    "unperturbed_term",
    # kernel
    "KernelSeries",
    "make_kernel_series",
    "kernel_K",
    "kernel_moment",
    "epsilon_N",
    "apply_transmutation",
    # solution
    "integral_row",
    "u_N",
    "uniform_error_bound",
    "sup_sqrt_bessel",
    # spectra
    "SpectrumReport",
    "choose_N",
    "default_fit_size",
    "dirichlet_eigenvalues",
    "oracle_eigenvalues",
    "HARMONIC_L1_EIGENVALUES",
    # validation
    "CheckResult",
    "run_validation",
    # errors
    "TransmuteError",
    "DomainError",
    "IntegrationFailure",
    "IllConditionedFit",
    "QuadratureError",
    "AccuracyWarning",
]
