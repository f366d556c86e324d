"""Transmutation-operator numerics for perturbed Bessel equations.

Builds the Volterra integral kernel that maps solutions of the
unperturbed radial equation into regular solutions of

    -u'' + (l(l+1)/x^2 + q(x)) u = omega^2 u   on (0, b],

represents solutions as truncated Neumann-type series whose error is
uniform in omega, and solves Dirichlet spectral problems on top of that
representation.  See the README for the pipeline and the CLI.
"""

from .coeffs import BetaTable, compute_beta, eval_R, unperturbed_term
from .errors import (
    AccuracyWarning,
    DomainError,
    IllConditionedFit,
    IntegrationFailure,
    NearDiagonalError,
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
    poisson_transform,
)
from .oracle import (
    ProblemSetup,
    SolutionSample,
    exact_solution_harmonic,
    make_potential,
    regular_solution_ode,
    regular_solutions,
    zero_count,
)
from .solution import (
    SolutionEvaluator,
    integral_row,
    solution_evaluator,
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
    "exact_solution_harmonic",
    # coefficients
    "BetaTable",
    "compute_beta",
    "eval_R",
    "unperturbed_term",
    # kernel
    "KernelSeries",
    "make_kernel_series",
    "kernel_K",
    "kernel_moment",
    "epsilon_N",
    "apply_transmutation",
    "poisson_transform",
    # solution
    "integral_row",
    "SolutionEvaluator",
    "solution_evaluator",
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
    "NearDiagonalError",
    "AccuracyWarning",
]
