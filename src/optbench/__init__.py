"""optbench: stochastic optimizers with adaptive global learning rates and a
synthetic least-squares experiment harness."""

__version__ = "0.1.0"

from .linalg import haar_orthogonal, householder_qr, jacobi_eigh, project_box, sym_eigh
from .optim import ALGORITHMS, Optimizer, OptimizerConfig
from .problems import (
    GenSpec,
    OnlineProblem,
    QuadraticProblem,
    exponential_oracle,
    full_gradient,
    full_loss,
    generate_from_seed,
    generate_least_squares,
    logistic_oracle,
    make_online_problem,
    make_rotated_2d,
    min_norm_solution,
    problem_from_data,
    regret,
    ridge_solution,
    stochastic_gradient,
)
from .experiments import Trace, run_trajectory

__all__ = [
    "__version__",
    "ALGORITHMS",
    "GenSpec",
    "OnlineProblem",
    "Optimizer",
    "OptimizerConfig",
    "QuadraticProblem",
    "Trace",
    "exponential_oracle",
    "full_gradient",
    "full_loss",
    "generate_from_seed",
    "generate_least_squares",
    "haar_orthogonal",
    "householder_qr",
    "jacobi_eigh",
    "logistic_oracle",
    "make_online_problem",
    "make_rotated_2d",
    "min_norm_solution",
    "problem_from_data",
    "project_box",
    "regret",
    "ridge_solution",
    "run_trajectory",
    "stochastic_gradient",
    "sym_eigh",
]
