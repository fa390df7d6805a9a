"""Heavy-tailed maximum-entropy queue model.

The packet-count law maximizing Tsallis entropy under a mean constraint
is a Zipf-Mandelbrot distribution whose normalizer is a Hurwitz zeta
value.  This package evaluates that law and its QoS metrics, recovers
the Lagrange multiplier from a target mean, bridges to the Norros
storage model through the Hurst parameter, and fits the two candidate
rho(beta) relationships.
"""

from . import errors
from .distribution import (
    QosReport,
    QueueModel,
    TailAsymptote,
    log_pmf,
    mean,
    moment,
    pmf,
    qos_report,
    tail,
    tail_asymptote,
    utilization,
    variance,
)
from .fitting import (
    CorrespondenceRecord,
    FitReport,
    evaluate_fit,
    fit_model_i,
    fit_model_ii,
    generate_correspondence,
)
from .norros import hurst_from_q, norros_mean, norros_rho, q_from_hurst
from .solver import SolverConfig, SolverResult, mean_residual, newton_step, solve_beta
from .zeta import hurwitz_zeta, log_hurwitz_zeta, scaled_hurwitz_zeta

__version__ = "0.1.0"

__all__ = [
    "errors",
    "QueueModel",
    "QosReport",
    "TailAsymptote",
    "pmf",
    "log_pmf",
    "tail",
    "tail_asymptote",
    "mean",
    "moment",
    "variance",
    "utilization",
    "qos_report",
    "SolverConfig",
    "SolverResult",
    "mean_residual",
    "newton_step",
    "solve_beta",
    "norros_mean",
    "norros_rho",
    "q_from_hurst",
    "hurst_from_q",
    "CorrespondenceRecord",
    "FitReport",
    "generate_correspondence",
    "fit_model_i",
    "fit_model_ii",
    "evaluate_fit",
    "hurwitz_zeta",
    "log_hurwitz_zeta",
    "scaled_hurwitz_zeta",
    "__version__",
]
