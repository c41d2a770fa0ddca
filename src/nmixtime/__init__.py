"""Abundance-mixture detection models with search-time and time-to-detection data.

Exact closed-form likelihoods, a truncated-summation cross-check oracle,
a faithful forward simulator, and maximum-likelihood fitting for repeated
site surveys where a latent Poisson abundance drives what gets detected.
"""

from .errors import (
    DataFormatError,
    LikelihoodDomainError,
    NMixTimeError,
    OracleConvergenceError,
    SeriesConvergenceError,
)
from .estimate import FitResult, ProfileResult, default_init, fit, profile_loglik
from .likelihood import (
    LogLik,
    irrelevant_constants,
    total_loglik,
)
from .model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SiteRecord,
    SiteWorkspace,
    SurveyDesign,
    Violation,
    Visits,
    build_workspace,
    validate_dataset,
)
from .oracle import OracleConfig, oracle_site_loglik, oracle_site_logliks, oracle_total_loglik
from .simulate import SimConfig, empirical_pmf_check, simulate_dataset, simulate_with_latent

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "Dataset",
    "Family",
    "FitResult",
    "LikelihoodDomainError",
    "LogLik",
    "NMixTimeError",
    "ObservationProcess",
    "OracleConfig",
    "OracleConvergenceError",
    "Parameterization",
    "ProfileResult",
    "Protocol",
    "SeriesConvergenceError",
    "SimConfig",
    "SiteRecord",
    "SiteWorkspace",
    "SurveyDesign",
    "Violation",
    "Visits",
    "build_workspace",
    "default_init",
    "empirical_pmf_check",
    "fit",
    "irrelevant_constants",
    "oracle_site_loglik",
    "oracle_site_logliks",
    "oracle_total_loglik",
    "profile_loglik",
    "simulate_dataset",
    "simulate_with_latent",
    "total_loglik",
    "validate_dataset",
    "__version__",
]
