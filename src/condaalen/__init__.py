"""Conditional hazard and occupation estimation for jump processes.

Estimates cumulative transition hazards and state occupation
probabilities for right-censored finite-state jump processes,
conditionally on covariates, by kernel-weighting the classical
counting-process estimators. Ships plug-in covariance estimation, a
simulation engine with exact oracles, and an acceptance check suite.
"""

from .covariance import (
    CovarianceSurface,
    InfluenceCurve,
    default_surface_grid,
    hazard_covariance,
    influence_gamma,
    influence_zeta,
    occupation_covariance,
)
from .data import (
    ABSORBED,
    CENSORED,
    EvalPoint,
    ObservedPath,
    ParseError,
    Sample,
    StateSpace,
    ValidationError,
    counting_increments,
    load_sample,
    validate,
    write_sample,
)
from .estimators import (
    FitResult,
    HazardEstimate,
    OccupationEstimate,
    aalen_johansen,
    event_grid,
    fit,
    nelson_aalen,
    product_integral,
)
from .kernels import (
    KernelSpec,
    NoKernelMass,
    WeightVector,
    bandwidth,
    kernel_eval,
    kernel_l2,
    nw_weights,
    phi_estimate,
)
from .simulate import (
    CensoringSpec,
    IntensitySpec,
    brute_force_estimator,
    compile_expression,
    default_scenario,
    default_scenario_json,
    load_scenario,
    markov_occupation_oracle,
    simulate_path,
    simulate_sample,
)
from .stepfun import StepCurve, StepMatrix

__version__ = "0.1.0"

__all__ = [
    "ABSORBED",
    "CENSORED",
    "CensoringSpec",
    "CovarianceSurface",
    "EvalPoint",
    "FitResult",
    "HazardEstimate",
    "InfluenceCurve",
    "IntensitySpec",
    "KernelSpec",
    "NoKernelMass",
    "ObservedPath",
    "OccupationEstimate",
    "ParseError",
    "Sample",
    "StateSpace",
    "StepCurve",
    "StepMatrix",
    "ValidationError",
    "WeightVector",
    "aalen_johansen",
    "bandwidth",
    "brute_force_estimator",
    "compile_expression",
    "counting_increments",
    "default_scenario",
    "default_scenario_json",
    "default_surface_grid",
    "event_grid",
    "fit",
    "hazard_covariance",
    "influence_gamma",
    "influence_zeta",
    "kernel_eval",
    "kernel_l2",
    "load_sample",
    "load_scenario",
    "markov_occupation_oracle",
    "nelson_aalen",
    "nw_weights",
    "occupation_covariance",
    "phi_estimate",
    "product_integral",
    "simulate_path",
    "simulate_sample",
    "validate",
    "write_sample",
    "__version__",
]
