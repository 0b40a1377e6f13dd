"""Exact and numerical checks for key distillation and diffusion claims.

The package bundles eight units: shared exact/float primitives, Gauss
quadrature, entropy orders and estimators, universal hashing with key
uniformity bounds, the same bounds with a commuting side register,
first-return generating functions for finite chains, Gaussian averaging
semigroups, and bridge-refined path ensembles.
"""

from .core import (
    Alphabet,
    FiniteDistribution,
    StateDensity,
    format_rational,
    parse_rational,
)
from .entropy import (
    ContinuousDensity,
    aep_estimate,
    differential_entropy,
    divergence_report,
    entropy_report,
    renyi_divergence,
    renyi_entropy,
)
from .hashing import (
    HashFamily,
    build_family,
    joint_state,
    lhl_bound,
    lhl_distance,
    lhl_report,
)
from .markov import (
    Poly,
    RationalFunction,
    TransitionMatrix,
    first_return,
    markov_report,
    n_step,
    radius_of_convergence,
    resolvent,
    theta_gf,
)
from .quantum import (
    CqKeyState,
    Ensemble,
    Povm,
    basis_plus_mixed_ensemble,
    e_gen,
    e_opt,
    hashed_joint_blocks,
    phi_report,
    pretty_good_measurement,
    tripartite_distance,
    tripartite_report,
)
from .semigroup import (
    CovSpec,
    QuadratureWarning,
    apply,
    build_sigma,
    check_contraction,
    check_semigroup,
    determinant_closed,
    determinant_lu,
    inverse_sigma,
    kernel_pdf,
)
from .treeproc import (
    MAX_PATH_CELLS,
    PathEnsemble,
    grid_factor,
    increment_stats,
    refinement_delta,
    simulate,
    simulate_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "FiniteDistribution", "StateDensity", "format_rational",
    "parse_rational",
    "ContinuousDensity", "aep_estimate",
    "differential_entropy", "divergence_report", "entropy_report",
    "renyi_divergence", "renyi_entropy",
    "HashFamily", "build_family", "joint_state", "lhl_bound",
    "lhl_distance", "lhl_report",
    "Poly", "RationalFunction", "TransitionMatrix", "first_return",
    "markov_report", "n_step", "radius_of_convergence", "resolvent",
    "theta_gf",
    "CqKeyState", "Ensemble", "Povm", "basis_plus_mixed_ensemble",
    "e_gen", "e_opt", "hashed_joint_blocks",
    "phi_report", "pretty_good_measurement",
    "tripartite_distance", "tripartite_report",
    "CovSpec", "QuadratureWarning", "apply", "build_sigma",
    "check_contraction", "check_semigroup", "determinant_closed",
    "determinant_lu", "inverse_sigma", "kernel_pdf",
    "MAX_PATH_CELLS", "PathEnsemble", "grid_factor", "increment_stats",
    "refinement_delta", "simulate", "simulate_ensemble",
    "__version__",
]
