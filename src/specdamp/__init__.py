"""Spectral analysis of damped second-order systems at finite matrix order.

The package studies x'' + K x + C x' = 0 for symmetric positive definite
stiffness K and symmetric positive semidefinite damping C through the
first-order phase operator [[0, I], [-K, -C]].  It computes the quadratic
pencil spectrum with structure-aware refinement, classifies eigenvalue
sign types in the indefinite phase-space product, checks the sufficient
conditions for overdamped decoupling and spectral splitting, and
integrates the contraction semigroup generated by the phase operator.
"""

from .conditions import (
    ConditionIII,
    ConditionIIVerdict,
    ConditionReport,
    MissingEssentialSpectrumProxy,
    OptimizerDisagreement,
    OverdampingReport,
    PatchThresholdEntry,
    PatchThresholdReport,
    check_condition_ii,
    check_condition_iii,
    check_overdamping,
    condition_report,
    patch_threshold_report,
    riesz_basis_condition_number,
)
from .krein import (
    ClusterClassification,
    Decomposition,
    IllConditionedCluster,
    MixedClusterObstruction,
    NondegeneracyReport,
    SignClassification,
    classify_eigenpairs,
    decompose,
    indefinite_product,
    kernel_gram_nondegeneracy,
)
from .linalg import (
    LinalgError,
    NoConvergence,
    NotPositiveDefinite,
    Singular,
)
from .model import (
    BeamSpec,
    InvalidModel,
    Patch,
    PhaseVector,
    SystemModel,
    ValidationReport,
    beam_assemble,
    beam_frequencies,
    perturbed_kelvin_voigt,
    phase_operator,
    phase_operator_inverse,
)
from .semigroup import (
    NearSpectrum,
    ResolventScan,
    TrajectoryReport,
    energy,
    evolve,
    propagator,
    resolvent_norm_at,
    resolvent_scan,
    smoothing_probe,
)
from .spectrum import (
    AccumulationReport,
    EigenvalueBound,
    SpectrumReport,
    accumulation_experiment,
    eigenvalue_lower_bound,
    eigenvectors,
    quadratic_pencil,
    solve_qep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AccumulationReport",
    "BeamSpec",
    "ClusterClassification",
    "ConditionIII",
    "ConditionIIVerdict",
    "ConditionReport",
    "Decomposition",
    "EigenvalueBound",
    "IllConditionedCluster",
    "InvalidModel",
    "LinalgError",
    "MissingEssentialSpectrumProxy",
    "MixedClusterObstruction",
    "NearSpectrum",
    "NoConvergence",
    "NondegeneracyReport",
    "NotPositiveDefinite",
    "OptimizerDisagreement",
    "OverdampingReport",
    "Patch",
    "PatchThresholdEntry",
    "PatchThresholdReport",
    "PhaseVector",
    "ResolventScan",
    "SignClassification",
    "Singular",
    "SpectrumReport",
    "SystemModel",
    "TrajectoryReport",
    "ValidationReport",
    "accumulation_experiment",
    "beam_assemble",
    "beam_frequencies",
    "check_condition_ii",
    "check_condition_iii",
    "check_overdamping",
    "classify_eigenpairs",
    "condition_report",
    "decompose",
    "energy",
    "eigenvalue_lower_bound",
    "eigenvectors",
    "evolve",
    "indefinite_product",
    "kernel_gram_nondegeneracy",
    "patch_threshold_report",
    "perturbed_kelvin_voigt",
    "phase_operator",
    "phase_operator_inverse",
    "propagator",
    "quadratic_pencil",
    "resolvent_norm_at",
    "resolvent_scan",
    "smoothing_probe",
    "solve_qep",
]
