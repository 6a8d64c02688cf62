# src/qaspectral/__init__.py

"""Numerical laboratory for spectral constants of the quantum annulus."""

__version__ = "0.1.0"

from .annulus import (
    AnnulusParams,
    DilationResult,
    MembershipReport,
    annulus_defect,
    dilate,
    membership,
    scalar_unitary_family,
    tensor_criterion,
)
from .bounds import (
    BOUND_KINDS,
    RatioReport,
    annulus_bound,
    biannulus_bound,
    polyannulus_dc_bound,
    spectral_ratio,
)
from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    QASpectralError,
    ResourceError,
)
from .extremal import (
    ScanTable,
    ShiftModel,
    cyclic_shift_model,
    lower_bound_scan,
    witness_function,
)
from .harness import (
    ExperimentConfig,
    Report,
    gen_qa_operator,
    gen_tuple,
    run_experiment,
)
from .hyperbola import BiballLift, biball_lift
from .laurent import (
    BoundarySpec,
    LaurentPoly,
    SignPattern,
    bivariate_part_bounds,
    cauchy_check,
    coefficients_from_samples,
    decompose_2n,
    eval_operators,
    eval_point,
    sign_pattern_bound,
    sup_norm,
    verify_decomposition_estimates,
)
from .linalg import kron, op_norm
from .operators import OperatorTuple, make_tuple

__all__ = [
    "AnnulusParams",
    "BOUND_KINDS",
    "BiballLift",
    "BoundarySpec",
    "DilationResult",
    "DomainError",
    "ExperimentConfig",
    "InputError",
    "LaurentPoly",
    "MembershipReport",
    "OperatorTuple",
    "PreconditionError",
    "QASpectralError",
    "RatioReport",
    "Report",
    "ResourceError",
    "ScanTable",
    "ShiftModel",
    "SignPattern",
    "annulus_bound",
    "annulus_defect",
    "biannulus_bound",
    "biball_lift",
    "bivariate_part_bounds",
    "cauchy_check",
    "coefficients_from_samples",
    "cyclic_shift_model",
    "decompose_2n",
    "dilate",
    "eval_operators",
    "eval_point",
    "gen_qa_operator",
    "gen_tuple",
    "kron",
    "lower_bound_scan",
    "make_tuple",
    "membership",
    "op_norm",
    "polyannulus_dc_bound",
    "run_experiment",
    "scalar_unitary_family",
    "sign_pattern_bound",
    "spectral_ratio",
    "sup_norm",
    "tensor_criterion",
    "verify_decomposition_estimates",
    "witness_function",
]
