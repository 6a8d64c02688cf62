# src/qaspectral/__init__.py

"""Numerical laboratory for spectral constants of the quantum annulus."""

__version__ = "0.1.0"

from .annulus import (
    AnnulusParams,
    DilationResult,
    MembershipReport,
    annulus_defect,
    associated_unitary,
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
from .hyperbola import BiballLift, VarietyPoint, biball_lift, boundary_probe, phi_map
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
    split_univariate,
    sup_norm,
    verify_decomposition_estimates,
)
from .linalg import Tolerance, kron, op_norm, psd_sqrt
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
    "Tolerance",
    "VarietyPoint",
    "annulus_bound",
    "annulus_defect",
    "associated_unitary",
    "biannulus_bound",
    "biball_lift",
    "bivariate_part_bounds",
    "boundary_probe",
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
    "phi_map",
    "polyannulus_dc_bound",
    "psd_sqrt",
    "run_experiment",
    "scalar_unitary_family",
    "sign_pattern_bound",
    "spectral_ratio",
    "split_univariate",
    "sup_norm",
    "tensor_criterion",
    "verify_decomposition_estimates",
    "witness_function",
]
