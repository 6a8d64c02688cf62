# src/qaspectral/annulus.py

"""Quantum-annulus membership, the defect, and the explicit dilation.

For a radius r > 1 the quantum annulus is the set of invertible T with
``||T|| <= r`` and ``||T^-1|| <= r``.  Membership is equivalent to
positivity of the Hermitian defect

    defect(T) = (r^2 + r^-2) I - T*T - (T*T)^-1,

and operators with a vanishing defect ("quantum annulus unitaries") have all
singular values in {r, 1/r}.  Every member extends to such an operator
on a doubled space via an explicit 2x2 block matrix; this module builds
that extension, the isometry criterion for A (x) J + B (x) J^{-*} and
its scalar solution family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, PreconditionError
from .linalg import (
    ABS_TOL,
    REL_TOL,
    adjoint,
    as_matrix,
    hermitian_part,
    kron,
    matrix_power,
    op_norm,
)


@dataclass(frozen=True)
class AnnulusParams:
    """Radius r > 1 with the constants that appear in every formula.

    c_r = r^2 + r^-2 is the defect offset, a_r = 1/sqrt(c_r) the biball
    scaling.  A radius whose c_r overflows a float is refused.
    """

    r: float
    c_r: float = field(init=False)
    a_r: float = field(init=False)

    def __post_init__(self) -> None:
        r = float(self.r)
        if not np.isfinite(r) or r <= 1.0:
            raise InputError(f"annulus radius must satisfy r > 1, got {r}")
        c_r = r * r + r ** -2
        if not np.isfinite(c_r):
            raise InputError(f"annulus radius {r} is too large: r^2 + r^-2 overflows")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c_r", c_r)
        object.__setattr__(self, "a_r", 1.0 / np.sqrt(c_r))


@dataclass(frozen=True)
class MembershipReport:
    in_qa: bool
    is_qa_unitary: bool
    norm_T: float
    norm_Tinv: float
    min_defect_eig: float
    routes_agree: bool
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "in_qa": self.in_qa,
            "is_qa_unitary": self.is_qa_unitary,
            "norm_T": self.norm_T,
            "norm_Tinv": self.norm_Tinv,
            "min_defect_eig": self.min_defect_eig,
            "routes_agree": self.routes_agree,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class DilationResult:
    """Extension of T to a quantum annulus unitary on the doubled space.

    compression_errors[n] is the deviation of the top-left block of
    hat_T^n from T^n; gram_error measures hat_T* hat_T against the
    closed-form block Gram matrix.
    """

    hat_T: np.ndarray
    defect_norm: float
    compression_errors: dict
    gram_error: float


def _gram_eig(T: np.ndarray):
    """Eigendecomposition of the Hermitian Gram matrix T*T."""
    P = hermitian_part(adjoint(T) @ T)
    w, V = np.linalg.eigh(P)
    return P, w, V


def annulus_defect(T, params: AnnulusParams) -> np.ndarray:
    """Hermitian defect c_r I - T*T - (T*T)^-1.

    Built from one eigendecomposition of T*T, so it commutes with T*T
    exactly in floating point.
    """
    A = as_matrix(T)
    _, w, V = _gram_eig(A)
    if w[0] <= ABS_TOL ** 2:
        raise DomainError("annulus_defect: matrix is not invertible")
    vals = params.c_r - w - 1.0 / w
    return hermitian_part((V * vals) @ V.conj().T)


def membership(T, params: AnnulusParams) -> MembershipReport:
    """Two-route membership check.

    The primary verdict (in_qa) comes from the norm route
    max(||T||, ||T^-1||) <= r + ABS_TOL.  The defect route recomputes
    it from the sign of the smallest defect eigenvalue; eigenvalues
    down to -ABS_TOL * c_r count as zero so that boundary operators
    with a singular value exactly at r remain members.  Both verdicts
    are reported and must agree for healthy inputs.
    """
    A = as_matrix(T)
    s = np.linalg.svd(A, compute_uv=False)
    norm_T = float(s[0])
    if s[-1] <= ABS_TOL:
        return MembershipReport(
            in_qa=False,
            is_qa_unitary=False,
            norm_T=norm_T,
            norm_Tinv=float("inf"),
            min_defect_eig=float("-inf"),
            routes_agree=True,
            reason="not invertible",
        )
    norm_Tinv = float(1.0 / s[-1])

    # Defect spectrum straight from the singular values: same numbers an
    # eigh of the defect would produce, without forming the matrix.
    w = s ** 2
    defect_eigs = params.c_r - w - 1.0 / w
    min_defect = float(defect_eigs.min())
    max_abs_defect = float(np.abs(defect_eigs).max())

    norm_route = max(norm_T, norm_Tinv) <= params.r + ABS_TOL
    defect_route = min_defect >= -ABS_TOL * params.c_r
    return MembershipReport(
        in_qa=norm_route,
        is_qa_unitary=max_abs_defect <= ABS_TOL,
        norm_T=norm_T,
        norm_Tinv=norm_Tinv,
        min_defect_eig=min_defect,
        routes_agree=norm_route == defect_route,
        reason="" if norm_route else "norm exceeds r",
    )


def dilate(
    T,
    params: AnnulusParams,
    n_range=range(-4, 5),
) -> DilationResult:
    """Explicit extension of T to a quantum annulus unitary on H + H.

    hat_T = [[T, T (T*T)^{-1/2} defect^{1/2}], [0, T^{-*}]].  The square
    roots of T*T and of the defect are formed in the one shared
    eigenbasis of T*T, which makes their commutativity exact.  The
    result records the defect norm of hat_T, the compression errors
    ||(hat_T^n)_{11} - T^n|| over n_range, and the deviation of
    hat_T* hat_T from the closed-form block Gram matrix.
    """
    A = as_matrix(T)
    report = membership(A, params)
    if not report.in_qa:
        raise PreconditionError(
            f"dilate requires membership in the quantum annulus ({report.reason or 'norms exceed r'})"
        )
    P, w, V = _gram_eig(A)
    defect_vals = params.c_r - w - 1.0 / w
    floor = -ABS_TOL * params.c_r
    if defect_vals.min() < floor:
        raise DomainError(
            f"defect eigenvalue {defect_vals.min():.3e} below the PSD floor {floor:.3e}"
        )
    defect_vals = np.maximum(defect_vals, 0.0)

    Vh = V.conj().T
    inv_sqrt_P = (V * (1.0 / np.sqrt(w))) @ Vh
    sqrt_P = (V * np.sqrt(w)) @ Vh
    sqrt_defect = (V * np.sqrt(defect_vals)) @ Vh
    coupling = A @ inv_sqrt_P @ sqrt_defect

    k = A.shape[0]
    T_inv_star = adjoint(np.linalg.inv(A))
    hat_T = np.zeros((2 * k, 2 * k), dtype=complex)
    hat_T[:k, :k] = A
    hat_T[:k, k:] = coupling
    hat_T[k:, k:] = T_inv_star

    defect_norm = op_norm(annulus_defect(hat_T, params))

    gram = np.zeros_like(hat_T)
    gram[:k, :k] = P
    gram[:k, k:] = sqrt_P @ sqrt_defect
    gram[k:, :k] = sqrt_defect @ sqrt_P
    gram[k:, k:] = params.c_r * np.eye(k) - P
    gram_error = op_norm(adjoint(hat_T) @ hat_T - gram)

    compression_errors = {}
    for n in n_range:
        n = int(n)
        block = matrix_power(hat_T, n)[:k, :k]
        compression_errors[n] = op_norm(block - matrix_power(A, n))

    return DilationResult(
        hat_T=hat_T,
        defect_norm=defect_norm,
        compression_errors=compression_errors,
        gram_error=gram_error,
    )


@dataclass(frozen=True)
class TensorCriterionReport:
    """Outcome of the isometry/unitary criterion for A (x) J + B (x) J^{-*}.

    residuals lists, in order: ||A*A - B*B||, ||A*B + B*A + c_r A*A - I||,
    ||C*C - I||, and in unitary mode additionally the three adjoint
    counterparts ||AA* - BB*||, ||AB* + BA* + c_r AA* - I||, ||CC* - I||.
    """

    operator_passes: bool
    conditions_pass: bool
    residuals: list


def tensor_criterion(
    A,
    B,
    J,
    params: AnnulusParams,
    mode: str = "isometry",
) -> TensorCriterionReport:
    """Check both sides of the isometry criterion for C = A (x) J + B (x) J^{-*}.

    Hypothesis: J is a quantum annulus unitary attaining
    ||J|| = ||J^-1|| = r; violating it is a precondition error rather
    than a silent pad.  The operator route tests C*C = I directly (and
    CC* = I in unitary mode); the condition route tests A*A = B*B and
    A*B + B*A + c_r A*A = I (plus adjoints).  The two verdicts agree
    on members of the hypothesis class.
    """
    if mode not in ("isometry", "unitary"):
        raise InputError(f"mode must be 'isometry' or 'unitary', got {mode!r}")
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    Jm = as_matrix(J, "J")
    if A.shape != B.shape:
        raise InputError("A and B must have the same shape")

    report = membership(Jm, params)
    if not report.is_qa_unitary:
        raise PreconditionError("tensor_criterion requires a quantum annulus unitary J")
    thr_norm = ABS_TOL + REL_TOL * params.r
    if abs(report.norm_T - params.r) > thr_norm or abs(report.norm_Tinv - params.r) > thr_norm:
        raise PreconditionError(
            "tensor_criterion requires ||J|| = ||J^-1|| = r "
            f"(got {report.norm_T:.6g}, {report.norm_Tinv:.6g})"
        )

    c_r = params.c_r
    eyeL = np.eye(A.shape[0])
    cond_residuals = [
        op_norm(adjoint(A) @ A - adjoint(B) @ B),
        op_norm(adjoint(A) @ B + adjoint(B) @ A + c_r * (adjoint(A) @ A) - eyeL),
    ]
    C = kron(A, Jm) + kron(B, adjoint(np.linalg.inv(Jm)))
    eyeC = np.eye(C.shape[0])
    op_residuals = [op_norm(adjoint(C) @ C - eyeC)]
    if mode == "unitary":
        cond_residuals += [
            op_norm(A @ adjoint(A) - B @ adjoint(B)),
            op_norm(A @ adjoint(B) + B @ adjoint(A) + c_r * (A @ adjoint(A)) - eyeL),
        ]
        op_residuals.append(op_norm(C @ adjoint(C) - eyeC))

    threshold = ABS_TOL * max(1.0, c_r)
    conditions_pass = all(x <= threshold for x in cond_residuals)
    operator_passes = all(x <= threshold for x in op_residuals)
    return TensorCriterionReport(
        operator_passes=operator_passes,
        conditions_pass=conditions_pass,
        residuals=[cond_residuals[0], cond_residuals[1], op_residuals[0]]
        + (cond_residuals[2:] + op_residuals[1:] if mode == "unitary" else []),
    )


@dataclass(frozen=True)
class ScalarPair:
    a: complex
    b: complex


def scalar_unitary_family(theta: float, params: AnnulusParams) -> ScalarPair:
    """Scalars (a, b) making a J + b J^{-*} unitary for every qa-unitary J
    with both norms equal to r: a = (c_r + 2 cos theta)^{-1/2}, b = a e^{i theta}.
    """
    a = 1.0 / np.sqrt(params.c_r + 2.0 * np.cos(theta))
    return ScalarPair(a=complex(a), b=complex(a * np.exp(1j * theta)))
