# src/qaspectral/hyperbola.py

"""The biball lift of a quantum-annulus operator.

The annulus embeds into the variety zw = 1/c_r inside the Euclidean
biball through z -> (a_r z, a_r / z).  Lifting an operator T through
the doubled-space extension produces a commuting pair (A_hat, B_hat)
sitting on the operator version of that variety, together with a
unitary combination used in the second route to the single-operator
bound.  The product defect ||A_hat B_hat - I / c_r|| certifies that
the pair lies on the variety, and with it every joint eigenvalue pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annulus import AnnulusParams, dilate, membership
from .errors import DomainError, PreconditionError
from .linalg import DEFAULT_TOL, Tolerance, adjoint, as_matrix, op_norm


@dataclass(frozen=True)
class BiballLift:
    A_hat: np.ndarray
    B_hat: np.ndarray
    U: np.ndarray
    unitary_defect: float
    product_defect: float


def biball_lift(T, params: AnnulusParams, tol: Tolerance = DEFAULT_TOL) -> BiballLift:
    """Lift T through the doubled-space extension onto the biball variety.

    A_hat = a_r hat_T and B_hat = a_r hat_T^-1 satisfy
    A_hat B_hat = I / c_r, and U = (sqrt(r^4 + 1) / (r^2 + 1)) (A_hat + B_hat*)
    is unitary.  The scale is evaluated as sqrt(1 + s^2) / (1 + s) with
    s = r^-2, so no accepted r overflows it.
    """
    A = as_matrix(T)
    if not membership(A, params, tol).in_qa:
        raise PreconditionError("biball_lift requires membership in the quantum annulus")
    hat = dilate(A, params, n_range=(), tol=tol).hat_T
    A_hat = params.a_r * hat
    B_hat = params.a_r * np.linalg.inv(hat)
    s = params.r ** -2
    U = (math.sqrt(1.0 + s * s) / (1.0 + s)) * (A_hat + adjoint(B_hat))

    eye = np.eye(hat.shape[0])
    unitary_defect = op_norm(adjoint(U) @ U - eye)
    product_defect = op_norm(A_hat @ B_hat - eye / params.c_r)

    if unitary_defect > max(tol.abs, 1e3 * np.finfo(float).eps * params.c_r):
        raise DomainError(
            f"biball unitary failed its check: ||U*U - I|| = {unitary_defect:.3e}"
        )
    return BiballLift(
        A_hat=A_hat,
        B_hat=B_hat,
        U=U,
        unitary_defect=unitary_defect,
        product_defect=product_defect,
    )
