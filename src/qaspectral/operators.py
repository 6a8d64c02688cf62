# src/qaspectral/operators.py

"""Tuples of invertible commuting matrices.

An OperatorTuple tags its members with a commutation mode: "commuting"
requires T_i T_j = T_j T_i, "doubly_commuting" additionally requires
T_i T_j* = T_j* T_i for i != j.  Validation is numerical: a member is
singular when its smallest singular value is at most ABS_TOL, and a
commutator fails when its norm, scaled by the product of the operator
norms, exceeds ABS_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, PreconditionError
from .linalg import ABS_TOL, adjoint, as_matrix, op_norm

COMMUTING = "commuting"
DOUBLY_COMMUTING = "doubly_commuting"


@dataclass(frozen=True)
class OperatorTuple:
    matrices: tuple
    mode: str = COMMUTING
    # Largest scaled commutator norm observed during validation.
    commutation_residual: float = field(default=0.0, compare=False)

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def make_tuple(matrices, mode: str = COMMUTING) -> OperatorTuple:
    """Validate invertibility and the declared commutation mode.

    One SVD per member gives both its invertibility (smallest singular
    value above ABS_TOL) and its operator norm.
    """
    if mode not in (COMMUTING, DOUBLY_COMMUTING):
        raise InputError(f"unknown commutation mode {mode!r}")
    mats = tuple(as_matrix(M, f"T[{i}]") for i, M in enumerate(matrices))
    if not mats:
        raise InputError("operator tuple must be nonempty")
    if any(M.shape != mats[0].shape for M in mats):
        raise InputError("all tuple members must share one dimension")
    norms = []
    for i, M in enumerate(mats):
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= ABS_TOL:
            raise DomainError(f"tuple member {i} is singular")
        norms.append(float(s[0]))

    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            scale = max(norms[i] * norms[j], 1.0)
            comm = op_norm(mats[i] @ mats[j] - mats[j] @ mats[i]) / scale
            worst = max(worst, comm)
            if comm > ABS_TOL:
                raise PreconditionError(
                    f"members {i} and {j} do not commute (scaled residual {comm:.3e})"
                )
            if mode == DOUBLY_COMMUTING:
                adj = op_norm(
                    mats[i] @ adjoint(mats[j]) - adjoint(mats[j]) @ mats[i]
                ) / scale
                worst = max(worst, adj)
                if adj > ABS_TOL:
                    raise PreconditionError(
                        f"members {i} and {j} fail adjoint commutation "
                        f"(scaled residual {adj:.3e})"
                    )
    return OperatorTuple(matrices=mats, mode=mode, commutation_residual=worst)
