# src/qaspectral/bounds.py

"""Closed-form spectral-constant bounds and ratio measurement.

BOUND_KINDS is the one table of the bounds the laboratory verifies.
Each row names the tuples a bound covers and its closed form:

* annulus:         single operator,          2 (1 + 2 r^2 / (r^4 - 1))
* biannulus:       commuting pair,           4 + 4 q^{1/2} + q^2,
                                             q = (r^2+1)/(r^2-1)
* polyannulus_dc:  doubly commuting n-tuple, ((3 r^2 - 1) / (r^2 - 1))^n

The closed forms are evaluated in s = r^-2 (2 (1 + 2 s / (1 - s^2)),
q = (1 + s) / (1 - s), ((3 - s) / (1 - s))^n), so no finite r
overflows them; a power n too large for a float raises DomainError.

A spectral ratio is the operator norm of g applied to a tuple divided
by the certified sup norm of g on the distinguished boundary; observed
maxima are lower-bound witnesses, never estimates of the optimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType

from .annulus import AnnulusParams, membership
from .errors import DomainError, InputError, PreconditionError
from .laurent import BoundarySpec, LaurentPoly, eval_operators, sup_norm
from .linalg import op_norm
from .operators import OperatorTuple


def annulus_bound(r: float) -> float:
    s = r ** -2
    return 2.0 * (1.0 + 2.0 * s / (1.0 - s * s))


def biannulus_bound(r: float) -> float:
    s = r ** -2
    q = (1.0 + s) / (1.0 - s)
    return 4.0 + 4.0 * math.sqrt(q) + q * q


def polyannulus_dc_bound(r: float, n: int) -> float:
    s = r ** -2
    try:
        return ((3.0 - s) / (1.0 - s)) ** n
    except OverflowError:
        raise DomainError(
            f"the polyannulus_dc bound for r = {r}, n = {n} overflows a float"
        ) from None


@dataclass(frozen=True)
class BoundKind:
    """The tuples one bound covers and its value upper(r, n_vars)."""

    mode: str
    n_vars: int | None  # None: any n_vars >= 1
    upper: Callable[[float, int], float]


BOUND_KINDS = MappingProxyType({
    "annulus": BoundKind("single", 1, lambda r, n: annulus_bound(r)),
    "biannulus": BoundKind("commuting_pair", 2, lambda r, n: biannulus_bound(r)),
    "polyannulus_dc": BoundKind("doubly_commuting", None, polyannulus_dc_bound),
})


@dataclass(frozen=True)
class RatioReport:
    ratio: float
    g_norm_operator: float
    g_supnorm: float
    certified_error: float
    bound_used: float
    passed: bool


def spectral_ratio(
    T: OperatorTuple,
    g: LaurentPoly,
    params: AnnulusParams,
    bound: float = math.inf,
) -> RatioReport:
    """||g(T)|| over the certified sup of g on the distinguished boundary.

    Every tuple member must pass membership.  The pass flag compares
    the ratio against `bound` inflated by the certified relative error
    of the denominator.
    """
    if len(T) != g.n_vars:
        raise InputError(f"tuple length {len(T)} does not match n_vars {g.n_vars}")
    for i, M in enumerate(T):
        if not membership(M, params).in_qa:
            raise PreconditionError(f"tuple member {i} is not in the quantum annulus")

    g_op = op_norm(eval_operators(g, T))
    sup = sup_norm(g, BoundarySpec("polyannulus_distinguished", params.r))
    if sup.value <= 0.0:
        raise InputError("cannot form a ratio against the zero polynomial")
    ratio = g_op / sup.value
    return RatioReport(
        ratio=ratio,
        g_norm_operator=g_op,
        g_supnorm=sup.value,
        certified_error=sup.certified_error,
        bound_used=bound,
        passed=ratio <= bound * (1.0 + sup.relative_error),
    )
