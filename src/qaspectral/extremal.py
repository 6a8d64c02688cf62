# src/qaspectral/extremal.py

"""Finite models of the extremal weighted shift and the lower-bound scan.

The witness family lives on a 2p-dimensional cycle: a weighted cyclic
shift whose weights are p copies of r followed by p copies of 1/r (the
periodic weight profile of the bilateral construction, wrapped).  Its
singular values are exactly the weights, so the model is always a
quantum annulus unitary, and unlike a truncated bilateral shift it
stays invertible.

The test functions are g_m(z) = r^-m (z^m + z^-m), whose sup over the
closed annulus is exactly 1 + r^-2m (attained at z = r).  The scan
records the ratio ||g_m(S)|| / (1 + r^-2m) over a (p, m) grid; the best
witness for a given m sits on the diagonal p = m, where the wraparound
makes the ratio exactly 2 r^m / (r^m + r^-m).  For p >> m the finite
model settles near sqrt(2); both regimes are recorded, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annulus import AnnulusParams
from .bounds import annulus_bound, polyannulus_dc_bound
from .errors import InputError, PreconditionError, ResourceError
from .laurent import LaurentPoly
from .linalg import DIMENSION_CAP, kron, matrix_power, op_norm


@dataclass(frozen=True)
class ShiftModel:
    p: int
    r: float
    weights: np.ndarray
    S: np.ndarray = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.p


def cyclic_shift_model(p: int, params: AnnulusParams) -> ShiftModel:
    """Cyclic weighted shift S e_k = w_k e_{k+1 mod 2p}.

    The weight product is 1, both S and its inverse have norm r, and
    the defect vanishes: the model is a quantum annulus unitary by
    construction.
    """
    if p < 1:
        raise InputError("half-period p must be a positive integer")
    dim = 2 * p
    if dim > DIMENSION_CAP:
        raise ResourceError(f"shift dimension {dim} exceeds cap {DIMENSION_CAP}")
    r = params.r
    weights = np.array([r] * p + [1.0 / r] * p)
    S = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        S[(k + 1) % dim, k] = weights[k]
    return ShiftModel(p=p, r=r, weights=weights, S=S)


def witness_function(m: int, params: AnnulusParams) -> LaurentPoly:
    """g_m(z) = r^-m (z^m + z^-m); sup over the closed annulus is 1 + r^-2m."""
    if m < 1:
        raise InputError("m must be a positive integer")
    c = params.r ** (-m)
    return LaurentPoly(1, {(m,): c, (-m,): c})


def witness_supnorm(m: int, params: AnnulusParams) -> float:
    return 1.0 + params.r ** (-2 * m)


def shift_witness_norm(model: ShiftModel, m: int) -> float:
    """Dense operator norm of g_m(S) for the cyclic model."""
    if m > model.p:
        raise PreconditionError(
            f"m = {m} exceeds p = {model.p}: no m-step run of equal weights"
        )
    r = model.r
    G = r ** (-m) * (matrix_power(model.S, m) + matrix_power(model.S, -m))
    return op_norm(G)


@dataclass(frozen=True)
class ScanRow:
    p: int
    m: int
    n: int
    ratio: float
    reference: float
    upper: float

    @property
    def passed(self) -> bool:
        return self.ratio <= self.upper * (1.0 + 1e-12)


@dataclass(frozen=True)
class ScanTable:
    r: float
    n: int
    rows: list

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def witness(self, m: int) -> float:
        """Best (largest) ratio observed for a given m across all p."""
        vals = [row.ratio for row in self.rows if row.m == m]
        if not vals:
            raise InputError(f"no scan rows for m = {m}")
        return max(vals)

    def csv_lines(self):
        yield "p,m,n,ratio,reference,upper"
        for row in self.rows:
            yield f"{row.p},{row.m},{row.n},{row.ratio!r},{row.reference!r},{row.upper!r}"


def verify_tensor_multiplicativity(
    params: AnnulusParams, p: int = 4, m: int = 2, rel_tol: float = 1e-10
) -> float:
    """Check ||g_m(S) (x) g_m(S)|| = ||g_m(S)||^2 on a small instance.

    Returns the relative deviation; raises when it exceeds rel_tol.
    This is what justifies reporting n-variable ratios as powers of the
    one-variable ratio instead of materialising (2p)^n tensors.
    """
    model = cyclic_shift_model(p, params)
    G = params.r ** (-m) * (matrix_power(model.S, m) + matrix_power(model.S, -m))
    single = op_norm(G)
    double = op_norm(kron(G, G))
    rel = abs(double - single ** 2) / single ** 2
    if rel > rel_tol:
        raise PreconditionError(
            f"tensor norm multiplicativity failed: relative deviation {rel:.3e}"
        )
    return rel


def lower_bound_scan(
    params: AnnulusParams,
    p_list,
    m_list,
    n: int = 1,
) -> ScanTable:
    """Ratio table over the (p, m) grid for n-variable tensor tuples.

    Each row records ratio = (||g_m(S_p)|| / (1 + r^-2m))^n next to the
    bilateral reference (2 r^m / (r^m + r^-m))^n and the applicable
    upper bound (the single-operator bound for n = 1, the doubly
    commuting product bound otherwise).  Rows are emitted in (p, m)
    lexicographic order.  A model only makes sense for m <= p (an
    m-step run of equal weights must exist), so grid cells with m > p
    are skipped; an m with no feasible p at all is an error.
    """
    p_list = sorted(set(int(p) for p in p_list))
    m_list = sorted(set(int(m) for m in m_list))
    if not p_list or not m_list:
        raise InputError("p_list and m_list must be nonempty")
    if n < 1:
        raise InputError("n must be a positive integer")
    if max(m_list) > max(p_list):
        raise PreconditionError(
            f"m = {max(m_list)} has no feasible half-period in p_list "
            f"(largest is {max(p_list)})"
        )
    if n >= 2:
        p0 = min(4, max(p_list))
        verify_tensor_multiplicativity(params, p=p0, m=min(2, p0))

    upper = annulus_bound(params.r) if n == 1 else polyannulus_dc_bound(params.r, n)
    rows = []
    for p in p_list:
        model = cyclic_shift_model(p, params)
        for m in m_list:
            if m > p:
                continue
            ratio1 = shift_witness_norm(model, m) / witness_supnorm(m, params)
            reference1 = 2.0 * params.r ** m / (params.r ** m + params.r ** (-m))
            rows.append(
                ScanRow(
                    p=p,
                    m=m,
                    n=n,
                    ratio=ratio1 ** n,
                    reference=reference1 ** n,
                    upper=upper,
                )
            )
    return ScanTable(r=params.r, n=n, rows=rows)
