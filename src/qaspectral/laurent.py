# src/qaspectral/laurent.py

"""Laurent polynomials in several variables.

A LaurentPoly is a finite map from integer exponent vectors to complex
coefficients.  The module provides point and operator evaluation,
certified supremum norms on polycircle boundaries, coefficient
extraction by discrete contour quadrature, the 2^n sign-pattern
decomposition, and the closed-form decomposition estimates.

Sup norms are certified: the reported value is the maximum of |g| over
a uniform N-point-per-circle grid, so it is |g| at the reported grid
point up to FFT roundoff, and the certified error bounds the gap to the
true supremum via the coefficient-based angular-derivative bound

    D = sum_nu |a_nu| (sum_i |nu_i|) prod_i rho_i^{nu_i},

so |sup - value| <= D * pi / N.

The grid maximum is found without evaluating the whole grid.  Each
torus has the l1 bound sum_nu |a_nu| prod_i rho_i^{nu_i} >= |g|; tori
are visited in decreasing l1 order, and a torus whose bound cannot beat
the running maximum is skipped with no FFT.  Within a torus, 1-D slices
are bounded the same way and only those above the running maximum,
shared across tori, are evaluated.  Skipped tori still enter D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .annulus import AnnulusParams
from .errors import DomainError, InputError, ResourceError
from .linalg import DEFAULT_TOL, Tolerance, is_json_number
from .operators import OperatorTuple, make_tuple

# Grid floor for certified sup norms: at least this many samples per
# circle, and at least 32 per unit of total degree.
MIN_SAMPLES = 256
SAMPLES_PER_DEGREE = 32
# Grid evaluations building a complex array above this many entries are
# refused.
GRID_CAP = 2 ** 24


class LaurentPoly:
    """Finite-support Laurent polynomial in n variables.

    Zero coefficients are never stored; exponent keys are integer
    tuples of length n_vars.
    """

    __slots__ = ("n_vars", "coeffs")

    def __init__(self, n_vars: int, coeffs=None):
        if n_vars < 1:
            raise InputError("n_vars must be a positive integer")
        self.n_vars = int(n_vars)
        table = {}
        for exp, c in (coeffs or {}).items():
            key = tuple(int(e) for e in (exp if isinstance(exp, (tuple, list)) else (exp,)))
            if len(key) != self.n_vars:
                raise InputError(
                    f"exponent {key} has length {len(key)}, expected {self.n_vars}"
                )
            c = complex(c)
            if c != 0:
                table[key] = table.get(key, 0j) + c
        self.coeffs = {k: v for k, v in table.items() if v != 0}

    @property
    def max_abs_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(abs(e) for e in exp) for exp in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.n_vars == other.n_vars
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"LaurentPoly(n_vars={self.n_vars}, terms={len(self.coeffs)})"

    def terms(self):
        """Deterministic (sorted) iteration over (exponent, coefficient)."""
        return sorted(self.coeffs.items())

    def as_json_dict(self) -> dict:
        return {
            "n": self.n_vars,
            "terms": [
                {"exp": list(exp), "re": c.real, "im": c.imag}
                for exp, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, payload) -> "LaurentPoly":
        if not isinstance(payload, dict) or "n" not in payload or "terms" not in payload:
            raise InputError("Laurent JSON must be an object with 'n' and 'terms'")
        n, terms = payload["n"], payload["terms"]
        if type(n) is not int or not isinstance(terms, list):
            raise InputError("Laurent JSON needs an integer 'n' and a list of 'terms'")
        coeffs = {}
        for i, term in enumerate(terms):
            if not (
                isinstance(term, dict)
                and isinstance(term.get("exp"), list)
                and all(type(e) is int for e in term["exp"])
                and is_json_number(term.get("re"))
                and is_json_number(term.get("im"))
            ):
                raise InputError(
                    f"term {i} must be {{'exp': [integers], 're': number, 'im': number}}"
                )
            exp = tuple(term["exp"])
            coeffs[exp] = coeffs.get(exp, 0j) + complex(term["re"], term["im"])
        return cls(n, coeffs)


def eval_point(g: LaurentPoly, z) -> complex:
    """Evaluate g at a point with all coordinates nonzero."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if zs.shape != (g.n_vars,):
        raise InputError(f"expected {g.n_vars} coordinates, got shape {zs.shape}")
    if np.any(zs == 0):
        raise DomainError("evaluation point has a zero coordinate")
    total = 0j
    for exp, c in g.coeffs.items():
        term = c
        for zi, e in zip(zs, exp):
            term *= zi ** e
        total += term
    return complex(total)


def eval_operators(g: LaurentPoly, T: OperatorTuple, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Functional calculus g(T_1, ..., T_n) with negative powers via inverses.

    The tuple must commute within tolerance (validated on construction;
    re-validated here so raw matrix sequences can be passed too).
    """
    if not isinstance(T, OperatorTuple):
        T = make_tuple(T, tol=tol)
    if len(T) != g.n_vars:
        raise InputError(f"tuple length {len(T)} does not match n_vars {g.n_vars}")

    dim = T.dim
    inverses = [np.linalg.inv(M) for M in T]
    # power cache per variable: powers[j][e] = T_j^e
    powers = [{0: np.eye(dim, dtype=complex)} for _ in range(len(T))]

    def power(j: int, e: int) -> np.ndarray:
        cache = powers[j]
        if e not in cache:
            if e > 0:
                cache[e] = power(j, e - 1) @ T[j]
            else:
                cache[e] = power(j, e + 1) @ inverses[j]
        return cache[e]

    result = np.zeros((dim, dim), dtype=complex)
    for exp, c in g.terms():
        M = np.eye(dim, dtype=complex)
        for j, e in enumerate(exp):
            if e != 0:
                M = M @ power(j, e)
        result += c * M
    return result


@dataclass(frozen=True)
class BoundarySpec:
    """Where and how densely to sample.

    kind "polyannulus_distinguished" means the union of the 2^n tori
    with radii in {r, 1/r} per factor; "polycircle_r" is the single
    all-r torus.  samples_per_circle of None picks the floor
    max(256, 32 * max_abs_degree) for the polynomial being measured.
    """

    kind: str
    r: float
    samples_per_circle: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("polyannulus_distinguished", "polycircle_r"):
            raise InputError(f"unknown boundary kind {self.kind!r}")
        if self.r <= 1.0:
            raise InputError("boundary radius must satisfy r > 1")

    def tori(self, n_vars: int):
        """Radius vectors of the tori making up the boundary."""
        if self.kind == "polycircle_r":
            return [tuple([self.r] * n_vars)]
        return [
            tuple(self.r if s else 1.0 / self.r for s in signs)
            for signs in itertools.product((True, False), repeat=n_vars)
        ]

    def grid_size(self, g: LaurentPoly) -> int:
        floor = max(MIN_SAMPLES, SAMPLES_PER_DEGREE * g.max_abs_degree)
        if self.samples_per_circle is None:
            return floor
        if self.samples_per_circle < floor:
            raise InputError(
                f"samples_per_circle {self.samples_per_circle} below the floor {floor}"
            )
        return int(self.samples_per_circle)


@dataclass(frozen=True)
class SupNormResult:
    value: float
    certified_error: float
    # point achieving `value`, as complex coordinates
    arg_point: tuple = field(default=(), compare=False)

    @property
    def upper(self) -> float:
        return self.value + self.certified_error

    @property
    def relative_error(self) -> float:
        return self.certified_error / self.value if self.value > 0 else 0.0


def _coeff_box(g: LaurentPoly, radii) -> np.ndarray:
    """Radius-scaled coefficients on their exponent bounding box.

    Exponents are shifted to start at zero per axis; the dropped phase
    factor has modulus one, so grid evaluations of the box differ from
    g only by a unimodular factor per point.
    """
    n = g.n_vars
    exps = np.array(list(g.coeffs.keys()), dtype=int).reshape(-1, n)
    cs = np.array([g.coeffs[tuple(e)] for e in exps], dtype=complex)
    scale = np.prod(np.asarray(radii, dtype=float) ** exps, axis=1)
    box = np.zeros(tuple(exps.max(axis=0) - exps.min(axis=0) + 1), dtype=complex)
    for e, c in zip(exps - exps.min(axis=0), cs * scale):
        box[tuple(e)] += c
    return box


def _check_grid(g: LaurentPoly, N: int, full_axes: int) -> None:
    """Refuse a grid that aliases or whose FFT array exceeds GRID_CAP.

    Transforming the first `full_axes` axes of the exponent box onto
    N points each builds N^full_axes times the remaining box widths
    entries; the check runs before anything of that size is allocated.
    """
    exps = np.array(list(g.coeffs.keys()), dtype=int).reshape(-1, g.n_vars)
    widths = [int(w) for w in exps.max(axis=0) - exps.min(axis=0) + 1]
    if any(w > N for w in widths):
        raise InputError("grid too coarse for the exponent spread")
    size = N ** full_axes * math.prod(widths[full_axes:])
    if size > GRID_CAP:
        raise ResourceError(
            f"a {N}-point grid in {g.n_vars} variables needs {size} entries, "
            f"above the cap {GRID_CAP}"
        )


def _torus_values(g: LaurentPoly, radii, N: int) -> np.ndarray:
    """|g| evaluated on the full N^n grid of the torus (up to phases)."""
    _check_grid(g, N, g.n_vars)
    vals = _coeff_box(g, radii)
    for axis in range(g.n_vars):
        # ifft * N evaluates sum_k c_k e^{+i k theta} on the uniform grid
        vals = np.fft.ifft(vals, n=N, axis=axis) * N
    return vals


def _grid_argmax(g: LaurentPoly, radii, N: int, best: float):
    """Max of |g| over the N^n torus grid if it beats `best`, with its index.

    All axes but the last are transformed; each remaining 1-D slice is
    a trigonometric polynomial in the last angle whose modulus is
    bounded by the l1 norm of its coefficients.  Only slices whose
    bound exceeds the running maximum `best` (the best value found on
    earlier tori, or -1) are evaluated, in decreasing bound order, and
    the sweep stops at the first batch that cannot beat the running
    maximum.  Returns (best, None) when no grid point beats `best`.
    The caller has run _check_grid with max(n - 1, 1) full axes.
    """
    box = _coeff_box(g, radii)
    n = box.ndim
    if n == 1:
        vals = np.fft.ifft(box, n=N) * N
        with np.errstate(over="ignore"):
            sq = vals.real ** 2 + vals.imag ** 2
        j = int(np.argmax(sq))
        val = math.sqrt(float(sq[j]))
        return (val, (j,)) if val > best else (best, None)
    part = box
    for axis in range(n - 1):
        part = np.fft.ifft(part, n=N, axis=axis) * N
    slice_bound = np.abs(part).sum(axis=-1).ravel()
    # the slices that can beat `best` are a prefix of the descending order
    order = np.argsort(slice_bound)[::-1][: np.count_nonzero(slice_bound > best)]
    flat = part.reshape(-1, part.shape[-1])
    best_idx = None
    # each batch of slices is evaluated as one chunk x N array
    chunk = min(1024, GRID_CAP // N)
    for start in range(0, order.size, chunk):
        batch = order[start : start + chunk]
        if slice_bound[batch[0]] <= best:
            break
        rows = np.fft.ifft(flat[batch], n=N, axis=1) * N
        with np.errstate(over="ignore"):
            sq = rows.real ** 2 + rows.imag ** 2
        r, j = np.unravel_index(int(np.argmax(sq)), sq.shape)
        val = math.sqrt(float(sq[r, j]))
        if val > best:
            best = val
            best_idx = tuple(np.unravel_index(int(batch[r]), part.shape[:-1])) + (int(j),)
    return best, best_idx


def sup_norm(g: LaurentPoly, spec: BoundarySpec) -> SupNormResult:
    """Certified supremum norm of |g| over the boundary in `spec`.

    The value is the maximum of |g| over the N-per-circle grids of all
    tori, and arg_point the grid point where it is found; the value
    equals |g(arg_point)| up to FFT roundoff.  The certified error is
    max over tori of D * pi / N with D the angular-derivative bound.

    Each torus has the weights w = |a_nu| prod_i rho_i^{nu_i}; their sum
    bounds |g| on that torus.  Tori are visited in decreasing order of
    that l1 bound (stably, so equal bounds keep spec.tori order), the
    running maximum is shared with _grid_argmax so later tori prune
    their slices against it, and a torus whose l1 bound cannot beat the
    running maximum is skipped without any FFT.  Every torus still
    enters the certificate.

    Grids whose FFT array would exceed GRID_CAP entries raise
    ResourceError; a value or certificate that overflows raises
    DomainError.
    """
    if g.is_zero:
        return SupNormResult(value=0.0, certified_error=0.0, arg_point=())
    N = spec.grid_size(g)
    _check_grid(g, N, max(g.n_vars - 1, 1))
    exps = np.array(list(g.coeffs.keys()), dtype=int).reshape(-1, g.n_vars)
    abs_c = np.abs(np.array([g.coeffs[tuple(e)] for e in exps], dtype=complex))
    total_deg = np.abs(exps).sum(axis=1)

    tori = [np.asarray(radii, dtype=float) for radii in spec.tori(g.n_vars)]
    scales = [np.prod(rho ** exps, axis=1) for rho in tori]
    worst_D = max(0.0, *(float(np.sum(abs_c * total_deg * scale)) for scale in scales))
    l1 = [float(np.sum(abs_c * scale)) for scale in scales]

    best_val = -1.0
    best_point = None
    for k in sorted(range(len(tori)), key=lambda k: -l1[k]):
        if l1[k] <= best_val:
            continue
        best_val, idx = _grid_argmax(g, tori[k], N, best_val)
        if idx is not None:
            theta = 2.0 * math.pi * np.asarray(idx, dtype=float) / N
            best_point = tuple(tori[k] * np.exp(1j * theta))
    certified_error = worst_D * math.pi / N
    if not math.isfinite(best_val + certified_error):
        raise DomainError("the sup norm overflows a float on these tori")
    return SupNormResult(value=best_val, certified_error=certified_error, arg_point=best_point)


def coefficients_from_samples(samples, window, drop_tol: float = 1e-13) -> LaurentPoly:
    """Recover Laurent coefficients from samples on the unit polycircle.

    samples is an n-dimensional array of g evaluated on the uniform
    grid z_j = exp(2 pi i k_j / N); window is one (lo, hi) exponent
    interval per variable.  The discrete Fourier quadrature of the
    contour-integral coefficient formula is exact (to roundoff) for
    Laurent polynomials supported inside the window, provided N exceeds
    the window width; wider windows alias and are refused.

    Coefficients with modulus at most drop_tol are dropped so that
    quadrature roundoff does not inflate the support.
    """
    arr = np.asarray(samples, dtype=complex)
    window = [tuple(int(x) for x in w) for w in window]
    if arr.ndim != len(window):
        raise InputError(
            f"samples have {arr.ndim} axes but window describes {len(window)} variables"
        )
    for axis, (lo, hi) in enumerate(window):
        if hi < lo:
            raise InputError(f"window {(lo, hi)} on axis {axis} is empty")
        if hi - lo + 1 > arr.shape[axis]:
            raise InputError(
                f"window width {hi - lo + 1} exceeds {arr.shape[axis]} samples on "
                f"axis {axis}: coefficients would alias"
            )
    F = np.fft.fftn(arr) / arr.size
    coeffs = {}
    ranges = [range(lo, hi + 1) for lo, hi in window]
    for exp in itertools.product(*ranges):
        c = F[tuple(e % n for e, n in zip(exp, arr.shape))]
        if abs(c) > drop_tol:
            coeffs[exp] = complex(c)
    return LaurentPoly(len(window), coeffs)


def sample_grid(g: LaurentPoly, N: int) -> np.ndarray:
    """Values of g on the uniform N-per-axis grid of the unit polycircle."""
    return _torus_values(g, [1.0] * g.n_vars, N) * _grid_phase(g, N)


def _grid_phase(g: LaurentPoly, N: int) -> np.ndarray:
    """Phase factor dropped by the exponent shift in _torus_values."""
    exps = np.array(list(g.coeffs.keys()), dtype=int).reshape(-1, g.n_vars)
    lo = exps.min(axis=0)
    shape = [N] * g.n_vars
    phase = np.ones(shape, dtype=complex)
    for axis, l in enumerate(lo):
        if l != 0:
            theta = 2.0 * math.pi * np.arange(N) / N
            view = [None] * g.n_vars
            view[axis] = slice(None)
            phase = phase * np.exp(1j * l * theta)[tuple(view)]
    return phase


def cauchy_check(g: LaurentPoly, params: AnnulusParams, supnorm: float) -> bool:
    """Coefficient bound |a_nu| <= supnorm / r^{sum |nu_i|} for every term.

    supnorm must be a certified upper estimate of ||g|| on the closed
    polyannulus; a small absolute slack absorbs roundoff.
    """
    for exp, c in g.coeffs.items():
        if abs(c) > supnorm / params.r ** sum(abs(e) for e in exp) + 1e-10:
            return False
    return True


@dataclass(frozen=True)
class SignPattern:
    """Sign choice per variable; t counts the +1 entries."""

    signs: tuple

    def __post_init__(self) -> None:
        if not self.signs or any(s not in (1, -1) for s in self.signs):
            raise InputError("signs must be a nonempty tuple over {+1, -1}")

    @property
    def t(self) -> int:
        return sum(1 for s in self.signs if s == 1)

    @property
    def n(self) -> int:
        return len(self.signs)

    def label(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)


def all_sign_patterns(n: int):
    """The 2^n patterns, all-plus first, in lexicographic (+ before -) order."""
    return [
        SignPattern(signs) for signs in itertools.product((1, -1), repeat=n)
    ]


def decompose_2n(g: LaurentPoly) -> dict:
    """Route coefficients by exponent sign into 2^n parts.

    Exponent zero counts as nonnegative.  Each part is stored with
    nonnegative exponents |nu_k|, so that
    sum_mu g_mu(z_1^{mu(1)}, ..., z_n^{mu(n)}) reproduces g.
    Every pattern is present in the result, possibly with a zero part.
    """
    parts = {p: {} for p in all_sign_patterns(g.n_vars)}
    for exp, c in g.coeffs.items():
        signs = tuple(1 if e >= 0 else -1 for e in exp)
        parts[SignPattern(signs)][tuple(abs(e) for e in exp)] = c
    return {p: LaurentPoly(g.n_vars, coeffs) for p, coeffs in parts.items()}


def recompose(parts: dict, n_vars: int) -> LaurentPoly:
    """Inverse of decompose_2n: resubstitute z_k^{mu(k)} into each part."""
    coeffs = {}
    for pattern, part in parts.items():
        for exp, c in part.coeffs.items():
            key = tuple(s * e for s, e in zip(pattern.signs, exp))
            coeffs[key] = coeffs.get(key, 0j) + c
    return LaurentPoly(n_vars, coeffs)


def sign_pattern_bound(params: AnnulusParams, n: int, t: int) -> float:
    """Closed-form part estimate (r^2/(r^2-1))^t ((2r^2-1)/(r^2-1))^{n-t}.

    Evaluated as (1/(1-s))^t ((2-s)/(1-s))^{n-t} with s = r^-2.
    """
    if n < 1:
        raise InputError("n must be a positive integer")
    if not 0 <= t <= n:
        raise InputError(f"t must lie in 0..{n}, got {t}")
    s = params.r ** -2
    return (1.0 / (1.0 - s)) ** t * ((2.0 - s) / (1.0 - s)) ** (n - t)


@dataclass(frozen=True)
class BivariateBounds:
    b1: float
    b2: float
    b3: float
    b4: float


def bivariate_part_bounds(params: AnnulusParams) -> BivariateBounds:
    """The four bivariate part estimates over the all-r torus.

    b1 bounds the (+,+) part, b2 = b3 the mixed parts, b4 the (-,-)
    part, each relative to ||g|| on the closed biannulus.  With
    s = r^-2 and root = sqrt(1 - s^2):

        b1 = 1 + 2 s / root + (s / (1 - s))^2
        b2 = 1 + (1 + s) / root + s / (1 - s)^2
        b4 = 1 + 2 / root + (1 / (1 - s))^2
    """
    s = params.r ** -2
    root = math.sqrt(1.0 - s * s)
    b1 = 1.0 + 2.0 * s / root + (s / (1.0 - s)) ** 2
    b2 = 1.0 + (1.0 + s) / root + s / (1.0 - s) ** 2
    b4 = 1.0 + 2.0 / root + (1.0 / (1.0 - s)) ** 2
    return BivariateBounds(b1=b1, b2=b2, b3=b2, b4=b4)


@dataclass(frozen=True)
class PartEstimateRow:
    pattern: SignPattern
    bound: float
    part_norm: float
    ratio: float
    relative_error: float
    passed: bool


@dataclass(frozen=True)
class DecompositionReport:
    which: str
    g_supnorm: float
    g_certified_error: float
    rows: list

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify_decomposition_estimates(
    g: LaurentPoly,
    params: AnnulusParams,
    which: str = "general",
    spec: BoundarySpec | None = None,
) -> DecompositionReport:
    """Measure every part norm against its closed-form estimate.

    Each part g_mu is measured on the all-r torus and divided by the
    certified norm of g on the distinguished boundary of the closed
    polyannulus.  A row passes when the measured ratio is at most the
    bound inflated by the combined certified relative error, so a
    failure indicates a real violation rather than a grid artifact.
    """
    if which not in ("bivariate", "general"):
        raise InputError(f"which must be 'bivariate' or 'general', got {which!r}")
    if which == "bivariate" and g.n_vars != 2:
        raise InputError("the bivariate estimates require exactly two variables")
    if spec is None:
        N = None
    else:
        if spec.kind != "polyannulus_distinguished":
            raise InputError("the denominator norm lives on the distinguished boundary")
        N = spec.samples_per_circle
    den_spec = BoundarySpec("polyannulus_distinguished", params.r, N)
    num_spec = BoundarySpec("polycircle_r", params.r, N)

    g_sup = sup_norm(g, den_spec)
    if which == "bivariate":
        b = bivariate_part_bounds(params)
        bound_of = {
            "++": b.b1,
            "+-": b.b2,
            "-+": b.b3,
            "--": b.b4,
        }
    parts = decompose_2n(g)
    rows = []
    for pattern in all_sign_patterns(g.n_vars):
        part = parts[pattern]
        if which == "bivariate":
            bound = bound_of[pattern.label()]
        else:
            bound = sign_pattern_bound(params, g.n_vars, pattern.t)
        if part.is_zero:
            rows.append(
                PartEstimateRow(
                    pattern=pattern,
                    bound=bound,
                    part_norm=0.0,
                    ratio=0.0,
                    relative_error=0.0,
                    passed=True,
                )
            )
            continue
        if g_sup.value <= 0.0:
            raise DomainError("nonzero part of a polynomial with zero certified norm")
        part_sup = sup_norm(part, num_spec)
        ratio = part_sup.value / g_sup.value
        rel = part_sup.relative_error + g_sup.relative_error
        rows.append(
            PartEstimateRow(
                pattern=pattern,
                bound=bound,
                part_norm=part_sup.value,
                ratio=ratio,
                relative_error=rel,
                passed=ratio <= bound * (1.0 + rel),
            )
        )
    return DecompositionReport(
        which=which,
        g_supnorm=g_sup.value,
        g_certified_error=g_sup.certified_error,
        rows=rows,
    )
