# src/qaspectral/harness.py

"""Random generators and experiment orchestration.

Operators are generated by singular-value surgery: T = V diag(s) W*
with Haar-like unitaries and s log-uniform in [1/r, r], so membership
holds by construction.  Commuting-but-not-normal pairs share one
mildly non-unitary similarity; doubly commuting tuples put independent
draws on separate tensor legs.

Determinism contract: every sample derives its own counter-based RNG
stream from (seed, sample_id), so reports are a pure function of the
configuration and do not depend on evaluation order.  Samples run
serially; a thread pool measured slower on two cores.  Reports are
byte-identical at a fixed BLAS thread count only: LAPACK's SVD in
op_norm, and now and then the matmuls of eval_operators, round their
last bits differently under another thread count.  For example,
verify-bounds --kind polyannulus_dc --n 3 --dims 4..6 gives ratios that
differ by 1e-16 to 7e-16 relative between OPENBLAS_NUM_THREADS=1 and 2.

A config's (mode, n_vars, bound_kind) must match a row of
bounds.BOUND_KINDS; the row also supplies the bound each sample is
checked against.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .annulus import AnnulusParams, membership
from .bounds import BOUND_KINDS, RatioReport, spectral_ratio
from .errors import InputError, PreconditionError, ResourceError
from .laurent import LaurentPoly
from .linalg import DIMENSION_CAP, is_json_number, kron
from .operators import COMMUTING, DOUBLY_COMMUTING, OperatorTuple, make_tuple

RNG_ALGORITHM = "philox4x64"
MODES = tuple(kind.mode for kind in BOUND_KINDS.values())
REJECTION_BUDGET = 1000
# Condition number of the shared similarity of a commuting pair.
SIMILARITY_COND = 1.3


def substream(seed: int, sample_id: int) -> np.random.Generator:
    """Counter-based per-sample stream; (seed, sample_id) is the key."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed % 2 ** 64, sample_id % 2 ** 64], dtype=np.uint64))
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Gaussian with the usual phase fix."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def gen_qa_operator(dim: int, params: AnnulusParams, rng: np.random.Generator) -> np.ndarray:
    """Member of the quantum annulus with log-uniform singular values."""
    if dim < 1:
        raise InputError("dim must be a positive integer")
    V = haar_unitary(dim, rng)
    W = haar_unitary(dim, rng)
    log_r = math.log(params.r)
    s = np.exp(rng.uniform(-log_r, log_r, size=dim))
    return (V * s) @ W.conj().T


def gen_non_member(dim: int, params: AnnulusParams, rng: np.random.Generator) -> np.ndarray:
    """Invertible operator with at least one singular value clearly
    outside [1/r, r] (relative margin at least 1e-3)."""
    V = haar_unitary(dim, rng)
    W = haar_unitary(dim, rng)
    log_r = math.log(params.r)
    s = np.exp(rng.uniform(-log_r, log_r, size=dim))
    k = int(rng.integers(dim))
    factor = float(np.exp(rng.uniform(math.log(1.001), math.log(4.0))))
    s[k] = params.r * factor if rng.integers(2) else 1.0 / (params.r * factor)
    return (V * s) @ W.conj().T


def gen_tuple(
    mode: str,
    n: int,
    dim: int,
    params: AnnulusParams,
    rng: np.random.Generator,
) -> OperatorTuple:
    """Single member, commuting pair or doubly commuting n-tuple of members.

    commuting_pair: T_j = V D_j V^-1 with one shared random V of
    condition number SIMILARITY_COND and diagonal moduli pulled in
    by the same factor, which guarantees membership; draws are still
    rejection-checked against the membership contract.

    doubly_commuting: T_j = I (x) ... (x) S_j (x) ... (x) I with
    independent singular-surgery legs.
    """
    if mode == "single":
        if n != 1:
            raise InputError("single means n = 1")
        return make_tuple([gen_qa_operator(dim, params, rng)])
    if mode == "commuting_pair":
        if n != 2:
            raise InputError("commuting_pair means n = 2")
        log_r = math.log(params.r)
        log_k = math.log(SIMILARITY_COND)
        for _ in range(REJECTION_BUDGET):
            V = haar_unitary(dim, rng) * np.exp(
                np.linspace(-log_k / 2, log_k / 2, dim)
            )
            V = V @ haar_unitary(dim, rng)
            mats = []
            for _ in range(2):
                moduli = np.exp(rng.uniform(-(log_r - log_k), log_r - log_k, size=dim))
                phases = np.exp(2j * math.pi * rng.uniform(size=dim))
                D = moduli * phases
                mats.append((V * D) @ np.linalg.inv(V))
            if all(membership(M, params).in_qa for M in mats):
                return make_tuple(mats, COMMUTING)
        raise PreconditionError(
            f"pair generation exhausted its rejection budget of {REJECTION_BUDGET}"
        )
    if mode == "doubly_commuting":
        if n < 1:
            raise InputError("doubly_commuting needs n >= 1")
        legs = [gen_qa_operator(dim, params, rng) for _ in range(n)]
        # Refused before an identity factor of up to dim^(n-1) is allocated.
        if dim ** n > DIMENSION_CAP:
            raise ResourceError(
                f"doubly commuting tuple dimension {dim}^{n} exceeds cap {DIMENSION_CAP}"
            )
        mats = [
            kron(kron(np.eye(dim ** j), S), np.eye(dim ** (n - 1 - j)))
            for j, S in enumerate(legs)
        ]
        return make_tuple(mats, DOUBLY_COMMUTING)
    raise InputError(f"unknown tuple mode {mode!r}")


def admissible_count(n_vars: int, max_degree: int) -> int:
    """Number of exponent vectors in Z^n_vars with sum |e_i| <= max_degree.

    A vector with k nonzero entries picks their k axes, their k signs
    and their k moduli (a composition of at most max_degree into k
    positive parts), so the count is sum_k 2^k C(n, k) C(d, k).
    """
    return sum(
        2 ** k * math.comb(n_vars, k) * math.comb(max_degree, k)
        for k in range(min(n_vars, max_degree) + 1)
    )


def gen_laurent(
    n_vars: int,
    max_degree: int,
    rng: np.random.Generator,
    n_terms: int | None = None,
) -> LaurentPoly:
    """Random Laurent polynomial with total absolute degree at most
    max_degree and standard complex Gaussian coefficients.

    Exponents are drawn uniformly from the box [-max_degree, max_degree]^n
    and rejected outside the degree budget.  n_terms is capped at the
    number of admissible exponents, so a request for more terms than
    exist returns every one of them instead of running out the guard.
    """
    if max_degree < 0:
        raise InputError("max_degree must be nonnegative")
    if n_terms is None:
        n_terms = int(rng.integers(3, 9))
    n_terms = min(n_terms, admissible_count(n_vars, max_degree))
    coeffs = {}
    guard = 0
    while len(coeffs) < n_terms and guard < 100 * n_terms:
        guard += 1
        exp = tuple(int(e) for e in rng.integers(-max_degree, max_degree + 1, size=n_vars))
        if sum(abs(e) for e in exp) > max_degree:
            continue
        coeffs[exp] = complex(rng.normal(), rng.normal())
    if not coeffs:
        coeffs[(0,) * n_vars] = 1.0 + 0j
    return LaurentPoly(n_vars, coeffs)


def _has_json_type(value, want: type) -> bool:
    """Whether a decoded JSON value fits a config field of type `want`;
    a tuple field takes a list of integers."""
    if want is float:
        return is_json_number(value)
    if want is tuple:
        return isinstance(value, list) and all(type(x) is int for x in value)
    return type(value) is want


@dataclass(frozen=True)
class ExperimentConfig:
    r: float = 2.0
    seed: int = 0
    dims: tuple = (2, 3, 4)
    degrees: tuple = (2, 4, 6)
    n_samples: int = 100
    mode: str = "single"
    n_vars: int = 1
    bound_kind: str = "annulus"
    output_path: str = "report"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.bound_kind not in BOUND_KINDS:
            raise InputError(
                f"bound_kind must be one of {tuple(BOUND_KINDS)}, got {self.bound_kind!r}"
            )
        kind = BOUND_KINDS[self.bound_kind]
        if self.mode != kind.mode:
            raise InputError(
                f"bound kind {self.bound_kind!r} checks mode {kind.mode!r}, not {self.mode!r}"
            )
        if self.n_vars < 1 or (kind.n_vars is not None and self.n_vars != kind.n_vars):
            raise InputError(
                f"bound kind {self.bound_kind!r} cannot check n_vars = {self.n_vars}"
            )
        if self.n_samples < 1:
            raise InputError("n_samples must be positive")
        if not self.dims or not self.degrees:
            raise InputError("dims and degrees must be nonempty")
        if min(self.dims) < 1 or min(self.degrees) < 0:
            raise InputError("dims must be positive and degrees nonnegative")

    @classmethod
    def from_json_dict(cls, payload) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise InputError("config JSON must be an object")
        types = typing.get_type_hints(cls)
        unknown = set(payload) - set(types)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for key, value in payload.items():
            if not _has_json_type(value, types[key]):
                raise InputError(f"config key {key!r} has the wrong type: {value!r}")
        payload = dict(payload)
        for key in ("dims", "degrees"):
            if key in payload:
                payload[key] = tuple(payload[key])
        return cls(**payload)

    def as_json_dict(self) -> dict:
        d = asdict(self)
        d["dims"] = list(self.dims)
        d["degrees"] = list(self.degrees)
        return d


@dataclass(frozen=True)
class SampleRow:
    sample_id: int
    dim: int
    degree: int
    ratio: float
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class Report:
    config: ExperimentConfig
    rows: list
    max_ratio: float
    pass_count: int
    generator: str = RNG_ALGORITHM
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return self.pass_count == len(self.rows)

    def as_json_bytes(self) -> bytes:
        payload = {
            "config": self.config.as_json_dict(),
            "generator": self.generator,
            "version": self.version,
            "rows": [asdict(row) for row in self.rows],
            "summary": {
                "max_ratio": self.max_ratio,
                "pass_count": self.pass_count,
                "n_samples": len(self.rows),
                "all_passed": self.all_passed,
            },
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()

    def csv_lines(self):
        yield "sample_id,dim,degree,ratio,bound,margin"
        for row in self.rows:
            yield f"{row.sample_id},{row.dim},{row.degree},{row.ratio!r},{row.bound!r},{row.margin!r}"


def evaluate_sample(config: ExperimentConfig, sample_id: int) -> SampleRow:
    """One fully deterministic sample: tuple + polynomial + ratio."""
    params = AnnulusParams(config.r)
    bound = BOUND_KINDS[config.bound_kind].upper(params.r, config.n_vars)
    rng = substream(config.seed, sample_id)
    dim = int(config.dims[int(rng.integers(len(config.dims)))])
    degree = int(config.degrees[int(rng.integers(len(config.degrees)))])
    T = gen_tuple(config.mode, config.n_vars, dim, params, rng)
    g = gen_laurent(config.n_vars, degree, rng)
    rep: RatioReport = spectral_ratio(T, g, params, bound=bound)
    margin = bound * (1.0 + rep.certified_error / rep.g_supnorm) - rep.ratio
    return SampleRow(
        sample_id=sample_id,
        dim=dim,
        degree=degree,
        ratio=rep.ratio,
        bound=bound,
        margin=margin,
        passed=rep.passed,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Report:
    """Evaluate all samples in sample_id order and assemble the report.

    `workers` has no effect; it is accepted so that existing callers
    keep working.  Samples run serially.
    """
    rows = [evaluate_sample(config, i) for i in range(config.n_samples)]
    return Report(
        config=config,
        rows=rows,
        max_ratio=max(row.ratio for row in rows),
        pass_count=sum(row.passed for row in rows),
    )


def write_report(report: Report, output_path) -> tuple:
    """Write <path>.json and <path>.csv; returns the two paths."""
    base = Path(output_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    json_path = base.with_suffix(".json")
    csv_path = base.with_suffix(".csv")
    json_path.write_bytes(report.as_json_bytes())
    csv_path.write_text("\n".join(report.csv_lines()) + "\n")
    return json_path, csv_path
