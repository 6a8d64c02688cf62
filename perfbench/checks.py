"""Output checks that do not depend on how qaspectral computes its results.

Every check re-derives what it needs from the mathematical statement
being checked: polynomials are evaluated by direct term sums, operator
functions by dense matrix powers, and norms by dense SVD.  No check
reads a refinement flag or calls a private helper of the package.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# Points per torus in the dense direct-sum grid: M per axis with
# M^n <= DENSE_POINTS, and at most DENSE_FACTOR times the program's grid.
DENSE_POINTS = 1 << 18
DENSE_FACTOR = 4
# Local patch around the reported maximiser: +-PATCH_CELLS program grid
# cells per axis, PATCH_FACTOR times denser than the program's grid.
PATCH_CELLS = 2
PATCH_FACTOR = 4


def _terms(g):
    exps = np.array(list(g.coeffs.keys()), dtype=int).reshape(-1, g.n_vars)
    cs = np.array(list(g.coeffs.values()), dtype=complex)
    return exps, cs


def eval_direct(g, z) -> complex:
    """g at one point by the plain term sum."""
    exps, cs = _terms(g)
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    return complex(np.sum(cs * np.prod(z ** exps, axis=1)))


def max_abs_on_grid(g, radii, axes) -> float:
    """max |g| over the product grid radii_i * exp(i * axes[i]) by direct sums.

    The grid value array is built as a matrix product over the terms so
    the memory stays at one grid plus one (terms x grid) factor.
    """
    exps, cs = _terms(g)
    factors = [
        (rho ** exps[:, i])[:, None] * np.exp(1j * np.outer(exps[:, i], theta))
        for i, (rho, theta) in enumerate(zip(radii, axes))
    ]
    left = cs[:, None] * factors[0]
    for f in factors[1:-1]:
        left = (left[:, :, None] * f[:, None, :]).reshape(len(cs), -1)
    vals = left.sum(axis=0) if len(factors) == 1 else left.T @ factors[-1]
    return float(np.abs(vals).max())


def dense_lower_estimate(g, tori, n_grid: int, rng, arg_point=None) -> float:
    """Largest |g| seen on a denser direct-sum grid of every torus.

    Each torus gets a uniform grid with a random angular offset; when a
    maximiser is known, a patch PATCH_FACTOR times denser than the
    program's grid is laid around it.  Every value is |g| at a real
    boundary point, so the result is a lower bound for the supremum.
    """
    n = g.n_vars
    m = min(DENSE_FACTOR * n_grid, int(DENSE_POINTS ** (1.0 / n) + 1e-9))
    best = 0.0
    for radii in tori:
        axes = [rng.uniform(0, 2 * math.pi / m) + 2 * math.pi * np.arange(m) / m for _ in range(n)]
        best = max(best, max_abs_on_grid(g, radii, axes))
    if arg_point:
        z = np.asarray(arg_point, dtype=complex)
        step = 2 * math.pi / (n_grid * PATCH_FACTOR)
        offsets = step * np.arange(-PATCH_CELLS * PATCH_FACTOR, PATCH_CELLS * PATCH_FACTOR + 1)
        axes = [np.angle(zi) + offsets for zi in z]
        best = max(best, max_abs_on_grid(g, np.abs(z), axes))
    return best


def l1_on_tori(g, tori) -> float:
    exps, cs = _terms(g)
    return max(float(np.sum(np.abs(cs) * np.prod(np.asarray(r) ** exps, axis=1))) for r in tori)


def check_sup_norm(g, tori, n_grid: int, value: float, certified_error: float, arg_point, rng) -> list:
    """The two one-sided claims of a certified sup norm.

    value is attained: value <= |g(arg_point)| (1 + 1e-12), with
    arg_point on one of the tori.  The certificate covers the
    supremum: no point of a denser grid exceeds value + certified_error.
    """
    problems = []
    if not (value > 0 and certified_error >= 0 and math.isfinite(value + certified_error)):
        return [f"sup norm value {value!r} / certificate {certified_error!r} not usable"]
    radii = np.abs(np.asarray(arg_point, dtype=complex))
    if not any(np.allclose(radii, t, rtol=1e-12, atol=0) for t in tori):
        problems.append(f"arg_point radii {radii} lie on none of the boundary tori")
    attained = abs(eval_direct(g, arg_point))
    if value > attained * (1 + 1e-12):
        problems.append(f"value {value!r} exceeds |g(arg_point)| = {attained!r}")
    dense = dense_lower_estimate(g, tori, n_grid, rng, arg_point)
    slack = 1e-12 * (value + certified_error) + 1e-14 * l1_on_tori(g, tori)
    if dense > value + certified_error + slack:
        problems.append(
            f"dense sample {dense!r} exceeds certified upper {value + certified_error!r}"
        )
    return problems


def dense_operator_function(g, mats) -> np.ndarray:
    """g(T_1, ..., T_n) by dense matrix powers, inverses for negative exponents."""
    dim = mats[0].shape[0]
    inverses = [np.linalg.inv(M) for M in mats]
    out = np.zeros((dim, dim), dtype=complex)
    for exp, c in g.coeffs.items():
        term = np.eye(dim, dtype=complex)
        for M, Minv, e in zip(mats, inverses, exp):
            term = term @ np.linalg.matrix_power(M if e >= 0 else Minv, abs(e))
        out += c * term
    return out


def spectral_norm(M) -> float:
    return float(np.linalg.svd(M, compute_uv=False)[0])


def check_ratio(report, mats, g, rel_tol: float = 1e-9) -> list:
    """The ratio is ||g(T)|| / value, and its pass verdict holds."""
    problems = []
    g_op = spectral_norm(dense_operator_function(g, mats))
    if abs(report.g_norm_operator - g_op) > rel_tol * g_op:
        problems.append(f"||g(T)|| {report.g_norm_operator!r} vs dense {g_op!r}")
    if abs(report.ratio - g_op / report.g_supnorm) > rel_tol * report.ratio:
        problems.append(f"ratio {report.ratio!r} vs dense {g_op / report.g_supnorm!r}")
    allowed = report.bound_used * (1 + report.certified_error / report.g_supnorm)
    if not (report.passed and report.ratio <= allowed):
        problems.append(f"ratio {report.ratio!r} fails bound {report.bound_used!r}")
    return problems


def recompose_parts(parts_json: dict) -> dict:
    """Coefficient map of sum_mu g_mu(z^mu) from the CLI's 'parts' JSON."""
    coeffs = {}
    for label, part in parts_json.items():
        signs = [1 if ch == "+" else -1 for ch in label]
        for term in part["terms"]:
            key = tuple(s * e for s, e in zip(signs, term["exp"]))
            coeffs[key] = coeffs.get(key, 0j) + complex(term["re"], term["im"])
    return {k: v for k, v in coeffs.items() if v != 0}


def check_decompose_output(payload: dict, g) -> list:
    """Parts recompose exactly to g, and every estimate row holds."""
    problems = []
    if recompose_parts(payload["parts"]) != g.coeffs:
        problems.append("parts do not recompose to the input polynomial")
    if len(payload["parts"]) != 2 ** g.n_vars:
        problems.append(f"{len(payload['parts'])} parts for n = {g.n_vars}")
    for row in payload["estimates"]:
        if not (row["passed"] and row["ratio"] <= row["bound"] * (1 + row["relative_error"])):
            problems.append(f"part {row['pattern']} ratio {row['ratio']!r} > bound {row['bound']!r}")
    if not payload["all_passed"]:
        problems.append("all_passed is false")
    return problems


def check_verify_report(payload: dict) -> list:
    """Every sample of a verify-bounds report passes with a nonnegative margin."""
    problems = []
    for row in payload["rows"]:
        if not (row["passed"] and row["margin"] >= 0):
            problems.append(f"sample {row['sample_id']} ratio {row['ratio']!r} margin {row['margin']!r}")
    summary = payload["summary"]
    if not (summary["all_passed"] and summary["n_samples"] == len(payload["rows"])):
        problems.append("summary does not report every sample passed")
    return problems


def verify_row_rel_err(row: dict) -> float:
    """Certified relative error of a sample's denominator, from its margin.

    The report stores margin = bound (1 + cert/value) - ratio.
    """
    return (row["margin"] + row["ratio"]) / row["bound"] - 1.0


def check_dilation(T, r: float, result, n_range) -> list:
    """Criterion-01 tolerances, recomputed from hat_T by dense algebra."""
    problems = []
    c_r = r * r + r ** -2
    hat = result.hat_T
    k = T.shape[0]
    s = np.linalg.svd(hat, compute_uv=False)
    defect = float(np.abs(c_r - s ** 2 - s ** -2).max())
    for name, d in (("reported", result.defect_norm), ("dense", defect)):
        if d > 1e-8 * c_r:
            problems.append(f"{name} defect {d:.3e} above 1e-8 c_r")
    norm_T = spectral_norm(T)
    if set(result.compression_errors) != set(n_range):
        problems.append("compression errors do not cover n_range")
    for n in n_range:
        hat_n = np.linalg.matrix_power(hat if n >= 0 else np.linalg.inv(hat), abs(n))
        T_n = np.linalg.matrix_power(T if n >= 0 else np.linalg.inv(T), abs(n))
        err = spectral_norm(hat_n[:k, :k] - T_n)
        limit = 1e-8 * max(1.0, norm_T ** abs(n))
        if err > limit or result.compression_errors.get(n, math.inf) > limit:
            problems.append(f"compression error at n = {n}: {err:.3e}")
    return problems


def check_biball(lift) -> list:
    U = lift.U
    defect = spectral_norm(U.conj().T @ U - np.eye(U.shape[0]))
    if max(defect, lift.unitary_defect) > 1e-8:
        return [f"biball unitary defect {defect:.3e} / reported {lift.unitary_defect:.3e}"]
    return []


def check_non_member(report) -> list:
    if report.in_qa or not report.routes_agree:
        return [f"non-member verdict in_qa={report.in_qa} routes_agree={report.routes_agree}"]
    return []


def shift_oracle(p: int, m: int, r: float) -> float:
    """||g_m(S)|| / (1 + r^-2m) for the 2p-cycle weighted shift, by dense SVD."""
    dim = 2 * p
    w = np.array([r] * p + [1.0 / r] * p)
    S = np.zeros((dim, dim))
    S[(np.arange(dim) + 1) % dim, np.arange(dim)] = w
    G = r ** (-m) * (np.linalg.matrix_power(S, m) + np.linalg.matrix_power(np.linalg.inv(S), m))
    return spectral_norm(G) / (1 + r ** (-2 * m))


def check_scan(table, r: float) -> list:
    problems = []
    for row in table.rows:
        oracle = shift_oracle(row.p, row.m, r) ** row.n
        if abs(row.ratio - oracle) > 1e-9 * oracle:
            problems.append(f"scan (p={row.p}, m={row.m}, n={row.n}) {row.ratio!r} vs SVD {oracle!r}")
        if not row.passed:
            problems.append(f"scan (p={row.p}, m={row.m}) ratio above its upper bound")
    return problems
