# src/qaspectral/cli.py

"""qa-spectral-lab command line.

Subcommands: check, dilate, decompose, verify-bounds, scan-extremal,
report.  Exit codes: 0 on a fully passing run, 1 when any verification
flag is false, 2 on input errors (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .annulus import AnnulusParams, dilate, membership
from .bounds import BOUND_KINDS
from .errors import QASpectralError
from .extremal import lower_bound_scan
from .harness import ExperimentConfig, run_experiment, write_report
from .laurent import LaurentPoly, decompose_2n, verify_decomposition_estimates
from .linalg import load_json, load_matrix, save_matrix

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _int_list(text: str):
    """Parse '1,2,5' and '1..8' (also mixed: '1..4,8,16')."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif chunk:
            out.append(int(chunk))
    if not out:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return out


def cmd_check(args) -> int:
    T = load_matrix(args.matrix)
    report = membership(T, AnnulusParams(args.r))
    print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    return EXIT_PASS if report.routes_agree else EXIT_VIOLATION


def cmd_dilate(args) -> int:
    T = load_matrix(args.matrix)
    params = AnnulusParams(args.r)
    result = dilate(T, params, n_range=range(args.nmin, args.nmax + 1))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(out.with_suffix(".json"), result.hat_T)
    verification = {
        "r": args.r,
        "defect_norm": result.defect_norm,
        "gram_error": result.gram_error,
        "compression_errors": {str(n): e for n, e in sorted(result.compression_errors.items())},
        "defect_ok": result.defect_norm <= 1e-8 * params.c_r,
    }
    report_path = out.parent / (out.stem + "_verification.json")
    report_path.write_text(json.dumps(verification, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out.with_suffix('.json')} and {report_path}")
    return EXIT_PASS if verification["defect_ok"] else EXIT_VIOLATION


def cmd_decompose(args) -> int:
    g = LaurentPoly.from_json_dict(load_json(args.poly))
    params = AnnulusParams(args.r)
    which = "bivariate" if g.n_vars == 2 and args.use_biannulus_bounds else "general"
    report = verify_decomposition_estimates(g, params, which=which)
    parts = decompose_2n(g)
    out = {
        "r": args.r,
        "which": which,
        "g_supnorm": report.g_supnorm,
        "g_certified_error": report.g_certified_error,
        "parts": {
            pattern.label(): parts[pattern].as_json_dict() for pattern in parts
        },
        "estimates": [
            {
                "pattern": row.pattern.label(),
                "bound": row.bound,
                "part_norm": row.part_norm,
                "ratio": row.ratio,
                "relative_error": row.relative_error,
                "passed": row.passed,
            }
            for row in report.rows
        ],
        "all_passed": report.all_passed,
    }
    text = json.dumps(out, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_PASS if report.all_passed else EXIT_VIOLATION


def cmd_verify_bounds(args) -> int:
    kind = BOUND_KINDS[args.kind]
    config = ExperimentConfig(
        r=args.r,
        seed=args.seed,
        n_samples=args.samples,
        mode=kind.mode,
        n_vars=args.n if kind.n_vars is None else kind.n_vars,
        dims=tuple(args.dims),
        degrees=tuple(args.degrees),
        bound_kind=args.kind,
        output_path=args.out,
    )
    report = run_experiment(config, workers=args.workers)
    json_path, csv_path = write_report(report, args.out)
    print(
        f"{report.pass_count}/{len(report.rows)} samples passed, "
        f"max ratio {report.max_ratio:.6f} vs bound; wrote {json_path} and {csv_path}"
    )
    return EXIT_PASS if report.all_passed else EXIT_VIOLATION


def cmd_scan_extremal(args) -> int:
    table = lower_bound_scan(AnnulusParams(args.r), args.p, args.m, n=args.n)
    text = "\n".join(table.csv_lines()) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(table.rows)} rows)")
    else:
        print(text, end="")
    return EXIT_PASS if table.all_passed else EXIT_VIOLATION


def cmd_report(args) -> int:
    config = ExperimentConfig.from_json_dict(load_json(args.config) if args.config else {})
    overrides = {"r": args.r, "seed": args.seed, "n_samples": args.samples, "output_path": args.out}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    report = run_experiment(config, workers=args.workers)
    json_path, csv_path = write_report(report, config.output_path)
    print(
        f"{report.pass_count}/{len(report.rows)} samples passed, "
        f"max ratio {report.max_ratio:.6f}; wrote {json_path} and {csv_path}"
    )
    return EXIT_PASS if report.all_passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qa-spectral-lab",
        description="Numerical laboratory for spectral constants of the quantum annulus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership report for a matrix JSON file")
    p.add_argument("--matrix", "-m", required=True)
    p.add_argument("--r", type=float, default=2.0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dilate", help="write the doubled-space extension and its verification")
    p.add_argument("--matrix", "-m", required=True)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--nmin", type=int, default=-4)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("decompose", help="2^n sign-pattern decomposition with estimates")
    p.add_argument("--poly", required=True, help="Laurent polynomial JSON file")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--out", "-o", default=None)
    p.add_argument(
        "--use-biannulus-bounds",
        action="store_true",
        help="compare bivariate parts against the four dedicated estimates",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-bounds", help="randomized bound verification, CSV output")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--kind", choices=tuple(BOUND_KINDS), default="annulus")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2, help="tuple length for polyannulus_dc")
    p.add_argument("--dims", type=_int_list, default=[2, 3, 4])
    p.add_argument("--degrees", type=_int_list, default=[2, 4, 6])
    p.add_argument("--workers", type=int, default=1, help="no effect; samples run serially")
    p.add_argument("--out", "-o", default="verify_bounds")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("scan-extremal", help="lower-bound witness scan over (p, m)")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--p", type=_int_list, required=True, help="e.g. 1..8,16,32,64")
    p.add_argument("--m", type=_int_list, required=True, help="e.g. 1..8")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_scan_extremal)

    p = sub.add_parser("report", help="full experiment from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help="no effect; samples run serially")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_report)

    return parser


# parse_args leaves the parser as it was, so one parser serves every
# main call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except QASpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
