"""The four benchmark workloads.

Each workload builds a seeded schedule of ops in set-up, runs one op
per call (the timed region), collects the op's output afterwards, and
checks it with checks.py.  The traced form of an op times the
same parent call and then re-runs, on the same inputs, the public calls
it is made of.  Rationale and scope are in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from qaspectral import cli
from qaspectral.annulus import AnnulusParams, dilate, membership
from qaspectral.bounds import annulus_bound, biannulus_bound, polyannulus_dc_bound, spectral_ratio
from qaspectral.extremal import lower_bound_scan, witness_function
from qaspectral.harness import (
    ExperimentConfig,
    evaluate_sample,
    gen_laurent,
    gen_non_member,
    gen_qa_operator,
    gen_tuple,
    run_experiment,
    substream,
    write_report,
)
from qaspectral.hyperbola import biball_lift
from qaspectral.laurent import (
    BoundarySpec,
    LaurentPoly,
    decompose_2n,
    eval_operators,
    sup_norm,
    verify_decomposition_estimates,
)
from qaspectral.linalg import op_norm
from qaspectral.operators import make_tuple

import checks

R = 2.0
R2 = AnnulusParams(R)
DISTINGUISHED = BoundarySpec("polyannulus_distinguished", R)
POLYCIRCLE = BoundarySpec("polycircle_r", R)


def grid_points(g, spec) -> int:
    """Points the sup norm of g must cover: tori x N^n (public spec API)."""
    return len(spec.tori(g.n_vars)) * spec.grid_size(g) ** g.n_vars


def traced_sup_norm(tr, g, spec):
    tr.counts["laurent.sup_norm.grid_points"] += grid_points(g, spec)
    return tr.run("laurent.sup_norm", sup_norm, g, spec)


def spectral_ratio_children(tr, T, g, params):
    def children(_report):
        for M in T:
            tr.run("annulus.membership", membership, M, params)
        G = tr.run("laurent.eval_operators", eval_operators, g, T)
        tr.run("linalg.op_norm", op_norm, G)
        traced_sup_norm(tr, g, BoundarySpec("polyannulus_distinguished", params.r))

    return children


def sign_parts(g) -> dict:
    """Nonzero sign-pattern parts of g by label ("+-", ...), routed by exponent sign.

    Terms keep g's order, so sup norms of these parts round exactly as
    the program's own parts do.
    """
    parts = {}
    for exp, c in g.coeffs.items():
        label = "".join("+" if e >= 0 else "-" for e in exp)
        parts.setdefault(label, {})[tuple(abs(e) for e in exp)] = c
    return {label: LaurentPoly(g.n_vars, coeffs) for label, coeffs in parts.items()}


def maybe_traced(tr, name, fn, *args, **kwargs):
    """fn(*args) as a span when tracing set-up, else a plain call."""
    if tr is None:
        kwargs.pop("children", None)
        return fn(*args, **kwargs)
    return tr.run(name, fn, *args, **kwargs)


def run_cli(argv) -> int:
    """cli.main in process; its progress lines are kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Op:
    kind: str
    inputs: dict
    checked: bool = True  # whether the expensive first-pass checks run on it
    first: object = field(default=None, repr=False)  # digest of the first run's output


class Workload:
    """Shared shape; subclasses fill in make_ops, call, traced, collect, check."""

    name = ""
    rate = 1.0  # nominal ops per second on 2 shared cores; sizes the schedule
    # The timed run repeats the schedule about this many times, so the
    # median pass rate and each op's median latency shrug off a slow
    # spell of the shared host.
    passes = 5
    # At least ten ops of the schedule lie beyond its p90.
    min_distinct = 100

    def __init__(self, seed: int, seconds: float, workdir):
        self.seed = seed
        self.workdir = workdir
        self.n_ops = max(self.min_distinct, round(seconds * self.rate / self.passes))
        self.ops: list[Op] = []

    def rng(self, stream: int, j: int) -> np.random.Generator:
        return substream(self.seed * 16 + stream, j)

    def setup(self, tr=None) -> None:
        self.ops = self.make_ops(tr)

    def warmup_ops(self) -> list:
        """First op of each kind; run untimed before the first timed op."""
        firsts = {}
        for op in self.ops:
            firsts.setdefault(op.kind, op)
        return list(firsts.values())

    def collect(self, op, out):
        """The op's output, read outside the timed region."""
        return out

    def digest(self, out):
        """Compact form of an output; repeats of an op must match the first exactly."""
        return out

    def cert_rel_errs(self, op, out) -> list:
        return []

    def sup_norm_plan(self, op) -> list:
        """(polynomial, spec) of every sup norm one run of op computes."""
        return []

    def final_checks(self, rng) -> tuple:
        """Checks over the whole schedule: (problems, certified relative errors)."""
        return [], []


class VerifySingle(Workload):
    """verify-bounds --kind annulus through cli.main, 8 samples, 2 workers."""

    name = "verify_single"
    rate = 15.0
    passes = 4
    # Eight samples, not ten, keep an op near 60 ms, so 100 distinct ops
    # still run four or five times in a run and each op's median latency
    # can outvote a slow spell of the host.
    SAMPLES = 8
    WORKERS = min(2, len(os.sched_getaffinity(0)))  # never more threads than cores
    DIMS = (1, 2, 3, 4, 5, 6)
    DEGREES = tuple(range(1, 11))
    RERUN_EVERY = 5  # first-pass ops re-run with --workers 1

    def argv(self, op, workers):
        return [
            "verify-bounds", "--kind", "annulus", "--r", str(R),
            "--samples", str(self.SAMPLES), "--seed", str(op.inputs["seed"]),
            "--dims", "1..6", "--degrees", "1..10", "--workers", str(workers),
            "--out", str(op.inputs["out"]),
        ]

    def config(self, op):
        return ExperimentConfig(
            r=R, seed=op.inputs["seed"], n_samples=self.SAMPLES, mode="single", n_vars=1,
            dims=self.DIMS, degrees=self.DEGREES, bound_kind="annulus",
            output_path=str(op.inputs["out"]),
        )

    def make_ops(self, tr=None):
        return [
            Op("report", {"seed": self.seed * 100_003 + j, "out": self.workdir / f"verify_{j}"},
               checked=j % self.RERUN_EVERY == 0)
            for j in range(self.n_ops)
        ]

    def call(self, op):
        return run_cli(self.argv(op, self.WORKERS))

    def collect(self, op, rc):
        return rc, op.inputs["out"].with_suffix(".json").read_bytes() if rc == 0 else b""

    def draw(self, op, i):
        """A (member, polynomial) pair from evaluate_sample's generators and config."""
        rng = self.rng(1, int(op.inputs["seed"]) * self.SAMPLES + i)
        dim = self.DIMS[int(rng.integers(len(self.DIMS)))]
        degree = self.DEGREES[int(rng.integers(len(self.DEGREES)))]
        return gen_qa_operator(dim, R2, rng), gen_laurent(1, degree, rng)

    def traced(self, op, tr):
        config = self.config(op)
        bound = annulus_bound(R)

        def sample_children(i):
            def children(_row):
                T_mat, g = tr.run("harness.gen", self.draw, op, i, same_inputs=False)
                T = tr.run("operators.make_tuple", make_tuple, [T_mat], same_inputs=False)
                tr.run("bounds.spectral_ratio", spectral_ratio, T, g, R2, bound=bound,
                       children=spectral_ratio_children(tr, T, g, R2), same_inputs=False)
            return children

        def experiment_children(_report):
            for i in range(self.SAMPLES):
                tr.run("harness.evaluate_sample", evaluate_sample, config, i,
                       children=sample_children(i))

        def cli_children(_rc):
            report = tr.run("harness.run_experiment", run_experiment, config,
                            workers=self.WORKERS, children=experiment_children)
            tr.run("harness.write_report", write_report, report, op.inputs["out"])

        return tr.run("cli.main", self.call, op, children=cli_children)

    def check(self, op, out, rng):
        rc, blob = out
        if rc != 0:
            return [f"cli exit {rc}"]
        problems = checks.check_verify_report(json.loads(blob))
        if op.checked:
            rc1 = run_cli(self.argv(op, 1))
            if rc1 != 0 or op.inputs["out"].with_suffix(".json").read_bytes() != blob:
                problems.append("report with --workers 1 is not byte-identical")
        return problems

    def cert_rel_errs(self, op, out):
        return [checks.verify_row_rel_err(row) for row in json.loads(out[1])["rows"]]

    def sup_norm_plan(self, op):
        return [(self.draw(op, i)[1], DISTINGUISHED) for i in range(self.SAMPLES)]


class RatioMulti(Workload):
    """spectral_ratio on commuting pairs, with a minority of doubly commuting triples."""

    name = "ratio_multi"
    rate = 18.0
    # A seventh of the ops are triples, so p90 lies well inside the
    # triple group and p50 inside the pair group.
    TRIPLE_SHARE = 1 / 7
    TRIPLE_PANEL = 7
    TRIPLE_CHECK_EVERY = 2  # triples whose sup norm is re-derived in the checks
    # One triple's sup norm takes 0.1 s or 2 s depending on how well slice
    # pruning works on it, so the few triples drawn per seed would swing
    # ops_per_s by a third between seeds.  Every seed therefore times the
    # same panel of TRIPLE_PANEL triples, drawn once from this fixed key
    # and repeated to fill the triple share; the seed draws the pairs and
    # the order.
    TRIPLE_KEY = 1 << 40

    def make_ops(self, tr=None):
        n_triples = max(1, round(self.TRIPLE_SHARE * self.n_ops))
        kinds = ["triple"] * n_triples + ["pair"] * (self.n_ops - n_triples)
        self.rng(0, 0).shuffle(kinds)
        ops = []
        count = {"pair": 0, "triple": 0}
        for kind in kinds:
            i = count[kind]
            count[kind] += 1
            gen, k = (self.gen_triple, i % self.TRIPLE_PANEL) if kind == "triple" else (self.gen_pair, i)
            T, g = maybe_traced(tr, "harness.gen", gen, k, children=lambda out: tr.run(
                "operators.make_tuple", make_tuple, out[0].matrices, out[0].mode))
            checked = kind == "pair" or i % self.TRIPLE_CHECK_EVERY == 0
            bound = polyannulus_dc_bound(R, 3) if kind == "triple" else biannulus_bound(R)
            ops.append(Op(kind, {"T": T, "g": g, "bound": bound}, checked=checked))
        return ops

    def gen_pair(self, i):
        """Pair i; dimension, degree and term count cycle through their ranges."""
        rng = self.rng(1, i)
        T = gen_tuple("commuting_pair", 2, 2 + (i // 6) % 3, R2, rng)
        return T, gen_laurent(2, 1 + i % 6, rng, n_terms=3 + (i // 18) % 6)

    def gen_triple(self, i):
        rng = substream(self.TRIPLE_KEY, i)
        T = gen_tuple("doubly_commuting", 3, 3, R2, rng)
        return T, gen_laurent(3, 1 + i % 6, rng)

    def warmup_ops(self):
        """A pair from the schedule, and the first triple with a monomial.

        A random triple can take seconds; the monomial exercises the same
        code on the same tuple without the pruning cost.
        """
        pair = next(op for op in self.ops if op.kind == "pair")
        triple = next(op for op in self.ops if op.kind == "triple")
        monomial = LaurentPoly(3, {(1, 0, 0): 1.0})
        return [pair, Op("triple", dict(triple.inputs, g=monomial))]

    def call(self, op):
        return spectral_ratio(op.inputs["T"], op.inputs["g"], R2, bound=op.inputs["bound"])

    def traced(self, op, tr):
        T, g = op.inputs["T"], op.inputs["g"]
        return tr.run("bounds.spectral_ratio", spectral_ratio, T, g, R2, bound=op.inputs["bound"],
                      children=spectral_ratio_children(tr, T, g, R2))

    def check(self, op, report, rng):
        T, g = op.inputs["T"], op.inputs["g"]
        problems = checks.check_ratio(report, T.matrices, g)
        if op.checked:
            problems += check_reported_sup_norm(
                g, DISTINGUISHED, report.g_supnorm, report.certified_error, rng)
        return problems

    def cert_rel_errs(self, op, report):
        return [report.certified_error / report.g_supnorm]

    def sup_norm_plan(self, op):
        return [(op.inputs["g"], DISTINGUISHED)]


def check_reported_sup_norm(g, spec, value, certified_error, rng) -> list:
    """Re-derive the sup norm the op reported and check both of its claims.

    The op exposes value and certificate but not the maximiser, so the
    public sup_norm is called again for arg_point; the reported pair
    must match it.
    """
    res = sup_norm(g, spec)
    problems = []
    if not (math.isclose(res.value, value, rel_tol=1e-12)
            and math.isclose(res.certified_error, certified_error, rel_tol=1e-12)):
        problems.append(f"reported sup norm {value!r}+{certified_error!r} is not sup_norm's")
    return problems + checks.check_sup_norm(
        g, spec.tori(g.n_vars), spec.grid_size(g), res.value, res.certified_error, res.arg_point, rng)


class Decompose(Workload):
    """cli decompose on polynomial files with n in {1, 2}, degrees 1..8."""

    name = "decompose"
    rate = 50.0
    passes = 8

    def make_ops(self, tr=None):
        ops = []
        for j in range(self.n_ops):
            rng = self.rng(1, j)
            # Two ops in three have n = 1, so p50 lies inside the n = 1
            # group: the n = 2 ops cost 2 to 5 sup norms each, and a p50
            # among them would jump between those clusters from run to run.
            n = 1 if j % 3 < 2 else 2
            k = (j // 3) * (2 if n == 1 else 1) + (j % 3 if n == 1 else 0)
            # Degree and term count cycle through their ranges within each n.
            g = maybe_traced(tr, "harness.gen", gen_laurent, n, 1 + k % 8, rng, n_terms=3 + (k // 8) % 6)
            path = self.workdir / f"poly_{j}.json"
            path.write_text(json.dumps(g.as_json_dict()))
            # The CLI's own parse of the file: same term order, so same rounding.
            g = LaurentPoly.from_json_dict(g.as_json_dict())
            out = self.workdir / f"poly_{j}.out.json"
            argv = ["decompose", "--poly", str(path), "--r", str(R), "--out", str(out)]
            biannulus = n == 2 and bool(rng.integers(2))
            if biannulus:
                argv.append("--use-biannulus-bounds")
            which = "bivariate" if biannulus else "general"
            ops.append(Op(f"n{n}", {"g": g, "argv": argv, "out": out, "which": which}))
        return ops

    def call(self, op):
        return run_cli(op.inputs["argv"])

    def collect(self, op, rc):
        return rc, op.inputs["out"].read_bytes() if rc == 0 else b""

    def traced(self, op, tr):
        g = op.inputs["g"]

        def verify_children(_report):
            traced_sup_norm(tr, g, DISTINGUISHED)
            for part in sign_parts(g).values():
                traced_sup_norm(tr, part, POLYCIRCLE)
            tr.run("laurent.decompose_2n", decompose_2n, g)

        def cli_children(_rc):
            tr.run("laurent.verify_decomposition_estimates", verify_decomposition_estimates,
                   g, R2, which=op.inputs["which"], children=verify_children)
            tr.run("laurent.decompose_2n", decompose_2n, g)

        return tr.run("cli.main", self.call, op, children=cli_children)

    def check(self, op, out, rng):
        rc, blob = out
        if rc != 0:
            return [f"cli exit {rc}"]
        g = op.inputs["g"]
        payload = json.loads(blob)
        problems = checks.check_decompose_output(payload, g)
        problems += check_reported_sup_norm(
            g, DISTINGUISHED, payload["g_supnorm"], payload["g_certified_error"], rng)
        g_rel = payload["g_certified_error"] / payload["g_supnorm"]
        for row in payload["estimates"]:
            if row["part_norm"] == 0.0:
                continue
            part = sign_parts(g)[row["pattern"]]
            part_error = row["part_norm"] * (row["relative_error"] - g_rel)
            problems += check_reported_sup_norm(part, POLYCIRCLE, row["part_norm"], part_error, rng)
        return problems

    def cert_rel_errs(self, op, out):
        payload = json.loads(out[1])
        g_rel = payload["g_certified_error"] / payload["g_supnorm"]
        parts = [row["relative_error"] - g_rel for row in payload["estimates"] if row["part_norm"] > 0]
        return [g_rel] + parts

    def sup_norm_plan(self, op):
        g = op.inputs["g"]
        return [(g, DISTINGUISHED)] + [(part, POLYCIRCLE) for part in sign_parts(g).values()]


def gen_member_pair(dim, params, rng):
    return gen_qa_operator(dim, params, rng), gen_non_member(dim, params, rng)


class Dilation(Workload):
    """dilate + biball_lift on members, membership on non-members, a few extremal scans."""

    name = "dilation"
    rate = 420.0
    passes = 8
    RADII = (1.5, 2.0, 4.0)
    N_RANGE = range(-4, 5)
    SCAN_P = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64)
    SCAN_EVERY = 20

    def make_ops(self, tr=None):
        """Dimension and radius cycle; every SCAN_EVERY-th op is a scan.

        Scans have no random input: p cycles through SCAN_P, n through 1, 2.
        """
        ops = []
        for j in range(self.n_ops):
            rng = self.rng(1, j)
            params = AnnulusParams(self.RADII[(j // 8) % len(self.RADII)])
            if j % self.SCAN_EVERY == self.SCAN_EVERY - 1:
                k = j // self.SCAN_EVERY
                p = self.SCAN_P[k % len(self.SCAN_P)]
                m_list = list(range(1, min(p, 8) + 1))
                ops.append(Op("scan", {"params": params, "p": p, "m": m_list, "n": 1 + (k // len(self.SCAN_P)) % 2}))
                continue
            dim = 1 + j % 8
            T, N = maybe_traced(tr, "harness.gen", gen_member_pair, dim, params, rng)
            ops.append(Op("member", {"params": params, "T": T, "N": N}))
        return ops

    def member_call(self, T, N, params):
        return (dilate(T, params, n_range=self.N_RANGE), biball_lift(T, params), membership(N, params))

    def call(self, op):
        x = op.inputs
        if op.kind == "scan":
            return lower_bound_scan(x["params"], [x["p"]], x["m"], n=x["n"])
        return self.member_call(x["T"], x["N"], x["params"])

    def traced(self, op, tr):
        x = op.inputs
        if op.kind == "scan":
            return tr.run("extremal.lower_bound_scan", lower_bound_scan, x["params"], [x["p"]], x["m"], n=x["n"])
        T, N, params = x["T"], x["N"], x["params"]

        def dilate_children(_res):
            tr.run("annulus.membership", membership, T, params)

        def biball_children(_lift):
            tr.run("annulus.membership", membership, T, params)
            tr.run("annulus.dilate", dilate, T, params, n_range=(), children=dilate_children)

        def op_children(_out):
            tr.run("annulus.dilate", dilate, T, params, n_range=self.N_RANGE, children=dilate_children)
            tr.run("hyperbola.biball_lift", biball_lift, T, params, children=biball_children)
            tr.run("annulus.membership", membership, N, params)

        return tr.run("dilation.op", self.member_call, T, N, params, children=op_children)

    def digest(self, out):
        if isinstance(out, tuple):
            res, lift, mem = out
            return (res.defect_norm, res.gram_error, tuple(sorted(res.compression_errors.items())),
                    lift.unitary_defect, lift.product_defect, mem)
        return tuple(out.rows)

    def check(self, op, out, rng):
        x = op.inputs
        if op.kind == "scan":
            return checks.check_scan(out, x["params"].r)
        res, lift, mem = out
        return (checks.check_dilation(np.asarray(x["T"], dtype=complex), x["params"].r, res, self.N_RANGE)
                + checks.check_biball(lift) + checks.check_non_member(mem))

    def final_checks(self, rng):
        """Certified sup norms of the scan's witness functions g_m.

        The scan divides by the closed form 1 + r^-2m; it must lie within
        the certified enclosure of sup |g_m| over the annulus boundary.
        These sup norms are the checks', not the ops': the ops make none.
        """
        problems, rel = [], []
        pairs = sorted({(op.inputs["params"].r, m) for op in self.ops if op.kind == "scan" for m in op.inputs["m"]})
        for r, m in pairs:
            g = witness_function(m, AnnulusParams(r))
            spec = BoundarySpec("polyannulus_distinguished", r)
            res = sup_norm(g, spec)
            closed = 1.0 + r ** (-2 * m)
            if not res.value <= closed * (1 + 1e-12) <= res.upper * (1 + 2e-12):
                problems.append(f"witness m={m} r={r}: 1 + r^-2m outside [{res.value!r}, {res.upper!r}]")
            problems += checks.check_sup_norm(g, spec.tori(1), spec.grid_size(g), res.value,
                                              res.certified_error, res.arg_point, rng)
            rel.append(res.relative_error)
        return problems, rel


WORKLOADS = {w.name: w for w in (VerifySingle, RatioMulti, Decompose, Dilation)}
