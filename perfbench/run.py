"""qaspectral benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.
With --trace 0 it times ops and prints the end-to-end metrics; with
--trace 1 it prints the per-layer metrics of a traced pass.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Full results (provenance, counts, problems) and the traced run's spans
are written under .bench_out/.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Every op runs at least this often, so its median latency shrugs off
# one slow spell of the shared host.
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "cert_rel_err_p50": "ratio",
    "cert_rel_err_max": "ratio",
    "peak_rss_mb": "MB",
}

# Layers whose calls, busy time and self time the traced run reports.
LAYERS = (
    "cli.main",
    "harness.run_experiment",
    "harness.evaluate_sample",
    "harness.write_report",
    "bounds.spectral_ratio",
    "laurent.sup_norm",
    "laurent.verify_decomposition_estimates",
    "laurent.decompose_2n",
    "laurent.eval_operators",
    "linalg.op_norm",
    "annulus.membership",
    "annulus.dilate",
    "hyperbola.biball_lift",
    "extremal.lower_bound_scan",
)
SETUP_LAYERS = ("harness.gen", "operators.make_tuple")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".grid_points")):
        return "count"
    return "ratio"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import qaspectral from the checkout's src/, and nothing else.

    Exits with code 1 when the source is missing, so the benchmark
    never reports on a program it did not build from this checkout.
    """
    sys.path.insert(0, str(SRC))
    try:
        import qaspectral
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC.name}/: {exc}")
    if not Path(qaspectral.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: qaspectral was imported from outside {SRC.name}/")
    return workloads


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # not a git checkout: source_sha256 identifies the code


def provenance(args, fingerprint: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": fingerprint["source_sha256"],
        "bench_sha256": fingerprint["bench_sha256"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Attempted and failed ops, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.repeat_checked = 0
        self.problems = []

    def record(self, where: str, problems: list) -> None:
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {problems[:3]}")


def finish_op(wl, j, op, out, tally, rng, cert):
    """Collect, check and count one op outside the timed region."""
    try:
        if isinstance(out, BaseException):
            raise out
        result = wl.collect(op, out)
        if op.first is None:
            problems = wl.check(op, result, rng)
            op.first = wl.digest(result)
            if not problems:
                cert.extend(wl.cert_rel_errs(op, result))
            tally.checked += 1
        else:
            problems = [] if wl.digest(result) == op.first else ["output differs from the first run of this op"]
            tally.repeat_checked += 1
    except Exception as exc:  # noqa: BLE001 - an op or its check raised: count it, keep running
        problems = [f"{type(exc).__name__}: {exc}"]
        if len(tally.problems) < 3:
            traceback.print_exc(file=sys.stderr)
    tally.record(f"op {j} ({op.kind})", problems)


def call_op(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op by finish_op
        return exc


def timed_run(wl, seconds, tally, rng, cert) -> tuple:
    """Closed loop, one client: whole passes over the schedule for about --seconds of op time.

    The run stops at the end of the pass nearest to --seconds of op
    time, after at least MIN_PASSES passes.  Whole passes keep the op
    mix exact.  Returns the latencies of every op, by its place in the
    schedule, and the op rate of every pass.
    """
    latencies = [[] for _ in wl.ops]
    rates = []
    busy = 0.0
    while len(rates) < MIN_PASSES or busy + 0.5 * busy / len(rates) < seconds:
        pass_busy = 0.0
        for j, op in enumerate(wl.ops):
            t0 = time.perf_counter()
            out = call_op(wl.call, op)
            dt = time.perf_counter() - t0
            latencies[j].append(dt)
            pass_busy += dt
            tally.attempted += 1
            finish_op(wl, j, op, out, tally, rng, cert)
        busy += pass_busy
        rates.append(len(wl.ops) / pass_busy)
    return latencies, rates


def traced_run(wl, tally, rng, cert):
    """One traced pass over the schedule, each op also run once untraced.

    The untraced and traced runs of an op alternate in order, so the
    overhead (traced parent time / untraced time - 1) is not skewed
    by whichever runs on warmer caches.
    """
    tr = Tracer()
    untraced = 0.0
    for j, op in enumerate(wl.ops):
        tr.op = j
        for traced in ((False, True) if j % 2 else (True, False)):
            if traced:
                out = call_op(wl.traced, op, tr)
            else:
                t0 = time.perf_counter()
                call_op(wl.call, op)
                untraced += time.perf_counter() - t0
        tally.attempted += 1
        finish_op(wl, j, op, out, tally, rng, cert)
    parents = sum(s.duration for s in tr.spans if s.parent is None)
    return tr, parents / untraced - 1.0


def layer_metrics(tr, setup_tr, workers: int, overhead: float) -> dict:
    layers = tr.layers()
    metrics = {}
    for layer in LAYERS:
        row = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in ("calls", "busy_s", "self_s"):
            metrics[f"{layer}.{field}"] = row[field]
    setup_layers = setup_tr.layers()
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.busy_s"] = setup_layers.get(layer, {"busy_s": 0.0})["busy_s"]
    metrics["laurent.sup_norm.grid_points"] = tr.counts.get("laurent.sup_norm.grid_points", 0)
    run_busy = metrics["harness.run_experiment.busy_s"]
    metrics["harness.run_experiment.parallel_eff"] = (
        metrics["harness.evaluate_sample.busy_s"] / (workers * run_busy) if run_busy else 0.0
    )
    metrics["trace.overhead_frac"] = overhead
    return metrics


def repeat_check(args, fingerprint: dict) -> list:
    """Counts and certificates must repeat exactly for the same code and seed.

    Keyed by the digests of src/ and of the benchmark's own code.
    """
    code = fingerprint["source_sha256"][:12] + fingerprint["bench_sha256"][:12]
    key = f"{args.workload}-seed{args.seed}-s{args.seconds:g}-{code}.json"
    path = OUT / "fingerprints" / key
    if path.exists():
        old = json.loads(path.read_text())
        return [f"{k}: {old.get(k)!r} before, {v!r} now" for k, v in fingerprint.items() if old.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint, sort_keys=True) + "\n")
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import numpy as np

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # Set-up: schedule generation and warm-up, repeated; the median counts.
        setup_times = []
        setup_tr = Tracer()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = cls(args.seed, args.seconds, workdir)
            wl.setup(setup_tr if args.trace else None)
            for op in wl.warmup_ops():
                wl.call(op)
            setup_times.append(time.perf_counter() - t0)

        tally = Tally()
        cert = []
        rng = np.random.default_rng(args.seed)
        if args.trace:
            tr, overhead = traced_run(wl, tally, rng, cert)
        else:
            latencies, rates = timed_run(wl, args.seconds, tally, rng, cert)
        problems, extra_cert = wl.final_checks(rng)
        tally.record("schedule checks", problems)
        cert += extra_cert

        plan = [item for op in wl.ops for item in wl.sup_norm_plan(op)]
        fingerprint = {
            "source_sha256": tree_digest(SRC),
            "bench_sha256": tree_digest(Path(__file__).resolve().parent),
            "schedule_ops": len(wl.ops),
            "checked_ops": tally.checked,
            "laurent.sup_norm.calls_per_pass": len(plan),
            "laurent.sup_norm.grid_points_per_pass": sum(workloads.grid_points(g, s) for g, s in plan),
            "cert_rel_err_p50": statistics.median(cert) if cert else None,
            "cert_rel_err_max": max(cert) if cert else None,
        }
        mismatches = repeat_check(args, fingerprint)
        if args.trace:
            traced = (tr.layers().get("laurent.sup_norm", {"calls": 0})["calls"],
                      tr.counts.get("laurent.sup_norm.grid_points", 0))
            planned = (fingerprint["laurent.sup_norm.calls_per_pass"],
                       fingerprint["laurent.sup_norm.grid_points_per_pass"])
            if traced != planned:
                mismatches.append(f"traced sup_norm (calls, grid points) {traced} != planned {planned}")
        for m in mismatches:
            print(f"perfbench: exact-repeat check failed: {m}", file=sys.stderr)

        if args.trace:
            workers = getattr(wl, "WORKERS", 1)
            metrics = layer_metrics(tr, setup_tr, workers, overhead)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            # Each op's latency is its median over the passes; p50 and p90
            # are taken over the schedule's ops, at least 100 of them.
            op_latencies = [statistics.median(times) for times in latencies]
            deciles = statistics.quantiles(op_latencies, n=10, method="inclusive")
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "ops_per_s": statistics.median(rates),
                "op_p50_ms": 1e3 * statistics.median(op_latencies),
                "op_p90_ms": 1e3 * deciles[8],
                "ok_frac": 1.0 - tally.failed / tally.attempted,
                "cert_rel_err_p50": fingerprint["cert_rel_err_p50"],
                "cert_rel_err_max": fingerprint["cert_rel_err_max"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        correct = tally.failed == 0 and not mismatches

        result = {
            "provenance": provenance(args, fingerprint),
            "correct": correct,
            "ops": {
                "attempted": tally.attempted,
                "failed": tally.failed,
                "schedule": len(wl.ops),
                "fully_checked": tally.checked,
                "repeat_checked": tally.repeat_checked,
                "by_kind": {k: sum(op.kind == k for op in wl.ops) for k in sorted({op.kind for op in wl.ops})},
            },
            "pass_rates": [] if args.trace else rates,
            "fingerprint": fingerprint,
            "exact_repeat_mismatches": mismatches,
            "problems": tally.problems,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / "results").mkdir(exist_ok=True)
        (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
        if args.trace:
            tr.write(OUT / "results" / f"{stem}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(result)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


def report(result: dict) -> None:
    """Human-readable summary ahead of the JSON line."""
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"commit {prov['commit'][:12]}  source {prov['source_sha256'][:12]}")
    print(f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas {prov['blas']} threads 1  nproc {prov['nproc']}")
    ops = result["ops"]
    print(f"ops attempted {ops['attempted']}  failed {ops['failed']}  schedule {ops['schedule']} "
          f"{ops['by_kind']}  fully checked {ops['fully_checked']}  repeat checked {ops['repeat_checked']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
