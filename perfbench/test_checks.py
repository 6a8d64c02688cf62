"""The benchmark's checks fire on wrong outputs.

    python3 -m pytest perfbench/test_checks.py

Each test feeds the checker a deliberately wrong result and shows that
it is reported, and counted as a failed op where the run loop counts.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from qaspectral.harness import gen_laurent, substream  # noqa: E402
from qaspectral.laurent import BoundarySpec, sup_norm  # noqa: E402


@pytest.fixture(params=[1, 2])
def measured(request):
    n = request.param
    g = gen_laurent(n, 5, substream(7, n))
    spec = BoundarySpec("polyannulus_distinguished", 2.0)
    return g, spec, sup_norm(g, spec)


def sup_problems(g, spec, value, certified_error, arg_point):
    rng = np.random.default_rng(0)
    return checks.check_sup_norm(
        g, spec.tori(g.n_vars), spec.grid_size(g), value, certified_error, arg_point, rng)


def test_true_sup_norm_passes(measured):
    g, spec, res = measured
    assert sup_problems(g, spec, res.value, res.certified_error, res.arg_point) == []


def test_value_above_attained_is_caught(measured):
    g, spec, res = measured
    problems = sup_problems(g, spec, res.value * 1.01, res.certified_error, res.arg_point)
    assert any("exceeds |g(arg_point)|" in p for p in problems)


def test_upper_bound_below_dense_sample_is_caught(measured):
    g, spec, res = measured
    problems = sup_problems(g, spec, 0.9 * res.value, 0.0, res.arg_point)
    assert any("exceeds certified upper" in p for p in problems)


def test_arg_point_off_boundary_is_caught(measured):
    g, spec, res = measured
    inside = tuple(1.5 * z / abs(z) for z in res.arg_point)
    problems = sup_problems(g, spec, res.value, res.certified_error, inside)
    assert any("none of the boundary tori" in p for p in problems)


def decompose_workload(tmp_path):
    wl = workloads.Decompose(seed=3, seconds=0.1, workdir=tmp_path)
    wl.setup()
    return wl


def finish(wl, op, out):
    tally = run.Tally()
    run.finish_op(wl, 0, op, out, tally, np.random.default_rng(0), [])
    return tally


def test_nonzero_cli_exit_counts_as_failed(tmp_path):
    wl = decompose_workload(tmp_path)
    op = wl.ops[0]
    op.inputs["argv"][2] = str(tmp_path / "missing.json")
    rc = wl.call(op)
    assert rc == 2
    tally = finish(wl, op, rc)
    assert tally.failed == 1 and "cli exit 2" in tally.problems[0]


def test_tampered_sup_norm_counts_as_failed(tmp_path):
    wl = decompose_workload(tmp_path)
    op = wl.ops[1]
    assert finish(wl, op, wl.call(op)).failed == 0
    text = op.inputs["out"].read_text()
    op.inputs["out"].write_text(text.replace('"g_certified_error": ', '"g_certified_error": -', 1))
    op.first = None
    assert finish(wl, op, 0).failed == 1


def test_raised_op_and_changed_repeat_count_as_failed(tmp_path):
    wl = decompose_workload(tmp_path)
    op = wl.ops[0]
    assert finish(wl, op, ValueError("boom")).failed == 1
    op.first = (0, b"another output")
    assert finish(wl, op, wl.call(op)).failed == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = run.layer_metrics(Tracer(), Tracer(), 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
