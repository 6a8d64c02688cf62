import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaspectral.bounds import BOUND_KINDS
from qaspectral.cli import main
from qaspectral.errors import InputError
from qaspectral.harness import MODES, ExperimentConfig
from qaspectral.laurent import LaurentPoly
from qaspectral.linalg import load_matrix, save_matrix


@pytest.fixture
def member_file(tmp_path):
    path = tmp_path / "member.json"
    save_matrix(path, np.diag([2.0, 0.5]))
    return path


def test_check_member(member_file, capsys):
    code = main(["check", "--matrix", str(member_file), "--r", "2.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["in_qa"] is True
    assert payload["is_qa_unitary"] is True


def test_check_missing_file_is_input_error(tmp_path):
    assert main(["check", "--matrix", str(tmp_path / "nope.json")]) == 2


def test_check_bad_radius_is_input_error(member_file):
    assert main(["check", "--matrix", str(member_file), "--r", "0.5"]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 1, "entries": 5},
        {"dim": 1, "entries": [5]},
        {"dim": 1, "entries": [[["a", 1]]]},
        {"dim": 1, "entries": [[[10 ** 400, 0]]]},
    ],
    ids=["entries-not-a-list", "row-not-a-list", "string-entry", "entry-beyond-float"],
)
def test_check_malformed_matrix_is_input_error(tmp_path, capsys, payload):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert main(["check", "--matrix", str(path)]) == 2
    assert _stderr_is_one_line(capsys)


def test_dilate_writes_matrix_and_verification(tmp_path, capsys):
    src = tmp_path / "t.json"
    save_matrix(src, np.array([[1.0]]))
    out = tmp_path / "hat"
    code = main(["dilate", "--matrix", str(src), "--r", "2.0", "--out", str(out)])
    assert code == 0
    hat = load_matrix(tmp_path / "hat.json")
    np.testing.assert_allclose(hat, [[1.0, 1.5], [0.0, 1.0]], atol=1e-12)
    verification = json.loads((tmp_path / "hat_verification.json").read_text())
    assert verification["defect_ok"] is True
    assert verification["compression_errors"]["-4"] <= 1e-8


def test_decompose(tmp_path, capsys):
    g = LaurentPoly(2, {(1, 1): 1.0, (1, -1): 1.0, (-1, -1): 1.0})
    poly_path = tmp_path / "g.json"
    poly_path.write_text(json.dumps(g.as_json_dict()))
    out = tmp_path / "parts.json"
    code = main(["decompose", "--poly", str(poly_path), "--r", "2.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert set(payload["parts"]) == {"++", "+-", "-+", "--"}
    assert payload["parts"]["-+"]["terms"] == []


def test_verify_bounds_csv(tmp_path):
    out = tmp_path / "vb"
    code = main(
        [
            "verify-bounds",
            "--r",
            "2.0",
            "--kind",
            "annulus",
            "--samples",
            "5",
            "--seed",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (tmp_path / "vb.csv").read_text().strip().split("\n")
    assert lines[0] == "sample_id,dim,degree,ratio,bound,margin"
    assert len(lines) == 6


def test_second_call_keeps_the_defaults(tmp_path):
    # one parser serves both calls; the first call's lists must not leak
    argv = ["verify-bounds", "--samples", "1", "--seed", "2"]
    assert main(argv + ["--dims", "1", "--degrees", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    config = json.loads((tmp_path / "b.json").read_text())["config"]
    assert config["dims"] == [2, 3, 4]
    assert config["degrees"] == [2, 4, 6]


def test_scan_extremal(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan-extremal", "--r", "2.0", "--p", "1..4", "--m", "1..4", "--n", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,m,n,ratio,reference,upper"
    # feasible cells only: p >= m over the 4x4 grid
    assert len(lines) == 1 + 10


def test_report_from_config(tmp_path):
    config = {
        "r": 2.0,
        "seed": 4,
        "dims": [2],
        "degrees": [2],
        "n_samples": 3,
        "mode": "single",
        "n_vars": 1,
        "bound_kind": "annulus",
        "output_path": str(tmp_path / "rep"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["report", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "rep.json").read_bytes()
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "rep.json").read_bytes() == first


def test_report_cli_overrides(tmp_path):
    out = tmp_path / "or"
    code = main(["report", "--r", "2.0", "--seed", "1", "--samples", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads((tmp_path / "or.json").read_text())
    assert payload["summary"]["n_samples"] == 2
    assert payload["generator"] == "philox4x64"


def test_unknown_command_is_input_error():
    assert main(["frobnicate"]) == 2


def _stderr_is_one_line(capsys):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"n": 1, "terms": [{"exp": [1], "im": 0.0}]}),
        "not json",
        json.dumps({"n": 1, "terms": 5}),
    ],
    ids=["term-without-re", "not-json", "terms-not-a-list"],
)
def test_decompose_malformed_file_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["decompose", "--poly", str(path)]) == 2
    assert _stderr_is_one_line(capsys)


def test_decompose_grid_above_cap_exits_2(tmp_path, capsys):
    # z_1 + z_14 would need a 256^13 x 2 grid sweep
    terms = [{"exp": [int(i == j) for i in range(14)], "re": 1.0, "im": 0.0} for j in (0, 13)]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 14, "terms": terms}))
    assert main(["decompose", "--poly", str(path)]) == 2
    assert _stderr_is_one_line(capsys)


@pytest.mark.parametrize("r", ["1e100", "1e200"])
def test_verify_bounds_at_huge_radius(tmp_path, capsys, r):
    argv = ["verify-bounds", "--r", r, "--samples", "1", "--dims", "1", "--degrees", "1"]
    code = main(argv + ["--out", str(tmp_path / "vb")])
    assert code in (0, 2)
    if code == 2:
        assert _stderr_is_one_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-extremal", "--r", "2", "--p", "2", "--m", "1", "--n", "1000"],
        ["verify-bounds", "--kind", "polyannulus_dc", "--n", "700", "--dims", "1",
         "--degrees", "1", "--samples", "1"],
    ],
    ids=["scan-extremal", "verify-bounds"],
)
def test_overflowing_polyannulus_dc_bound_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert _stderr_is_one_line(capsys)


def test_overflowing_sup_norm_prints_one_line(tmp_path, capsys):
    # a numpy RuntimeWarning would be a second stderr line outside pytest
    argv = ["verify-bounds", "--r", "1.3e154", "--samples", "1", "--dims", "1", "--degrees", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "vb")]) == 2
    assert _stderr_is_one_line(capsys)


@pytest.mark.parametrize(
    "text",
    ["[1]", json.dumps({"dims": 3}), "not json", json.dumps({"r": "x"})],
    ids=["list", "dims-not-a-list", "not-json", "r-not-a-number"],
)
def test_report_malformed_config_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "rep")]) == 2
    assert _stderr_is_one_line(capsys)
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize(
    "mode, n_vars, bound_kind",
    [
        ("single", 1, "polyannulus_dc"),
        ("commuting_pair", 2, "annulus"),
        ("doubly_commuting", 2, "biannulus"),
        ("single", 2, "annulus"),
    ],
)
def test_mismatched_triple_is_input_error(tmp_path, capsys, mode, n_vars, bound_kind):
    triple = {"mode": mode, "n_vars": n_vars, "bound_kind": bound_kind}
    with pytest.raises(InputError):
        ExperimentConfig(**triple)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**triple, "n_samples": 1, "dims": [1], "degrees": [1]}))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "rep")]) == 2
    assert _stderr_is_one_line(capsys)
    assert not (tmp_path / "rep.json").exists()


# Fuzzing main() on arbitrary file contents.  Numbers come only from the
# small ranges below, so every payload that passes validation runs in
# milliseconds; junk values carry no numbers at all.
CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
KEYS = st.text(max_size=4).filter(lambda k: k not in CONFIG_KEYS)
JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(-8, 8) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _or_junk(strategy):
    return st.one_of(strategy, JUNK)


TERM = _or_junk(
    st.fixed_dictionaries(
        {"exp": _or_junk(st.lists(st.integers(-4, 4), max_size=3))},
        optional={
            "re": _or_junk(st.floats(-10, 10) | st.integers(-3, 3)),
            "im": _or_junk(st.floats(-10, 10)),
        },
    )
)
POLY = st.fixed_dictionaries(
    {"n": _or_junk(st.integers(-1, 2)), "terms": _or_junk(st.lists(TERM, max_size=4))}
)
CONFIG = st.fixed_dictionaries(
    {
        "dims": _or_junk(st.lists(st.integers(-1, 3), max_size=3)),
        "degrees": _or_junk(st.lists(st.integers(-1, 4), max_size=3)),
        "n_samples": _or_junk(st.integers(-1, 2)),
    },
    optional={
        "r": _or_junk(st.floats(1.5, 4) | st.sampled_from([2, 0.5, -1.0])),
        "seed": _or_junk(st.integers(0, 9)),
        "mode": _or_junk(st.sampled_from(MODES)),
        "n_vars": _or_junk(st.integers(-1, 2)),
        "bound_kind": _or_junk(st.sampled_from(tuple(BOUND_KINDS))),
        "output_path": JUNK,
    },
)


def _file_contents(payload):
    return st.one_of(
        payload.map(lambda p: json.dumps(p).encode()),
        ANY_JSON.map(lambda p: json.dumps(p).encode()),
        st.text(max_size=12).map(str.encode),
        st.binary(max_size=12),
    )


def _run_on_file(argv, flag, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [flag, str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_file_contents(POLY))
def test_decompose_never_raises(content):
    _run_on_file(["decompose"], "--poly", content)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_file_contents(CONFIG))
def test_report_never_raises(content):
    _run_on_file(["report"], "--config", content)
