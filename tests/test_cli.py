"""Command-line interface: file formats, commands, exit codes."""

import csv
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abflow
from abflow import (AccelConfig, ParseError, Pencil, SqrtProblem,
                    modified_ab_run)
from abflow import cli
from abflow.cli import main, matrix_to_json, parse_matrix_file, write_matrix_json
from abflow.lab import (ProblemSpec, make_known_sqrt_problem,
                        make_pencil_problem, run_experiment)
from abflow.linalg import EPS
from abflow.trace import atomic_write_text


def write(path, text):
    path.write_text(text)
    return str(path)


def read_strict_json(path):
    """A JSON file's document; NaN and Infinity, which are not JSON, fail."""
    def reject(token):
        raise ValueError(f"{path} holds {token}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


# ----------------------------- parsing -----------------------------

def test_parse_txt_diagonal(tmp_path):
    M = parse_matrix_file(write(tmp_path / "m.txt", "2 0\n0 3\n"))
    assert np.array_equal(M, np.array([[2, 0], [0, 3]], dtype=complex))


def test_parse_json_scalar(tmp_path):
    path = tmp_path / "m.json"
    M = parse_matrix_file(write(path, '{"rows":1,"cols":1,"data":[[4,0]]}'))
    assert np.array_equal(M, np.array([[4.0]], dtype=complex))
    assert np.array_equal(parse_matrix_file(path), M)   # a Path works too


def test_parse_txt_ragged_rows(tmp_path):
    with pytest.raises(ParseError, match="row has 1 entries, expected 2") as info:
        parse_matrix_file(write(tmp_path / "m.txt", "1 2\n3\n"))
    assert info.value.line == 2


def test_parse_txt_bad_token_reports_position(tmp_path):
    # Python's float takes 1_0, the Arabic-Indic one, inf and nan too
    for tok in ("x", "1_0", "\u0661", "inf", "nan", "1e", "--1", "0x1"):
        with pytest.raises(ParseError, match="bad entry") as info:
            parse_matrix_file(write(tmp_path / "m.txt", f"1 2\n3 {tok}\n"))
        assert info.value.line == 2
        assert info.value.offset == 1


@pytest.mark.parametrize("name, text, message", [
    ("m.txt", "1 2\n3 -1e999\n", "bad entry '-1e999'"),
    ("m.json", '{"rows":1,"cols":2,"data":[[1,0],[0,1e999]]}',
     "entry 1 is outside double range"),
    # an "f" anywhere sends the document through the per-entry scan
    ("m.json", '{"rows":1,"cols":2,"data":[[1,0],[1e999,0]],"of":0}',
     "entry 1 is outside double range"),
    ("m.json", '{"rows":1,"cols":1,"data":[[NaN,0]]}',
     "NaN is not a finite number"),
    ("m.json", '{"rows":1,"cols":1,"data":[[Infinity,0]]}',
     "Infinity is not a finite number"),
    ("m.json", '{"rows":1,"cols":1,"data":[[0,-Infinity]]}',
     "-Infinity is not a finite number"),
], ids=["txt-1e999", "json-1e999", "json-scan-1e999", "json-NaN",
        "json-Infinity", "json-minus-Infinity"])
def test_parse_rejects_non_finite_entries(tmp_path, name, text, message):
    path = write(tmp_path / name, text)
    with pytest.raises(ParseError, match=message) as info:
        parse_matrix_file(path)
    if name.endswith(".txt"):
        assert (info.value.line, info.value.offset) == (2, 1)
    assert main(["sqrt", "--input", str(path),
                 "--out", str(tmp_path / "X.json")]) == 1


def test_parse_txt_accepts_decimal_spellings(tmp_path):
    M = parse_matrix_file(write(tmp_path / "m.txt", "1. .5 +1\n-0 1e-3 2E+2\n"))
    assert np.array_equal(M, np.array([[1, 0.5, 1], [0, 1e-3, 200]], dtype=complex))


def test_parse_txt_empty_file(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix_file(write(tmp_path / "m.txt", "\n\n"))


def test_parse_json_bad_documents(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix_file(write(tmp_path / "m.json", "[1, 2"))
    with pytest.raises(ParseError):
        parse_matrix_file(write(tmp_path / "m.json", '{"rows":1,"cols":1}'))
    with pytest.raises(ParseError, match="data has 1 entries, expected 2"):
        parse_matrix_file(write(
            tmp_path / "m.json", '{"rows":2,"cols":1,"data":[[1,0]]}'))
    with pytest.raises(ParseError):
        parse_matrix_file(write(
            tmp_path / "m.json", '{"rows":1,"cols":1,"data":[[1]]}'))
    with pytest.raises(ParseError, match="bad shape True x True"):
        parse_matrix_file(write(
            tmp_path / "m.json", '{"rows":true,"cols":true,"data":[[1,0]]}'))


def _doc(rows, cols, data):
    return json.dumps({"rows": rows, "cols": cols, "data": data})


@pytest.mark.parametrize("data, needle", [
    ([[1, 0], [2, 0], ["3", 0], ["4", 0]], "entry 2 "),        # string entry
    ([[1, 0], [2, 0], [None, 0], [None, 0]], "entry 2 "),      # null
    ([[1, 0], [2, 0], [3], [4]], "entry 2 "),                  # 1-element pair
    ([[1, 0], [2, 0], [3, 0, 0], [4, 0, 0]], "entry 2 "),      # 3-element pair
    ([[1, 0], [2, 0], [3, [0]], [4, [0]]], "entry 2 "),        # nested pair
    ([[1, 0], [2, 0], [3, 0], [4]], "entry 3 "),               # ragged rows
    ([[1, 0], [2, 0], {"re": 3}, {"re": 4}], "entry 2 "),      # object entry
    ([[1, 0], [2, 0], 3, 4], "entry 2 "),                      # bare number
    ([[1, 0], [2, 0], [3, 0]], "data has 3 entries"),          # wrong count
    ([[1, 0], [2, 0], [3, 10 ** 400], [4, 0]], "entry 2 "),    # beyond double
    ([[1, 0], [2, 0], [True, False], [1, 0]], "entry 2 "),     # bools alone
    ([[1, 0], [2, 0], [True, 0.5], [1, 0]], "entry 2 "),       # bool and float
], ids=["string", "null", "short-pair", "long-pair", "nested-pair", "ragged",
        "object", "bare-number", "wrong-count", "beyond-double", "bools",
        "bool-and-float"])
def test_parse_json_malformed_data_names_first_bad_entry(tmp_path, data, needle):
    with pytest.raises(ParseError) as info:
        parse_matrix_file(write(tmp_path / "m.json", _doc(2, 2, data)))
    assert type(info.value) is ParseError
    assert needle in str(info.value)


def _per_entry_reference(data, rows, cols):
    return np.array([complex(re, im) for re, im in data]).reshape(rows, cols)


@pytest.mark.parametrize("text", [
    _doc(2, 2, [[1, 2], [-3, 4], [0, 0], [7, -8]]),
    _doc(2, 1, [[1, 2.5], [9007199254740993, -0.25]]),
    _doc(1, 3, [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]),
    _doc(1, 2, [[1.5, 0], [1e308, -1e-308]]),
    _doc(1, 2, [[10 ** 30, 1], [2 ** 64, -1]]),     # beyond int64, within double
])
def test_parse_json_matches_per_entry_reference(tmp_path, text):
    doc = json.loads(text)
    expected = _per_entry_reference(doc["data"], doc["rows"], doc["cols"])
    M = parse_matrix_file(write(tmp_path / "m.json", text))
    assert M.dtype == np.complex128 and M.shape == expected.shape
    assert M.tobytes() == expected.tobytes()


def test_parse_error_names_its_position():
    assert str(ParseError("bad entry", path="m.txt", line=2, offset=1)) == \
        "m.txt:2:1: bad entry"


def test_parse_missing_file(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix_file(str(tmp_path / "absent.txt"))


def test_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    M[0, 0] = 1 / 3 + 1j * math.pi  # non-terminating binary fractions
    path = tmp_path / "m.json"
    write_matrix_json(M, path)
    back = parse_matrix_file(str(path))
    assert np.array_equal(back, M.astype(np.complex128))
    # a second hop stays identical
    write_matrix_json(back, path)
    assert np.array_equal(parse_matrix_file(str(path)), back)
    for shape in ((2, 0), (0, 0)):       # empty matrices read back too
        write_matrix_json(np.zeros(shape), path)
        back = parse_matrix_file(str(path))
        assert back.shape == shape and back.dtype == np.complex128


def test_parse_json_rejects_negative_counts(tmp_path):
    for rows, cols in ((-1, 0), (0, -2), (-1, -1)):
        with pytest.raises(ParseError, match="bad shape"):
            parse_matrix_file(write(tmp_path / "m.json", _doc(rows, cols, [])))


def test_matrix_to_json_shape_fields():
    doc = json.loads(matrix_to_json(np.eye(2, dtype=complex)))
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_matrix_to_json_matches_per_element_formatting():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    M[0, 0] = complex(-0.0, -0.0)
    M[1, 2] = complex(1e-310, 1e300)
    for A in (M, M.T):       # the transpose is not C-contiguous
        data = [[float(v.real), float(v.imag)] for v in A.ravel()]
        golden = json.dumps({"rows": A.shape[0], "cols": A.shape[1], "data": data})
        assert matrix_to_json(A) == golden


# ----------------------------- sqrt command -----------------------------

def test_cli_sqrt_diagonal(tmp_path):
    s = write(tmp_path / "diag49.txt", "4 0\n0 9\n")
    out = str(tmp_path / "X.json")
    trace = str(tmp_path / "trace.csv")
    code = main(["sqrt", "--input", s, "--order", "2",
                 "--out", out, "--trace", trace])
    assert code == 0
    X = parse_matrix_file(out)
    assert np.allclose(X, np.diag([2.0, 3.0]), atol=1e-12)
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[-1]["residual"]


def test_cli_sqrt_order_one_runs_the_plain_chain(tmp_path):
    S, X = make_known_sqrt_problem(ProblemSpec((2.0, 3.0 + 1.0j, 0.7), seed=5))
    s = str(tmp_path / "S.json")
    write_matrix_json(S, s)
    out = str(tmp_path / "X.json")
    trace = str(tmp_path / "trace.csv")
    assert main(["sqrt", "--input", s, "--order", "1", "--gamma", "1.5",
                 "--out", out, "--trace", trace]) == 0
    err = np.linalg.norm(parse_matrix_file(out) - X) / np.linalg.norm(X)
    assert err <= 1e-11
    with open(trace, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 32   # 6 rows at order 2


@pytest.mark.parametrize("order", ["0", "17"])
def test_cli_sqrt_rejects_order_out_of_range(tmp_path, capsys, order):
    s = write(tmp_path / "s.txt", "4 0\n0 9\n")
    out = tmp_path / "X.json"
    assert main(["sqrt", "--input", s, "--order", order,
                 "--out", str(out)]) == 1
    assert "order must be between 1 and 16" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sqrt_breakdown_exit_code(tmp_path):
    s = write(tmp_path / "neg.txt", "-1\n")
    code = main(["sqrt", "--input", s, "--out", str(tmp_path / "X.json")])
    assert code == 2


def test_cli_sqrt_max_iterations_exit_code(tmp_path):
    s = write(tmp_path / "s.txt", "2 0\n0 3\n")
    code = main(["sqrt", "--input", s, "--kmax", "2", "--tol", "1e-15",
                 "--out", str(tmp_path / "X.json")])
    assert code == 3


# ----------------------------- pencil command -----------------------------

def test_cli_pencil_diagonal(tmp_path):
    a = write(tmp_path / "a.txt", "0.5 0\n0 2\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    code = main(["pencil", "--a", a, "--b", b, "--out", out])
    assert code == 0
    doc = read_strict_json(out)
    assert doc["status"] == "converged"
    assert doc["U"]["cols"] == 1
    assert doc["Lambda"]["data"][0][0] == pytest.approx(0.5, abs=1e-10)
    assert doc["residual"] <= 1e-10


def test_cli_pencil_breakdown(tmp_path):
    a = write(tmp_path / "neg1.txt", "-1 0\n0 0.5\n")
    b = write(tmp_path / "id.txt", "1 0\n0 1\n")
    code = main(["pencil", "--a", a, "--b", b,
                 "--out", str(tmp_path / "U.json")])
    assert code == 2
    doc = read_strict_json(tmp_path / "U.json")
    assert doc["status"] == "breakdown"
    assert doc["residual"] is None


def test_cli_pencil_accelerated(tmp_path):
    a = write(tmp_path / "a.txt", "0.5 0\n0 2\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    code = main(["pencil", "--a", a, "--b", b, "--order", "2",
                 "--dim", "1", "--out", out])
    assert code == 0
    doc = read_strict_json(out)
    assert doc["Lambda"]["data"][0][0] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("files, setting, message", [
    (["pencil", "--a", "{0}", "--b", "{0}"], ["--order", "17"],
     "order must be between 1 and 16, got 17"),
    (["sqrt", "--input", "{0}"], ["--order", "17"],
     "order must be between 1 and 16, got 17"),
    (["sqrt", "--input", "{0}"], ["--gamma", "-1"],
     "gamma must be finite and positive, got -1.0"),
], ids=["pencil", "sqrt", "sqrt-gamma"])
def test_cli_checks_its_settings_before_its_files(tmp_path, capsys, files,
                                                  setting, message):
    missing = str(tmp_path / "missing.txt")
    argv = [arg.format(missing) for arg in files]
    assert main([*argv, *setting]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("dim", [[], ["--dim", "1"]], ids=["threshold", "dim"])
def test_cli_pencil_order_one_is_the_default(tmp_path, capsys, dim):
    a = write(tmp_path / "a.txt", "0.5 0.1\n0.2 2\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    outs = [tmp_path / "U0.json", tmp_path / "U1.json", tmp_path / "U2.json"]
    base = ["pencil", "--a", a, "--b", b, *dim]
    assert main([*base, "--out", str(outs[0])]) == 0
    assert main([*base, "--order", "1", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()
    assert main([*base, "--order", "0", "--out", str(outs[2])]) == 1
    assert "order must be between 1 and 16" in capsys.readouterr().err
    assert not outs[2].exists()


def test_cli_pencil_kmax_one_stops_at_element_one(tmp_path):
    a = write(tmp_path / "a.txt", "0.5 0\n0 2\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    assert main(["pencil", "--a", a, "--b", b, "--kmax", "1", "--dim", "1",
                 "--out", out]) == 3
    doc = read_strict_json(out)
    assert (doc["status"], doc["iterations"]) == ("max_iterations", 1)
    assert doc["U"]["cols"] == 1


def test_cli_pencil_empty_expected_subspace_exits_zero(tmp_path):
    a = write(tmp_path / "a.txt", "2 0\n0 3\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    assert main(["pencil", "--a", a, "--b", b, "--dim", "0", "--out", out]) == 0
    doc = read_strict_json(out)
    assert doc["status"] == "converged"
    assert (doc["iterations"], doc["residual"]) == (2, 0.0)
    assert doc["U"] == {"rows": 2, "cols": 0, "data": []}
    assert doc["Lambda"] == {"rows": 0, "cols": 0, "data": []}


def test_cli_pencil_result_parses_back_bit_exactly(tmp_path):
    prob = make_pencil_problem(ProblemSpec(spectrum=(0.3, -0.5j, 2.0, 1.5 + 1j),
                                           cond=10.0, seed=4), random_b=True)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_matrix_json(prob.pencil.A, a)
    write_matrix_json(prob.pencil.B, b)
    out = tmp_path / "U.json"
    assert main(["pencil", "--a", a, "--b", b, "--order", "2", "--dim", "2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1          # compact: one line
    doc = json.loads(text)
    ref = modified_ab_run(Pencil(parse_matrix_file(a), parse_matrix_file(b)),
                          AccelConfig(order=2, tol=1e-12, kmax=100, expected_dim=2))
    for key, M in (("U", ref.U.basis), ("Lambda", ref.Lambda)):
        back = parse_matrix_file(write(tmp_path / f"{key}.json", json.dumps(doc[key])))
        assert back.tobytes() == M.astype(np.complex128).tobytes()
    assert doc["iterations"] == ref.iterations


# ----------------------------- bench command -----------------------------

def test_cli_bench_emits_traces_with_settled_order(tmp_path):
    out_dir = str(tmp_path / "D")
    code = main(["bench", "--kind", "sqrt", "--spectrum", "2,3",
                 "--orders", "2", "--seed", "7", "--out-dir", out_dir])
    assert code == 0
    with open(os.path.join(out_dir, "bench_sqrt_r2.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    settled = [float(r["order_estimate"]) for r in rows
               if r["order_estimate"] and float(r["error"]) > 1e2 * EPS]
    assert settled and 1.8 <= settled[-1] <= 2.2
    doc = read_strict_json(os.path.join(out_dir, "bench_sqrt_r2.json"))
    assert doc["header"]["order"] == 2
    assert doc["header"]["seed"] == 7


def test_cli_bench_multiple_orders(tmp_path):
    out_dir = str(tmp_path / "D")
    code = main(["bench", "--kind", "sqrt", "--spectrum", "2,3",
                 "--orders", "1,2,3", "--seed", "3", "--out-dir", out_dir])
    assert code == 0
    for r in (1, 2, 3):
        assert os.path.exists(os.path.join(out_dir, f"bench_sqrt_r{r}.csv"))
        doc = read_strict_json(os.path.join(out_dir, f"bench_sqrt_r{r}.json"))
        assert doc["header"]["order"] == r


def test_cli_bench_runs_each_distinct_order_once(tmp_path, capsys,
                                                 monkeypatch):
    started, run = [], cli.run_experiment

    def counted_run(*args, **kwargs):
        started.append(kwargs["order"])
        return run(*args, **kwargs)
    monkeypatch.setattr(cli, "run_experiment", counted_run)
    assert main(["bench", "--kind", "sqrt", "--spectrum", "2,3", "--orders",
                 "2,1,2,2", "--out-dir", str(tmp_path / "D")]) == 0
    assert started == [2, 1]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["order 2", "order 1"]


@pytest.mark.parametrize("orders", ["2,17", "0,2", "1,-3"])
def test_cli_bench_rejects_orders_before_any_run(tmp_path, capsys, monkeypatch,
                                                 orders):
    started, run = [], cli.run_experiment

    def counted_run(*args, **kwargs):
        started.append(kwargs["order"])
        return run(*args, **kwargs)
    monkeypatch.setattr(cli, "run_experiment", counted_run)
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", "--spectrum", "2,3",
                 "--orders", orders, "--out-dir", str(out_dir)]) == 1
    assert "order must be between 1 and 16" in capsys.readouterr().err
    assert started == []
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--spectrum", ",", "spectrum is empty"),
    ("--spectrum", "2, 3x ,4", "bad eigenvalue '3x'"),
    ("--orders", "x", "bad order 'x'"),
    ("--orders", "2,x", "bad order 'x'"),
    ("--orders", ",", "order list is empty"),
], ids=["empty-spectrum", "bad-eigenvalue", "bad-orders", "bad-order-entry",
        "empty-orders"])
def test_cli_bench_rejects_bad_lists(tmp_path, capsys, flag, value, message):
    args = {"--spectrum": "2,3", "--orders": "2", flag: value}
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", *sum(args.items(), ()),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("args, message", [
    (["--spectrum", "nan,2"], "eigenvalue (nan+0j) is not finite"),
    (["--spectrum", "2,3", "--cond", "nan"],
     "cond must be at least 1 and finite, got nan"),
    (["--spectrum", "2,3", "--seed", "-1"], "seed must be at least 0, got -1"),
], ids=["spectrum-nan", "cond-nan", "seed-negative"])
def test_cli_bench_rejects_bad_problem(tmp_path, capsys, args, message):
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", *args,
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["sqrt", "pencil"])
def test_cli_bench_singular_similarity_exits_one(tmp_path, capsys, kind):
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", kind, "--spectrum", "0.5,1.5,2,3",
                 "--cond", "1e16", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: pivot ")
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["sqrt", "pencil"])
def test_cli_bench_drifting_cond_exits_one(tmp_path, capsys, kind):
    """Below the pivot cutoff, a cond whose rounding can move an
    eigenvalue past the generator's margin is refused too."""
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", kind, "--spectrum", "0.5,1.5,2,3",
                 "--cond", "1e10", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: cond 1e+10 is too large for this spectrum")
    assert not out_dir.exists()


def test_cli_bench_pencil_kind(tmp_path):
    out_dir = str(tmp_path / "D")
    code = main(["bench", "--kind", "pencil", "--spectrum", "0.5,2",
                 "--orders", "2", "--seed", "0", "--kmax", "30",
                 "--out-dir", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "bench_pencil_r2.csv"))
    doc = read_strict_json(os.path.join(out_dir, "bench_pencil_r2.json"))
    assert doc["header"]["gamma"] == 1.0


def test_cli_bench_trace_beyond_double_range_is_strict_json(tmp_path, capsys):
    """Iterates that square beyond double range leave no warning and a
    trace without NaN or Infinity."""
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", "--spectrum", "1e80,2e80",
                 "--orders", "1", "--kmax", "6", "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    read_strict_json(out_dir / "bench_sqrt_r1.json")


#: The library home of every numeric default, by subcommand; bench's
#: --orders is a list, so its entry is the list that its default reads as.
_LIBRARY_DEFAULTS = {
    "sqrt": {"order": SqrtProblem.order, "gamma": SqrtProblem.gamma,
             "tol": SqrtProblem.tol, "kmax": SqrtProblem.kmax},
    "pencil": {"order": AccelConfig.order, "tol": AccelConfig.tol,
               "kmax": AccelConfig.kmax},
    "bench": {"cond": ProblemSpec.cond, "seed": ProblemSpec.seed,
              "gamma": SqrtProblem.gamma, "tol": SqrtProblem.tol,
              "orders": [SqrtProblem.order],
              "kmax": run_experiment.__kwdefaults__["kmax"]},
}


@pytest.mark.parametrize("cmd, required", [
    ("sqrt", ["--input", "S.txt"]),
    ("pencil", ["--a", "A.txt", "--b", "B.txt"]),
    ("bench", ["--kind", "sqrt", "--spectrum", "2"]),
])
def test_cli_defaults_are_the_library_defaults(cmd, required):
    """Each numeric default is read from the library, none written twice."""
    ns = vars(cli.build_parser().parse_args([cmd, *required]))
    if cmd == "bench":
        ns["orders"] = cli._parse_list(ns["orders"], int, "order", "order list")
    expected = _LIBRARY_DEFAULTS[cmd]
    assert {name: ns[name] for name in expected} == expected
    numeric = {name for name, v in ns.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    assert numeric <= expected.keys()


# ----------------------------- error handling -----------------------------

@pytest.mark.parametrize("cmd", ["sqrt", "pencil", "bench"])
def test_cli_help_exits_zero_and_shows_the_order_range(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert "1..16" in capsys.readouterr().out


def test_cli_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert main(["sqrt"]) == 1
    assert main(["bench", "--kind", "sqrt", "--spectrum", "abc",
                 "--orders", "2"]) == 1
    capsys.readouterr()


def test_cli_parse_error_exits_one(tmp_path, capsys):
    bad = write(tmp_path / "bad.txt", "1 2\n3\n")
    assert main(["sqrt", "--input", bad]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("text, message", [
    ('{"rows": true, "cols": true, "data": [[1, 0]]}', "bad shape"),
    ('{"rows": 1.0, "cols": "1", "data": [[1, 0]]}', "bad shape 1.0 x '1'"),
    ('{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}',
     "entry 0 is outside double range"),
    ('[{"rows": 1, "cols": 1, "data": [[1, 0]]}]', "top level must be an object"),
    # numpy alone would read these as [[1+0j, 1+0j]] and [[1+0.5j, 1+0j]]
    ('{"rows": 1, "cols": 2, "data": [[true, false], [1, 0]]}',
     "entry 0 is not a [re, im] pair of numbers"),
    ('{"rows": 1, "cols": 2, "data": [[true, 0.5], [1, 0]]}',
     "entry 0 is not a [re, im] pair of numbers"),
    # a false with no true: the scan gate's "f" half alone sees it
    ('{"rows": 1, "cols": 1, "data": [[false, 0.5]]}',
     "entry 0 is not a [re, im] pair of numbers"),
    ('{"rows": 1, "cols": 1, "data": 5}', "data has ? entries, expected 1"),
], ids=["bool-shape", "float-shape", "huge-integer", "not-an-object", "bool-entries",
        "bool-and-float-entry", "false-entry", "data-not-a-list"])
def test_cli_bad_json_document_exits_one(tmp_path, capsys, text, message):
    bad = write(tmp_path / "bad.json", text)
    assert main(["sqrt", "--input", bad, "--out", str(tmp_path / "X.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "X.json").exists()


@pytest.mark.parametrize("args, name", [
    (["pencil", "--tol", "nan"], "tol"),
    (["sqrt", "--tol", "nan"], "tol"),
    (["sqrt", "--gamma", "nan"], "gamma"),
    (["sqrt", "--gamma", "inf"], "gamma"),
], ids=["pencil-tol-nan", "sqrt-tol-nan", "sqrt-gamma-nan", "sqrt-gamma-inf"])
def test_cli_non_finite_parameter_exits_one(tmp_path, capsys, args, name):
    m = write(tmp_path / "m.txt", "2 0\n0 3\n")
    inputs = ["--a", m, "--b", m] if args[0] == "pencil" else ["--input", m]
    out = tmp_path / "out.json"
    assert main([args[0], *inputs, *args[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert not out.exists()


@pytest.mark.parametrize("args, name", [
    (["--tol", "nan"], "tol"),
    (["--tol", "inf"], "tol"),
    (["--gamma", "inf"], "gamma"),
    (["--gamma", "-5"], "gamma"),
    (["--kmax", "0"], "kmax"),
], ids=["tol-nan", "tol-inf", "gamma-inf", "gamma-negative", "kmax-0"])
def test_cli_bench_plain_sqrt_checks_parameters(tmp_path, capsys, args, name):
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", "--spectrum", "2,3", "--orders", "1",
                 *args, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert not out_dir.exists()


@pytest.mark.parametrize("args, name", [
    (["--gamma", "nan"], "gamma"),
    (["--gamma", "0"], "gamma"),
    (["--tol", "inf"], "tol"),
], ids=["gamma-nan", "gamma-zero", "tol-inf"])
def test_cli_bench_pencil_checks_float_parameters(tmp_path, capsys, args, name):
    """The header of a pencil trace holds gamma too, so it is checked
    though the pencil run never reads it."""
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "pencil", "--spectrum", "0.5,2",
                 "--orders", "2", *args, "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")
    assert not out_dir.exists()


def test_cli_out_dir_env_rebases_default_names(tmp_path, monkeypatch):
    s = write(tmp_path / "s.txt", "4\n")
    monkeypatch.setenv("ABFLOW_OUT_DIR", str(tmp_path))
    code = main(["sqrt", "--input", s])
    assert code == 0
    assert (tmp_path / "sqrt_result.json").exists()


def test_cli_prints_status_residual_and_path(tmp_path, capsys):
    s = write(tmp_path / "s.txt", "4 0\n0 9\n")
    out = str(tmp_path / "X.json")
    assert main(["sqrt", "--input", s, "--out", out]) == 0
    assert re.fullmatch(rf"status=converged residual=\S+ wrote {re.escape(out)}\n",
                        capsys.readouterr().out)
    a = write(tmp_path / "a.txt", "0.5 0\n0 2\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    assert main(["pencil", "--a", a, "--b", b, "--out", out]) == 0
    assert re.fullmatch(
        rf"status=converged dim=1 residual=\S+ wrote {re.escape(out)}\n",
        capsys.readouterr().out)


def test_atomic_write_renames_from_the_target_directory(tmp_path, monkeypatch):
    """The temp file sits beside the target, so the rename never crosses
    a file system."""
    sources = []
    replace = os.replace

    def spy(src, dst):
        sources.append(src)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    (tmp_path / "sub").mkdir()
    atomic_write_text(tmp_path / "sub" / "t.txt", "x")
    assert [os.path.dirname(src) for src in sources] == [str(tmp_path / "sub")]
    assert (tmp_path / "sub" / "t.txt").read_text() == "x"


def test_cli_atomic_write_leaves_no_temp(tmp_path):
    s = write(tmp_path / "s.txt", "4 0\n0 9\n")
    out = str(tmp_path / "X.json")
    assert main(["sqrt", "--input", s, "--out", out]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_cli_result_files_get_the_mode_of_a_plain_open(tmp_path):
    """Every file abflow writes has the mode that the umask gives a new
    file, as a plain ``open`` in the same directory makes it, not a temp
    file's owner-only 0600."""
    s = write(tmp_path / "S.txt", "4 0\n0 9\n")
    a = write(tmp_path / "A.txt", "0.5 0\n0 2\n")
    b = write(tmp_path / "B.txt", "1 0\n0 1\n")
    assert main(["sqrt", "--input", s, "--out", str(tmp_path / "X.json"),
                 "--trace", str(tmp_path / "t.csv")]) == 0
    assert main(["pencil", "--a", a, "--b", b,
                 "--out", str(tmp_path / "U.json")]) == 0
    assert main(["bench", "--kind", "sqrt", "--spectrum", "2,3", "--orders",
                 "1", "--out-dir", str(tmp_path / "D")]) == 0
    written = [tmp_path / name for name in ("X.json", "t.csv", "U.json")]
    written += [tmp_path / "D" / f"bench_sqrt_r1.{ext}" for ext in ("csv", "json")]
    for d in {p.parent for p in written}:
        with open(d / "plain", "w"):
            pass

    def mode(p):
        return stat.S_IMODE(os.stat(p).st_mode)
    assert [mode(p) for p in written] == [mode(p.parent / "plain")
                                          for p in written]


@pytest.mark.parametrize("args, code", [
    (["sqrt", "--input", "S.txt", "--out", "X.json"], 0),
    ([], 1),
], ids=["converged", "usage"])
def test_entry_exits_with_the_code_of_main(tmp_path, monkeypatch, args, code):
    """``entry()``, the console script, reads ``sys.argv``."""
    write(tmp_path / "S.txt", "4 0\n0 9\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["abflow", *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


@pytest.mark.parametrize("files, args, code", [
    ({"S.txt": "4 0\n0 9\n"}, ["sqrt", "--input", "S.txt"], 0),
    ({"A.txt": "-1\n", "B.txt": "1\n"},
     ["pencil", "--a", "A.txt", "--b", "B.txt"], 2),
    ({"S.txt": "4 0\n0 9\n"}, ["sqrt", "--input", "S.txt", "--kmax", "1"], 3),
    ({}, [], 1),
], ids=["converged", "breakdown", "max-iterations", "usage"])
def test_process_exit_codes(tmp_path, files, args, code):
    """``python -m abflow.cli`` runs ``entry()``, which exits with the code
    that ``main`` returns.  The child imports the ``abflow`` that this test
    imported, from ``src/`` or from an installed copy."""
    for name, text in files.items():
        write(tmp_path / name, text)
    home = Path(abflow.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(home)}
    env.pop("ABFLOW_OUT_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "abflow.cli", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
