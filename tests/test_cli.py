"""Command-line interface: file formats, commands, exit codes."""

import csv
import json
import math
import os

import numpy as np
import pytest

from abflow import AccelConfig, ParseError, Pencil, ShapeError, modified_ab_run
from abflow.cli import main, matrix_to_json, parse_matrix_file, write_matrix_json
from abflow.lab import ProblemSpec, make_known_sqrt_problem, make_pencil_problem
from abflow.linalg import EPS


def write(path, text):
    path.write_text(text)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------- parsing -----------------------------

def test_parse_txt_diagonal(tmp_path):
    M = parse_matrix_file(write(tmp_path / "m.txt", "2 0\n0 3\n"))
    assert np.array_equal(M, np.array([[2, 0], [0, 3]], dtype=complex))


def test_parse_json_scalar(tmp_path):
    M = parse_matrix_file(write(
        tmp_path / "m.json", '{"rows":1,"cols":1,"data":[[4,0]]}'))
    assert np.array_equal(M, np.array([[4.0]], dtype=complex))


def test_parse_txt_ragged_rows(tmp_path):
    with pytest.raises(ShapeError):
        parse_matrix_file(write(tmp_path / "m.txt", "1 2\n3\n"))


def test_parse_txt_bad_token_reports_position(tmp_path):
    with pytest.raises(ParseError) as info:
        parse_matrix_file(write(tmp_path / "m.txt", "1 2\n3 x\n"))
    assert info.value.line == 2
    assert info.value.offset == 1


def test_parse_txt_empty_file(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix_file(write(tmp_path / "m.txt", "\n\n"))


def test_parse_json_bad_documents(tmp_path):
    with pytest.raises(ParseError):
        parse_matrix_file(write(tmp_path / "m.json", "[1, 2"))
    with pytest.raises(ParseError):
        parse_matrix_file(write(tmp_path / "m.json", '{"rows":1,"cols":1}'))
    with pytest.raises(ShapeError):
        parse_matrix_file(write(
            tmp_path / "m.json", '{"rows":2,"cols":1,"data":[[1,0]]}'))
    with pytest.raises(ParseError):
        parse_matrix_file(write(
            tmp_path / "m.json", '{"rows":1,"cols":1,"data":[[1]]}'))
    with pytest.raises(ShapeError):
        parse_matrix_file(write(
            tmp_path / "m.json", '{"rows":true,"cols":true,"data":[[1,0]]}'))


def _doc(rows, cols, data):
    return json.dumps({"rows": rows, "cols": cols, "data": data})


@pytest.mark.parametrize("data, exc, index", [
    ([[1, 0], [2, 0], ["3", 0], ["4", 0]], ParseError, 2),        # string entry
    ([[1, 0], [2, 0], [None, 0], [None, 0]], ParseError, 2),      # null
    ([[1, 0], [2, 0], [3], [4]], ParseError, 2),                  # 1-element pair
    ([[1, 0], [2, 0], [3, 0, 0], [4, 0, 0]], ParseError, 2),      # 3-element pair
    ([[1, 0], [2, 0], [3, [0]], [4, [0]]], ParseError, 2),        # nested pair
    ([[1, 0], [2, 0], [3, 0], [4]], ParseError, 3),               # ragged rows
    ([[1, 0], [2, 0], {"re": 3}, {"re": 4}], ParseError, 2),      # object entry
    ([[1, 0], [2, 0], 3, 4], ParseError, 2),                      # bare number
    ([[1, 0], [2, 0], [3, 0]], ShapeError, None),                 # wrong count
    ([[1, 0], [2, 0], [3, 10 ** 400], [4, 0]], ParseError, 2),    # beyond double
], ids=["string", "null", "short-pair", "long-pair", "nested-pair", "ragged",
        "object", "bare-number", "wrong-count", "beyond-double"])
def test_parse_json_malformed_data_names_first_bad_entry(tmp_path, data, exc, index):
    with pytest.raises(exc) as info:
        parse_matrix_file(write(tmp_path / "m.json", _doc(2, 2, data)))
    assert type(info.value) is exc
    if index is not None:
        assert f"entry {index} " in str(info.value)


def _per_entry_reference(data, rows, cols):
    return np.array([complex(re, im) for re, im in data]).reshape(rows, cols)


@pytest.mark.parametrize("text", [
    _doc(2, 2, [[1, 2], [-3, 4], [0, 0], [7, -8]]),
    _doc(2, 1, [[1, 2.5], [9007199254740993, -0.25]]),
    _doc(1, 3, [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]),
    _doc(1, 2, [[True, 0], [1e308, -1e-308]]),
    '{"rows": 2, "cols": 2, "data": [[NaN, 1], [Infinity, -Infinity], '
    '[2, NaN], [-0.0, Infinity]]}',
    _doc(1, 2, [[10 ** 30, 1], [2 ** 64, -1]]),     # beyond int64, within double
])
def test_parse_json_matches_per_entry_reference(tmp_path, text):
    doc = json.loads(text)
    expected = _per_entry_reference(doc["data"], doc["rows"], doc["cols"])
    M = parse_matrix_file(write(tmp_path / "m.json", text))
    assert M.dtype == np.complex128 and M.shape == expected.shape
    assert M.tobytes() == expected.tobytes()


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
        with pytest.raises(ShapeError, match="bad shape"):
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
    doc = read_json(out)
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
    doc = read_json(tmp_path / "U.json")
    assert doc["status"] == "breakdown"
    assert doc["residual"] is None


def test_cli_pencil_accelerated(tmp_path):
    a = write(tmp_path / "a.txt", "0.5 0\n0 2\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    code = main(["pencil", "--a", a, "--b", b, "--order", "2",
                 "--dim", "1", "--out", out])
    assert code == 0
    doc = read_json(out)
    assert doc["Lambda"]["data"][0][0] == pytest.approx(0.5, abs=1e-10)


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


def test_cli_pencil_empty_expected_subspace_exits_zero(tmp_path):
    a = write(tmp_path / "a.txt", "2 0\n0 3\n")
    b = write(tmp_path / "b.txt", "1 0\n0 1\n")
    out = str(tmp_path / "U.json")
    assert main(["pencil", "--a", a, "--b", b, "--dim", "0", "--out", out]) == 0
    doc = read_json(out)
    assert doc["status"] == "converged"
    assert (doc["iterations"], doc["residual"]) == (2, 0.0)
    assert (doc["U"]["rows"], doc["U"]["cols"]) == (2, 0)


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
    doc = read_json(os.path.join(out_dir, "bench_sqrt_r2.json"))
    assert doc["header"]["order"] == 2
    assert doc["header"]["seed"] == 7


def test_cli_bench_multiple_orders(tmp_path):
    out_dir = str(tmp_path / "D")
    code = main(["bench", "--kind", "sqrt", "--spectrum", "2,3",
                 "--orders", "1,2,3", "--seed", "3", "--out-dir", out_dir])
    assert code == 0
    for r in (1, 2, 3):
        assert os.path.exists(os.path.join(out_dir, f"bench_sqrt_r{r}.csv"))


@pytest.mark.parametrize("orders", ["2,17", "0,2", "1,-3"])
def test_cli_bench_rejects_orders_before_any_run(tmp_path, capsys, orders):
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", "--spectrum", "2,3",
                 "--orders", orders, "--out-dir", str(out_dir)]) == 1
    assert "order must be between 1 and 16" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_cli_bench_pencil_kind(tmp_path):
    out_dir = str(tmp_path / "D")
    code = main(["bench", "--kind", "pencil", "--spectrum", "0.5,2",
                 "--orders", "2", "--seed", "0", "--kmax", "30",
                 "--out-dir", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "bench_pencil_r2.csv"))


# ----------------------------- error handling -----------------------------

def test_cli_usage_error_exits_one(capsys):
    assert main([]) == 1
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
    ('{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}',
     "entry 0 is outside double range"),
], ids=["bool-shape", "huge-integer"])
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
    (["--gamma", "inf"], "gamma"),
    (["--kmax", "0"], "kmax"),
], ids=["tol-nan", "gamma-inf", "kmax-0"])
def test_cli_bench_plain_sqrt_checks_parameters(tmp_path, capsys, args, name):
    out_dir = tmp_path / "D"
    assert main(["bench", "--kind", "sqrt", "--spectrum", "2,3", "--orders", "1",
                 *args, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert not (out_dir / "bench_sqrt_r1.csv").exists()


def test_cli_out_dir_env_rebases_default_names(tmp_path, monkeypatch):
    s = write(tmp_path / "s.txt", "4\n")
    monkeypatch.setenv("ABFLOW_OUT_DIR", str(tmp_path))
    code = main(["sqrt", "--input", s])
    assert code == 0
    assert (tmp_path / "sqrt_result.json").exists()


def test_cli_atomic_write_leaves_no_temp(tmp_path):
    s = write(tmp_path / "s.txt", "4 0\n0 9\n")
    out = str(tmp_path / "X.json")
    assert main(["sqrt", "--input", s, "--out", out]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []
