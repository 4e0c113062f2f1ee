"""Command-line front end: matrix file ingestion, solvers, trace emission.

Exit codes: 0 converged, 1 usage or input errors, 2 breakdown,
3 iteration limit reached.  Result files are written atomically
(temp-then-rename).  Relative default output paths resolve against
``$ABFLOW_OUT_DIR`` when that variable is set; explicit paths are used
verbatim.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .errors import ABFlowError, ParseError
from .lab import ProblemSpec, run_experiment
from .linalg import as_matrix
from .pencil import (MAX_ORDER, AccelConfig, Pencil, SolveStatus,
                     _check_settings, _integer, _real, modified_ab_run)
from .sqrtm import SqrtProblem, sqrtm_ab
from .trace import (_finite_or_none, atomic_write_text, write_trace_csv,
                    write_trace_json)

_EXIT_BY_STATUS = {
    SolveStatus.CONVERGED: 0,
    SolveStatus.BREAKDOWN: 2,
    SolveStatus.MAX_ITERATIONS: 3,
}

OUT_DIR_ENV = "ABFLOW_OUT_DIR"

_DEFAULT = "(default %(default)s)"     # argparse fills in the option's default
_BENCH_KMAX = run_experiment.__kwdefaults__["kmax"]  # the function's own default

#: A txt entry: ASCII decimal only (Python's float also takes 1_0, inf).
_TXT_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


# ----------------------------- matrix files -----------------------------

def parse_matrix_file(path) -> np.ndarray:
    """Load a matrix from a txt or json file; the suffix picks the format
    (".json" means json, anything else txt).

    txt: whitespace-separated decimal numbers, one matrix row per line.
    json: object with "rows", "cols", and "data", a row-major array of
    [re, im] pairs.
    """
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    if path.endswith(".json"):
        return _parse_json(text, path)
    return _parse_txt(text, path)


def _parse_txt(text: str, path: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        row = []
        for offset, tok in enumerate(tokens):
            value = float(tok) if _TXT_NUMBER.fullmatch(tok) else math.nan
            if not math.isfinite(value):        # 1e999 reads as inf
                raise ParseError(f"bad entry {tok!r}", path=path,
                                 line=lineno, offset=offset)
            row.append(value)
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"row has {len(row)} entries, expected {len(rows[0])}",
                path=path, line=lineno)
        rows.append(row)
    if not rows:
        raise ParseError("file contains no matrix rows", path=path)
    return np.asarray(rows, dtype=np.complex128)


def _parse_json(text: str, path: str) -> np.ndarray:
    def reject(name):       # Python's json reads NaN and +-Infinity
        raise ParseError(f"{name} is not a finite number", path=path)

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=exc.lineno,
                         offset=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", path=path)
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}", path=path) from exc
    try:
        size = _integer("rows", rows, 0) * _integer("cols", cols, 0)
    except ValueError:
        raise ParseError(f"bad shape {rows!r} x {cols!r}", path=path) from None
    if not isinstance(data, list) or len(data) != size:
        raise ParseError(
            f"data has {len(data) if isinstance(data, list) else '?'} "
            f"entries, expected {size}", path=path)
    # numpy folds JSON true/false into numbers: a text with a "u" (true) or
    # an "f" (false) goes to the scan; one-character tests are fast
    try:
        pairs = None if "u" in text or "f" in text else np.array(data)
    except (ValueError, OverflowError):  # ragged, nested, or out of range
        pairs = None
    if (pairs is None or pairs.shape != (size, 2)
            or pairs.dtype.kind not in "iuf"):
        pairs = _scan_pairs(data, path)
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    finite = np.isfinite(pairs).all(axis=1)     # 1e999 parses to inf
    if not finite.all():
        raise ParseError(f"entry {int(finite.argmin())} is outside double "
                         "range", path=path)
    # row-major [re, im] float64 pairs are exactly the complex128 layout
    return pairs.view(np.complex128).reshape(rows, cols)


def _scan_pairs(data: list, path: str) -> np.ndarray:
    """Per-entry validation for documents the one-shot conversion rejects
    or that may hold a JSON true/false: raises for the first bad entry (a
    bool is no number), or returns the (n, 2) float pairs (e.g. integers
    too large for a machine integer but within double range)."""
    out = np.empty((len(data), 2), dtype=np.float64)
    for i, pair in enumerate(data):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(v) in (int, float) for v in pair)):
            raise ParseError(f"entry {i} is not a [re, im] pair of numbers",
                             path=path)
        try:
            out[i] = pair
        except OverflowError as exc:
            raise ParseError(f"entry {i} is outside double range",
                             path=path) from exc
    return out


def _matrix_doc(M) -> dict:
    A = as_matrix(M)
    data = np.stack((A.real.ravel(), A.imag.ravel()), 1).tolist()
    return {"rows": A.shape[0], "cols": A.shape[1], "data": data}


def matrix_to_json(M) -> str:
    """Serialize a matrix to the json wire format (round-trips bit-exactly)."""
    return json.dumps(_matrix_doc(M), check_circular=False)


def write_matrix_json(M, path) -> None:
    atomic_write_text(path, matrix_to_json(M) + "\n")


# ----------------------------- helpers -----------------------------

def _resolve_out(explicit, default_name: str) -> str:
    default = os.path.join(os.environ.get(OUT_DIR_ENV, ""), default_name)
    return default if explicit is None else explicit


def _parse_list(text: str, convert, item: str, name: str) -> list:
    """The nonblank comma-separated entries of ``text`` through
    ``convert``; a ``ValueError`` names the first bad ``item``, or says
    that ``name`` is empty."""
    values = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            values.append(convert(tok))
        except ValueError:
            raise ValueError(f"bad {item} {tok!r}") from None
    if not values:
        raise ValueError(f"{name} is empty")
    return values


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ----------------------------- subcommands -----------------------------

def _cmd_sqrt(ns) -> int:
    _real("gamma", ns.gamma, 0)     # the settings before the file, as pencil
    _check_settings(ns.order, ns.tol, ns.kmax)
    result = sqrtm_ab(SqrtProblem(parse_matrix_file(ns.input), gamma=ns.gamma,
                                  order=ns.order, tol=ns.tol, kmax=ns.kmax))
    out = _resolve_out(ns.out, "sqrt_result.json")
    write_matrix_json(result.X, out)
    if ns.trace is not None:
        write_trace_csv(result.trace, ns.trace)
    print(f"status={result.status.value} residual={result.residual:.3e} "
          f"wrote {out}")
    return _EXIT_BY_STATUS[result.status]


def _cmd_pencil(ns) -> int:
    config = AccelConfig(ns.order, ns.tol, ns.kmax, ns.dim)
    pencil = Pencil(parse_matrix_file(ns.a), parse_matrix_file(ns.b))
    result = modified_ab_run(pencil, config)
    out = _resolve_out(ns.out, "pencil_result.json")
    doc = {
        "status": result.status.value,
        "iterations": result.iterations,
        "residual": _finite_or_none(result.residual),
        "U": _matrix_doc(result.U.basis),
        "Lambda": _matrix_doc(result.Lambda),
    }
    atomic_write_text(out, json.dumps(doc, check_circular=False) + "\n")
    print(f"status={result.status.value} dim={result.U.dim} "
          f"residual={result.residual:.3e} wrote {out}")
    return _EXIT_BY_STATUS[result.status]


def _cmd_bench(ns) -> int:
    values = _parse_list(ns.spectrum, complex, "eigenvalue", "spectrum")
    # each distinct order once, in turn
    orders = dict.fromkeys(_parse_list(ns.orders, int, "order", "order list"))
    spec = ProblemSpec(spectrum=values, cond=ns.cond, seed=ns.seed)
    for r in orders:        # every order is checked before the first run
        _check_settings(r, ns.tol, ns.kmax)
    traces = [run_experiment(ns.kind, spec, order=r, gamma=ns.gamma,
                             tol=ns.tol, kmax=ns.kmax) for r in orders]
    out_dir = _resolve_out(ns.out_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    header_base = {"kind": ns.kind,
                   "spectrum": [[v.real, v.imag] for v in values],
                   **{k: getattr(ns, k)
                      for k in ("cond", "seed", "gamma", "tol", "kmax")}}
    for r, trace in zip(orders, traces):     # every order ran: write
        stem = os.path.join(out_dir, f"bench_{ns.kind}_r{r}")
        write_trace_csv(trace, stem + ".csv")
        write_trace_json(trace, stem + ".json",
                         header={**header_base, "order": r})
        print(f"order {r}: status={trace.status} steps={len(trace.steps)} "
              f"wrote {stem}.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="abflow",
                description="Stable deflating subspaces of matrix pencils "
                            "and principal matrix square roots.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sq = sub.add_parser("sqrt", help="Compute the principal square root "
                                     "of the matrix in --input.")
    sq.add_argument("--input", required=True, help="Matrix file (txt or json).")
    sq.add_argument("--order", type=int, default=SqrtProblem.order,
                    help=f"Convergence order r in 1..{MAX_ORDER}; 1 is the "
                         f"plain chain from gamma*I, 2 is Newton's {_DEFAULT}.")
    sq.add_argument("--gamma", type=float, default=SqrtProblem.gamma,
                    help=f"Positive shift for the initial iterate {_DEFAULT}.")
    sq.add_argument("--tol", type=float, default=SqrtProblem.tol, help=_DEFAULT)
    sq.add_argument("--kmax", type=int, default=SqrtProblem.kmax, help=_DEFAULT)
    sq.add_argument("--out", help="Output json for the root "
                                  "(default sqrt_result.json).")
    sq.add_argument("--trace", help="Optional CSV convergence trace.")
    sq.set_defaults(run=_cmd_sqrt)

    pc = sub.add_parser("pencil", help="Compute the stable deflating "
                                       "subspace of A - lambda B.")
    pc.add_argument("--a", required=True, help="Matrix file for A.")
    pc.add_argument("--b", required=True, help="Matrix file for B.")
    pc.add_argument("--tol", type=float, default=AccelConfig.tol, help=_DEFAULT)
    pc.add_argument("--kmax", type=int, default=AccelConfig.kmax, help=_DEFAULT)
    pc.add_argument("--dim", type=int, help="Known subspace dimension.")
    pc.add_argument("--order", type=int, default=AccelConfig.order,
                    help=f"Order r in 1..{MAX_ORDER}; 1 is the plain chain "
                         f"{_DEFAULT}.")
    pc.add_argument("--out", help="Output json with U, Lambda, residual "
                                  "(default pencil_result.json).")
    pc.set_defaults(run=_cmd_pencil)

    be = sub.add_parser("bench", help="Run convergence experiments and "
                                      "emit one trace per order.")
    be.add_argument("--kind", choices=("sqrt", "pencil"), required=True)
    be.add_argument("--spectrum", required=True,
                    help="Comma-separated eigenvalues, e.g. '2,3' or '0.5,2+1j'.")
    be.add_argument("--orders", default=str(SqrtProblem.order),
                    help=f"Comma-separated orders in 1..{MAX_ORDER}; 1 means "
                         f"the plain chain {_DEFAULT}.")
    be.add_argument("--seed", type=int, default=ProblemSpec.seed, help=_DEFAULT)
    be.add_argument("--cond", type=float, default=ProblemSpec.cond,
                    help="Condition number of the similarity transform "
                         f"{_DEFAULT}.")
    be.add_argument("--gamma", type=float, default=SqrtProblem.gamma, help=_DEFAULT)
    be.add_argument("--tol", type=float, default=SqrtProblem.tol, help=_DEFAULT)
    be.add_argument("--kmax", type=int, default=_BENCH_KMAX, help=_DEFAULT)
    be.add_argument("--out-dir", help="Trace directory (default traces/).")
    be.set_defaults(run=_cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.run(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ABFlowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
