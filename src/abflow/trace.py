"""Convergence traces: per-step records, order estimation, file emission."""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

from .linalg import EPS
from .pencil import _integer

#: Skip an order estimate when the reference log-ratio is this small.
_FLAT_RATIO_TOL = 1e-12

#: Relative error at or below which a trace's order estimates stop.
SATURATION_GUARD = 1e2 * EPS


@dataclass(frozen=True)
class ConvergenceTrace:
    """Error/residual history of one solver run.

    ``errors[i]`` belongs to step ``steps[i]``; entries stay positive
    while the run makes progress and may only vanish once the target is
    hit exactly.  ``seconds`` is wall time spent producing each step.
    """

    steps: tuple
    errors: tuple
    residuals: tuple
    seconds: tuple
    status: str = "converged"

    def __post_init__(self):
        object.__setattr__(self, "steps",
                           tuple(_integer("step", s, 0) for s in self.steps))
        for name in ("errors", "residuals", "seconds"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        if not (len(self.errors) == len(self.residuals)
                == len(self.seconds) == len(self.steps)):
            raise ValueError("trace columns have inconsistent lengths")
        if any(e < 0 or math.isnan(e) for e in self.errors):
            raise ValueError("errors must be nonnegative")

    @property
    def orders(self) -> tuple:
        """``estimate_order`` of the errors."""
        return tuple(estimate_order(self.errors))


def _log_ratios(errors):
    """Yield ``(k, log(e[k+1]/e[k]) / log(e[k]/e[k-1]))`` for each interior
    index k of the errors before the first one at or below
    ``SATURATION_GUARD``, where rounding sets the error, whose triple is
    finite with a non-vanishing reference ratio."""
    errors = list(itertools.takewhile(lambda e: e > SATURATION_GUARD, errors))
    for k in range(1, len(errors) - 1):
        if not all(e < math.inf for e in errors[k - 1:k + 2]):
            continue
        den = math.log(errors[k] / errors[k - 1])
        if abs(den) < _FLAT_RATIO_TOL:
            continue
        yield k, math.log(errors[k + 1] / errors[k]) / den


def estimate_order(errors) -> list:
    """Log-ratio convergence-order estimates of an error sequence, the
    one rule behind ``ConvergenceTrace.orders`` too.

    For each interior index k the estimate is
    ``log(e[k+1]/e[k]) / log(e[k]/e[k-1])``, taken only before the first
    error at or below ``SATURATION_GUARD`` (a zero or a NaN included);
    triples with a vanishing reference ratio or an infinite entry are
    omitted, and fewer than three errors before that point give ``[]``.
    """
    return [est for _, est in _log_ratios([float(e) for e in errors])]


#: The columns of a trace file, one row per step.
_FIELDS = ("step", "error", "residual", "order_estimate", "elapsed_seconds")


def _finite_or_none(x):
    """``x``, or None (an empty CSV cell, a JSON null) if it is not finite."""
    return x if x is not None and math.isfinite(x) else None


def _rows(trace: ConvergenceTrace):
    """The ``_FIELDS`` of each step, each cell through ``_finite_or_none``;
    an order estimate (one of ``orders``) sits on its newest error's row."""
    orders = [None] * len(trace.errors)
    for k, est in _log_ratios(trace.errors):
        orders[k + 1] = est
    return ([_finite_or_none(x) for x in row] for row in zip(
        trace.steps, trace.errors, trace.residuals, orders, trace.seconds))


def atomic_write_text(path, text: str) -> None:
    """Write a file via a same-directory temp file and rename; the file
    gets the mode that the umask gives any new file."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".tmp-{os.urandom(6).hex()}{tail}")
    fh = open(tmp, "x")     # never another writer's file, so ours to unlink
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Emit a header and one CSV row per step, with the columns
    step,error,residual,order_estimate,elapsed_seconds."""
    lines = [",".join(_FIELDS)]
    lines += [",".join("" if x is None else repr(x) for x in row)
              for row in _rows(trace)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trace_json(trace: ConvergenceTrace, path, header: dict | None = None) -> None:
    """Emit the trace as JSON: a header object plus one record per step."""
    records = [dict(zip(_FIELDS, row)) for row in _rows(trace)]
    doc = {"header": header or {}, "status": trace.status, "steps": records}
    atomic_write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")
