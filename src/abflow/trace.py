"""Convergence traces: per-step records, order estimation, file emission."""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass

from .linalg import EPS

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
        object.__setattr__(self, "steps", tuple(int(s) for s in self.steps))
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
        """The log-ratio convergence-order estimates (``estimate_order``)
        of the errors before the first one at or below
        ``SATURATION_GUARD``, where rounding sets the error; empty when
        fewer than three come before it."""
        return tuple(est for _, est in _log_ratios(self.errors,
                                                   SATURATION_GUARD))


def _log_ratios(errors, floor=None):
    """Yield ``(k, log(e[k+1]/e[k]) / log(e[k]/e[k-1]))`` for each interior
    index k whose triple is positive with a non-vanishing reference ratio;
    with a ``floor``, only among the errors before the first one at or
    below it."""
    if floor is not None:
        errors = list(itertools.takewhile(lambda e: e > floor, errors))
    for k in range(1, len(errors) - 1):
        if min(errors[k - 1:k + 2]) <= 0:
            continue
        den = math.log(errors[k] / errors[k - 1])
        if abs(den) < _FLAT_RATIO_TOL:
            continue
        yield k, math.log(errors[k + 1] / errors[k]) / den


def estimate_order(errors) -> list:
    """Log-ratio convergence-order estimates of a positive error sequence.

    For each interior index k the estimate is
    ``log(e[k+1]/e[k]) / log(e[k]/e[k-1])``; triples with a vanishing
    reference ratio or nonpositive entries are omitted.

    Raises
    ------
    ValueError
        When fewer than three positive entries are supplied.
    """
    vals = [float(e) for e in errors]
    if sum(1 for e in vals if e > 0) < 3:
        raise ValueError(
            "order estimation needs at least three positive errors")
    return [est for _, est in _log_ratios(vals)]


#: The columns of a trace file, one row per step.
_FIELDS = ("step", "error", "residual", "order_estimate", "elapsed_seconds")


def _rows(trace: ConvergenceTrace):
    """The ``_FIELDS`` of each step; the order estimates are the trace's
    ``orders``, each on the row of its newest error, else None."""
    orders = [None] * len(trace.errors)
    for k, est in _log_ratios(trace.errors, SATURATION_GUARD):
        orders[k + 1] = est
    return zip(trace.steps, trace.errors, trace.residuals, orders,
               trace.seconds)


def atomic_write_text(path, text: str) -> None:
    """Write a file via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return "" if x is None or math.isnan(x) else repr(float(x))


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Emit one CSV row per step: step,error,residual,order,seconds."""
    lines = [",".join(_FIELDS)]
    lines += [",".join([str(step)] + [_fmt(x) for x in rest])
              for step, *rest in _rows(trace)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trace_json(trace: ConvergenceTrace, path, header: dict | None = None) -> None:
    """Emit the trace as JSON: a header object plus one record per step."""
    records = [dict(zip(_FIELDS, row)) for row in _rows(trace)]
    doc = {
        "header": dict(header or {}),
        "status": trace.status,
        "steps": records,
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
