"""Convergence traces: per-step records, order estimation, file emission."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from .errors import InsufficientDataError

#: Skip an order estimate when the reference log-ratio is this small.
_FLAT_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class ConvergenceTrace:
    """Error/residual history of one solver run.

    ``errors[i]`` belongs to step ``steps[i]``; entries stay positive
    while the run makes progress and may only vanish once the target is
    hit exactly.  ``orders`` holds the admissible log-ratio
    convergence-order estimates (at most ``len(errors) - 2``).
    ``seconds`` is wall time spent producing each step.
    """

    steps: tuple
    errors: tuple
    residuals: tuple
    orders: tuple
    seconds: tuple
    status: str = "converged"

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(int(s) for s in self.steps))
        for name in ("errors", "residuals", "orders", "seconds"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        n = len(self.steps)
        if not (len(self.errors) == len(self.residuals)
                == len(self.seconds) == n):
            raise ValueError("trace columns have inconsistent lengths")
        if len(self.orders) > max(0, n - 2):
            raise ValueError("more order estimates than interior steps")
        if any(e < 0 or math.isnan(e) for e in self.errors):
            raise ValueError("errors must be nonnegative")


def _log_ratios(errors):
    """Yield ``(k, log(e[k+1]/e[k]) / log(e[k]/e[k-1]))`` for each interior
    index k whose triple is positive with a non-vanishing reference ratio."""
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
    InsufficientDataError
        When fewer than three positive entries are supplied.
    """
    vals = [float(e) for e in errors]
    if sum(1 for e in vals if e > 0) < 3:
        raise InsufficientDataError(
            "order estimation needs at least three positive errors")
    return [est for _, est in _log_ratios(vals)]


def _orders_by_row(errors) -> list:
    """Per-row order estimates aligned with the newest error; NaN if absent."""
    out = [math.nan] * len(errors)
    for k, est in _log_ratios(errors):
        out[k + 1] = est
    return out


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


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(float(x))


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Emit one CSV row per step: step,error,residual,order,seconds."""
    lines = ["step,error,residual,order_estimate,elapsed_seconds"]
    row_orders = _orders_by_row(trace.errors)
    for i, step in enumerate(trace.steps):
        lines.append(",".join([
            str(step),
            _fmt(trace.errors[i]),
            _fmt(trace.residuals[i]),
            _fmt(row_orders[i]),
            _fmt(trace.seconds[i]),
        ]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_trace_json(trace: ConvergenceTrace, path, header: dict | None = None) -> None:
    """Emit the trace as JSON: a header object plus one record per step."""
    row_orders = _orders_by_row(trace.errors)
    records = []
    for i, step in enumerate(trace.steps):
        rec = {
            "step": step,
            "error": trace.errors[i],
            "residual": trace.residuals[i],
            "order_estimate": (None if math.isnan(row_orders[i])
                               else row_orders[i]),
            "elapsed_seconds": trace.seconds[i],
        }
        records.append(rec)
    doc = {
        "header": dict(header or {}),
        "status": trace.status,
        "steps": records,
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
