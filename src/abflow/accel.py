"""Order-r accelerated pencil iteration.

One outer step advances the chain from plain index m to index r*m, so
outer iterate k carries plain-chain element r**(k-1).  The step is r-1
flow merges with element m and keeps only the latest element (O(n^2)
extra memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# lu_factor and subspace_distance are unused here but stay bound:
# perfbench/tracer.py patches every module's binding of them, and
# perfbench/test_counts.py checks these ones.
from .linalg import lu_factor  # noqa: F401
from .pencil import (  # noqa: F401
    ABIterate,
    Pencil,
    SubspaceResult,
    _check_run_settings,
    _run_chain,
    combine,
    subspace_distance,
)


@dataclass(frozen=True)
class AccelConfig:
    """Settings for an accelerated run.

    ``order`` is the per-step chain multiplier r, kept in 2..16 since one
    outer step costs r-1 solve-multiply rounds.  ``order=2`` degenerates
    to a doubling iteration with a single merge per step.
    """

    order: int
    tol: float
    kmax: int
    expected_dim: int | None = None

    def __post_init__(self):
        if not 2 <= self.order <= 16:
            raise ValueError("order must be between 2 and 16")
        _check_run_settings(self.tol, self.kmax, self.expected_dim)


def inner_chain(hatA: np.ndarray, hatB: np.ndarray, order: int):
    """Chain element ``order - 1`` grown from element 1 ``(hatA, hatB)``:
    an outer step of ``order`` before its last merge.  For ``order=2`` the
    inputs come back unchanged."""
    if order < 2:
        raise ValueError("order must be at least 2")
    it = accel_step(ABIterate(hatA, hatB, 1), order - 1)
    return it.A_k, it.B_k


def accel_step(it: ABIterate, order: int) -> ABIterate:
    """One outer step: chain element m to element order*m, as order-1 flow
    merges ``cur = combine(cur, it)``.  A ``BreakdownError`` carries the
    index of the element whose merge failed."""
    cur = it
    for _ in range(order - 1):
        cur = combine(cur, it)
    return cur


def modified_ab_run(initial: Pencil, cfg: AccelConfig,
                    observer=None) -> SubspaceResult:
    """Accelerated subspace run; extraction is identical to ``ab_run``.

    The stopping rule compares near-null bases of successive outer
    iterates only.  ``observer(iterate, basis)`` is invoked per outer
    iterate (including the first); ``iterate.k`` is the plain-chain
    index r**(k-1).

    Returns
    -------
    SubspaceResult
        On breakdown, ``iterations`` holds the plain-chain index of the
        element that could not be produced.
    """
    return _run_chain(initial, lambda it: accel_step(it, cfg.order),
                      cfg.tol, cfg.kmax, cfg.expected_dim, observer)
