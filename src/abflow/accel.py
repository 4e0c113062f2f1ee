"""Order-r accelerated pencil iteration.

One outer step advances the chain from plain index m to index r*m, so
outer iterate k carries plain-chain element r**(k-1).  The step is r-1
``combine`` merges with element m, in the schedule the square-root Q-chain
shares, and keeps only the latest element (O(n^2) extra memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# lu_factor and subspace_distance are unused here but stay bound:
# perfbench/tracer.py patches every module's binding of them, and
# perfbench/test_counts.py checks these ones.
from .linalg import lu_factor  # noqa: F401
from .pencil import (  # noqa: F401
    MAX_ORDER,
    ABIterate,
    Pencil,
    SubspaceResult,
    _check_run_settings,
    _outer_step,
    _run_chain,
    combine,
    subspace_distance,
)


@dataclass(frozen=True)
class AccelConfig:
    """Settings for an accelerated run.

    ``order`` is the per-step chain multiplier r, kept in 2..MAX_ORDER
    since one outer step costs r-1 merges.  ``order=2`` degenerates to a
    doubling iteration with a single merge per step.
    """

    order: int
    tol: float
    kmax: int
    expected_dim: int | None = None

    def __post_init__(self):
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be between 2 and {MAX_ORDER}")
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
    """One outer step: element m to element order*m, ``pencil._outer_step``
    with ``combine`` as the merge.  A ``BreakdownError`` carries the index
    of the element whose merge failed."""
    return _outer_step(it, order, combine)


def modified_ab_run(initial: Pencil, cfg: AccelConfig,
                    observer=None) -> SubspaceResult:
    """Accelerated subspace run; extraction is identical to ``ab_run``:
    one pivoted QR per outer iterate, keeping ``cfg.expected_dim``
    directions when it is set and the threshold rank's otherwise, with
    the threshold-mode limit of ``ab_run`` (no eigenvalue stable: a run
    to ``kmax``).

    The stopping rule compares near-null bases of successive outer
    iterates only; a run that reaches ``kmax`` returns the basis of the
    outer step with the smallest distance, as ``ab_run`` does.
    ``observer(iterate, basis)`` is invoked per outer iterate (including
    the first); ``iterate.k`` is the plain-chain index r**(k-1).

    Returns
    -------
    SubspaceResult
        On breakdown, ``iterations`` holds the plain-chain index of the
        element that could not be produced.
    """
    return _run_chain(initial, lambda it: accel_step(it, cfg.order),
                      cfg.tol, cfg.kmax, cfg.expected_dim, observer)
