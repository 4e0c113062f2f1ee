"""Bindings of the order-r subspace run under its former module name.

``AccelConfig``, ``accel_step`` and ``modified_ab_run`` live in
:mod:`abflow.pencil`; the names here are bound to the same objects.  The
module remains because the per-layer tracer in ``perfbench/`` times the
spans ``accel.accel_step``, ``accel.modified_ab_run`` and
``accel.inner_chain`` by looking them up here and patching every binding
of the same object, and its count tests check the ``lu_factor`` and
``subspace_distance`` bindings of this module.  Once the benchmark names
these spans under ``pencil``, the module can go.
"""

from __future__ import annotations

import numpy as np

from .linalg import lu_factor, subspace_distance  # noqa: F401
from .pencil import (  # noqa: F401
    ABIterate,
    AccelConfig,
    _integer,
    accel_step,
    modified_ab_run,
)


def inner_chain(hatA: np.ndarray, hatB: np.ndarray, order: int):
    """Chain element ``order - 1`` grown from element 1 ``(hatA, hatB)``:
    an outer step of ``order`` before its last merge.  For ``order=2`` the
    inputs come back unchanged.  No solver calls it."""
    it = accel_step(ABIterate(hatA, hatB, 1), _integer("order", order, 2) - 1)
    return it.A_k, it.B_k
