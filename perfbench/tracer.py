"""Per-layer spans for abflow, attached from outside the package.

The tracer replaces each traced function by a timing wrapper under every
name that binds it inside the ``abflow`` modules.  Callers use
``from .linalg import lu_factor``, so patching only ``abflow.linalg`` would
miss the calls made through ``abflow.pencil.lu_factor``,
``abflow.sqrtm.lu_factor`` and the like.  Spans nest through a stack: a
span's self time is its duration minus the time its traced children took.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

_PACKAGE = "abflow"


def _lu_factor_flops(args, kwargs):
    n = len(args[0])
    return 8.0 / 3.0 * n ** 3          # complex LU: n^3/3 complex multiply-adds


def _lu_solve_flops(args, kwargs):
    fac, rhs = args[0], args[1]
    nrhs = rhs.shape[1] if getattr(rhs, "ndim", 0) == 2 else 1
    return 8.0 * fac.n ** 2 * nrhs     # two triangular solves per column


#: (span name, module, attribute, flop count of one call or None).
#: Several attributes may share one span name; their figures add up.
TARGETS = (
    ("linalg.as_matrix", "abflow.linalg", "as_matrix", None),
    ("linalg.lu_factor", "abflow.linalg", "lu_factor", _lu_factor_flops),
    ("linalg.lu_solve", "abflow.linalg", "LUFactorization.solve", _lu_solve_flops),
    ("linalg.extract", "abflow.linalg", "null_space_basis", None),
    ("linalg.extract", "abflow.linalg", "smallest_singular_subspace", None),
    ("linalg.subspace_distance", "abflow.linalg", "subspace_distance", None),
    ("pencil.ab_step", "abflow.pencil", "ab_step", None),
    ("pencil.ab_run", "abflow.pencil", "ab_run", None),
    ("accel.inner_chain", "abflow.accel", "inner_chain", None),
    ("accel.accel_step", "abflow.accel", "accel_step", None),
    ("accel.modified_ab_run", "abflow.accel", "modified_ab_run", None),
    ("sqrtm.q_step", "abflow.sqrtm", "q_step", None),
    ("sqrtm.accelerated_step", "abflow.sqrtm", "accelerated_step", None),
    ("sqrtm.sqrtm_ab", "abflow.sqrtm", "sqrtm_ab", None),
    ("trace.estimate_order", "abflow.trace", "estimate_order", None),
    ("trace.write", "abflow.trace", "write_trace_csv", None),
    ("trace.write", "abflow.trace", "write_trace_json", None),
    ("cli.parse_matrix_file", "abflow.cli", "parse_matrix_file", None),
    ("cli.write_out", "abflow.cli", "write_matrix_json", None),
    ("cli.write_out", "abflow.cli", "matrix_to_json", None),
    ("cli.main", "abflow.cli", "main", None),
    ("lab.generate", "abflow.lab", "make_known_sqrt_problem", None),
    ("lab.generate", "abflow.lab", "make_pencil_problem", None),
)


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "gflop")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.gflop = 0.0


class Tracer:
    """Context manager that wraps every target while it is active.

    ``stats[span]`` accumulates calls, self seconds, total seconds and
    Gflop computed.  ``patched`` lists the ``(module, name)`` bindings
    that were replaced, so a caller can confirm that a consumer module was
    reached.
    """

    def __init__(self):
        self.stats = {span: SpanStats() for span, *_ in TARGETS}
        self.patched = []
        self._undo = []
        self._stack = []

    def calls(self) -> dict:
        return {span: s.calls for span, s in self.stats.items()}

    def __enter__(self):
        for span, module, attr, flops in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(span, original, flops))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span, original, flops)
            for name, module_obj in list(sys.modules.items()):
                if name != _PACKAGE and not name.startswith(_PACKAGE + "."):
                    continue
                for key, value in list(vars(module_obj).items()):
                    if value is original:
                        self._patch(module_obj, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        return False

    def _patch(self, owner, key, wrapper):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)
        self.patched.append((getattr(owner, "__name__", str(owner)), key))

    def _wrap(self, span, fn, flops):
        stat = self.stats[span]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child[0]
                if flops is not None:
                    stat.gflop += flops(args, kwargs) / 1e9
                if stack:
                    stack[-1][0] += dt
        return wrapper
