"""Alternating pencil iteration for stable deflating subspaces.

Given a regular pencil A - lambda*B, the iteration produces pencils
(A_k, B_k) whose stable deflating subspace emerges as the near-null space
of A_k.  The chain obeys a discrete flow: element i+j is a rational
combination of elements i and j, which the order-r run
(``modified_ab_run``) exploits; its order 1 is the plain chain.
Eigenvalues transform by explicit rational maps, and the iteration
breaks down exactly when the initial pencil's spectrum meets certain
roots of unity.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
import operator
import time
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError
from .linalg import (
    SubspaceBasis,
    _as_square,
    _norm,
    _residual,
    lu_factor,
    null_space_basis,
    smallest_singular_subspace,
    subspace_distance,
)

#: Absolute tolerance for matching an eigenvalue against a root of unity.
BREAKDOWN_TOL = 1e-9

#: Largest order r of an outer step; one step costs r-1 merges.
MAX_ORDER = 16


@dataclass(frozen=True)
class Pencil:
    """Matrix pencil A - lambda*B with A, B square of equal shape.

    Regularity is not checked eagerly; operations report breakdown when
    a required sum is numerically singular.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_square(self.A, "A")
        B = _as_square(self.B, "B")
        if A.shape != B.shape:
            raise ValueError(f"A is {A.shape} but B is {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ABIterate:
    """Element k of the pencil chain.

    Along any chain the difference A_k - B_k stays equal to A_1 - B_1;
    the update below relies on that to get B_k with no extra solve.
    The fields are trusted, not checked: the chain builds them from a
    validated ``Pencil``.
    """

    A_k: np.ndarray
    B_k: np.ndarray
    k: int


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    BREAKDOWN = "breakdown"


@dataclass(frozen=True)
class SubspaceResult:
    """Outcome of a subspace run.

    ``U`` spans the computed stable deflating subspace, ``Lambda`` is the
    coupling block recovered from the original pencil via least squares,
    and ``residual`` is ||A U - B U Lambda||_F / ||U||_F.  On breakdown,
    ``iterations`` is the plain-chain index of the element that could not
    be produced (for accelerated runs too) and the basis is empty.
    """

    U: SubspaceBasis
    Lambda: np.ndarray
    residual: float
    iterations: int
    status: SolveStatus


def first_iterate(pencil: Pencil) -> ABIterate:
    """The chain element of index 1, i.e. the pencil itself."""
    return ABIterate(pencil.A, pencil.B, 1)


def ab_step(initial: Pencil, prev: ABIterate) -> ABIterate:
    """Advance the chain one step: element ``prev.k`` to ``prev.k + 1``,
    as the merge ``combine(first_iterate(initial), prev)``.

    Raises
    ------
    BreakdownError
        If ``A_1 + B_prev`` is numerically singular, which happens exactly
        when the initial spectrum meets a root of unity of order
        ``prev.k + 1``.
    """
    return combine(first_iterate(initial), prev)


def combine(it_i: ABIterate, it_j: ABIterate) -> ABIterate:
    """Merge chain elements i and j into element i+j (the flow property).

    ``A_{i+j} = A_i (A_i + B_j)^{-1} A_j``.  ``B_{i+j}`` equals
    ``B_j (A_i + B_j)^{-1} B_i`` too, but is taken from the constant
    difference as ``A_{i+j} + B_i - A_i``, so a merge is one factorization,
    one solve and one product.  Both iterates must come from the same
    chain.  ``lu_factor`` judges the sum by its terms and raises the
    ``BreakdownError`` for a sum that cancels to rounding error; the one
    job left here is to stamp it with ``i+j``, the plain-chain index of
    the element that could not be produced.  Each element after the
    first is made here and checked once, for ``ValueError`` when it is
    not finite: a NaN or Inf in ``A_{i+j}`` carries into ``B_{i+j}``.
    """
    target = it_i.k + it_j.k
    A_i = it_i.A_k
    try:
        f = lu_factor(A_i, it_j.B_k)
    except BreakdownError as exc:
        exc.index = target
        raise
    A_new = A_i @ f.solve(it_j.A_k)
    B_new = A_new + it_i.B_k - A_i
    if not np.isfinite(B_new).all():
        raise ValueError(f"chain element {target} is not finite")
    return ABIterate(A_new, B_new, target)


def _outer_step(x, order: int, merge):
    """Element m (``x``) to element order*m of either chain, as order-1
    merges ``cur = merge(cur, x)`` with the fixed element m."""
    cur = x
    for _ in range(order - 1):
        cur = merge(cur, x)
    return cur


def breakdown_check(eigenvalues, kmax: int):
    """Smallest k <= kmax whose breakdown set meets the given spectrum.

    The breakdown set for step k collects all p-th roots of unity except
    1 itself, for p = 2..k+1.  Returns ``None`` when no finite eigenvalue
    comes within ``BREAKDOWN_TOL`` of the set up to ``kmax``.  Producing
    chain element k+1 is what fails when this returns k.
    """
    kmax = _integer("kmax", kmax, 1)
    lams = [z for z in map(_number, eigenvalues) if cmath.isfinite(z)]
    for p in range(2, kmax + 2):
        for z in lams:      # of the p-th roots, the nearest by phase decides
            q = round(p * cmath.phase(z) / (2 * math.pi)) % p
            if q and abs(z - cmath.exp(2j * math.pi * q / p)) <= BREAKDOWN_TOL:
                return p - 1
    return None


def _finish(pencil: Pencil, U: SubspaceBasis, iterations: int,
            status: SolveStatus) -> SubspaceResult:
    """The result on span(U), with the least-squares coupling block of the
    original pencil: residual 0 for an empty basis, NaN on breakdown."""
    AU = pencil.A @ U.basis
    BU = pencil.B @ U.basis
    Lam = np.linalg.lstsq(BU, AU, rcond=None)[0]
    residual = (math.nan if status is SolveStatus.BREAKDOWN
                else _norm(AU - BU @ Lam) / math.sqrt(max(U.dim, 1)))
    return SubspaceResult(U, Lam, residual, iterations, status)


def _basis_change(U: SubspaceBasis, V: SubspaceBasis, tol: float) -> float:
    """The pencil's step metric: ``subspace_distance(U, V)``, or for equal
    dimensions m its lower bound ``||V - U (U^H V)||_F / sqrt(m)`` when
    that alone lies clearly above ``tol`` (the margin covers rounding),
    which never happens for ``tol >= 1``."""
    m = V.dim
    if U.dim == m > 0:
        bound = float(np.linalg.norm(_residual(U.basis, V.basis))) / math.sqrt(m)
        if bound > tol * (1 + 1e-6):
            return bound
    return subspace_distance(U, V)


def _drive(x, advance, metric, tol: float, kmax: int, observe,
           floor: float = 0.0):
    """The run loop of both solvers from chain element 1, ``x``.

    Step k runs ``new = advance(x)``, calls ``observe(k, new)`` and
    records ``metric(x, new)``; its seconds (the previous metric and the
    advance, never the observer) run from the previous ``observe``.  Stops
    CONVERGED when the metric drops below ``tol`` or, once the best one
    lies below ``floor``, rises twice in a row or jumps tenfold; BREAKDOWN
    with the error's index; MAX_ITERATIONS at ``kmax``.  Returns
    ``(status, index, best_k, best, metrics, seconds)``: ``best`` is
    element ``best_k``, the one of smallest metric (the later on a tie;
    element 1 while none has one).
    """
    if observe is None:
        observe = lambda k, new: None
    observe(1, x)
    best_k, best, best_m = 1, x, math.inf
    metrics, secs, rising = [], [], 0
    t0 = time.perf_counter()
    for k in range(2, kmax + 1):
        try:
            new = advance(x)
        except BreakdownError as exc:
            return SolveStatus.BREAKDOWN, exc.index, best_k, best, metrics, secs
        secs.append(time.perf_counter() - t0)
        observe(k, new)
        t0 = time.perf_counter()
        m = metric(x, new)
        rising = rising + 1 if metrics and m > metrics[-1] else 0
        metrics.append(m)
        x = new
        if m <= best_m:
            best_k, best, best_m = k, new, m
        if m < tol or best_m < floor and (rising >= 2 or m > 10.0 * best_m):
            return SolveStatus.CONVERGED, k, best_k, best, metrics, secs
    return SolveStatus.MAX_ITERATIONS, kmax, best_k, best, metrics, secs


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """The one rule for a count: ``operator.index(value)`` in
    ``low..high`` (no upper end without ``high``), or a ``ValueError``
    naming ``name``; a ``bool`` is no integer here."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low or high is not None and count > high:
        bound = (f"at least {low}" if high is None
                 else f"between {low} and {high}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return count


def _real(name: str, value, low: int) -> float:
    """The one rule for a real setting: a finite positive ``numbers.Real``
    (no bool) of at least ``low`` as a float, else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:       # an int or Fraction beyond double range
        x = math.inf
    if not (0 < x and low <= x < math.inf):     # NaN fails every check
        bound = f"at least {low} and finite" if low else "finite and positive"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return x


def _number(value) -> complex:
    """The one rule for an eigenvalue: a ``numbers.Number`` (no bool, no
    str) as a complex, infinite beyond double range, else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise ValueError(f"eigenvalue {value!r} is not a number")
    try:
        return complex(value)
    except OverflowError:       # an int or Fraction beyond double range
        return complex(math.inf)


def _check_settings(order: int, tol: float, kmax: int) -> float:
    """Run settings of both solvers: an integer ``order`` in 1..MAX_ORDER,
    ``tol`` finite and positive, and an integer ``kmax`` of at least 1
    (element 1 alone).  Returns ``tol`` as a float."""
    _integer("order", order, 1, MAX_ORDER)
    tol = _real("tol", tol, 0)
    _integer("kmax", kmax, 1)
    return tol


@dataclass(frozen=True)
class AccelConfig:
    """Settings for a subspace run of order r.

    ``order`` is the per-step chain multiplier r in 1..MAX_ORDER; one
    outer step costs r-1 merges.  ``order=1`` (the default) is the plain
    chain (``ab_run``), ``order=2`` a doubling iteration with a single
    merge per step.  ``abflow pencil`` takes its defaults from here.
    """

    order: int = 1
    tol: float = 1e-12
    kmax: int = 100
    expected_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tol", _check_settings(
            self.order, self.tol, self.kmax))
        if self.expected_dim is not None:
            _integer("expected_dim", self.expected_dim, 0)


def accel_step(it: ABIterate, order: int) -> ABIterate:
    """One outer step: element m to element order*m, ``_outer_step`` with
    ``combine`` as the merge.  A ``BreakdownError`` carries the index of
    the element whose merge failed."""
    return _outer_step(it, order, combine)


def modified_ab_run(initial: Pencil, cfg: AccelConfig,
                    observer=None) -> SubspaceResult:
    """Subspace run of order ``cfg.order``: ``_drive`` over (element,
    basis) pairs, where outer iterate k is plain-chain element
    r**(k-1).  Order 1 is the plain chain and advances by ``ab_step``;
    order r >= 2 advances by ``accel_step``.  Every order shares the
    extraction and the stopping rule described under ``ab_run``; the
    ``ref`` that threshold mode passes to ``null_space_basis`` (the
    largest row norm of D = A_1 - B_1 = A_k - B_k) is the scale A_k
    tends to on unstable directions, as it tends to 0 on stable ones;
    ``kmax = 1`` returns element 1's basis as MAX_ITERATIONS.
    ``observer(iterate, basis)`` is invoked per outer iterate (including
    the first); ``iterate.k`` is the plain-chain index.  An
    ``expected_dim`` above n raises ``ValueError`` before element 1 is
    observed.

    Returns
    -------
    SubspaceResult
        On breakdown, ``iterations`` holds the plain-chain index of the
        element that could not be produced.
    """
    tol, order, expected_dim = cfg.tol, cfg.order, cfg.expected_dim
    if expected_dim is not None:
        _integer("expected_dim", expected_dim, 0, initial.n)
    else:         # only threshold mode reads the scale
        ref = float(_norm(initial.A - initial.B, axis=1).max(initial=0.0))

    def extract(it):
        if expected_dim is not None:
            return it, smallest_singular_subspace(it.A_k, expected_dim)
        return it, null_space_basis(it.A_k, ref)

    def advance(x):     # both steps are module globals, read at each call
        return extract(ab_step(initial, x[0]) if order == 1
                       else accel_step(x[0], order))

    def metric(prev, new):
        if new[1].dim == 0 and expected_dim is None and initial.n:
            return 1.0      # nothing has emerged yet
        return _basis_change(prev[1], new[1], tol)

    observe = None if observer is None else lambda _, x: observer(*x)
    status, k, _, (_, basis), _, _ = _drive(
        extract(first_iterate(initial)), advance, metric, tol, cfg.kmax,
        observe)
    if status is SolveStatus.BREAKDOWN:
        basis = SubspaceBasis(np.zeros((initial.n, 0), np.complex128))
    return _finish(initial, basis, k, status)


def ab_run(initial: Pencil, tol: float = AccelConfig.tol,
           kmax: int = AccelConfig.kmax, expected_dim: int | None = None,
           observer=None) -> SubspaceResult:
    """Run the plain chain until successive near-null spaces stabilize:
    ``modified_ab_run`` at order 1.

    Iterates ``ab_step`` until the distance between the near-null bases
    of consecutive A_k drops below ``tol``, then recovers the coupling
    block from the original pencil.  Each chain element gets one
    extraction, a rank-revealing pivoted QR ``A_k^H P = Q R``
    (Bai-Demmel-Gu, see ``smallest_singular_subspace``), which keeps
    ``expected_dim`` directions or, without it, those past the threshold
    rank of ``null_space_basis(A_k, ref)``, with ``ref`` the largest row
    norm of ``A_1 - B_1``.  A threshold step with an empty basis counts
    as distance 1 unless n = 0, so with no eigenvalue stable threshold
    mode keeps the correct empty basis but runs to ``kmax``
    (MAX_ITERATIONS).  With widely spread stable eigenvalue magnitudes it
    can also settle on the fastest-decaying directions before slower ones
    cross the cutoff, a genuine deflating pair of smaller dimension.
    Supply ``expected_dim`` when the stable dimension is known.  A run
    that reaches ``kmax`` returns the basis of smallest step distance
    (the later on a tie), not the last one.

    Parameters
    ----------
    initial : Pencil
    tol : float, optional
        Subspace-distance stopping tolerance, finite, positive (default 1e-12).
    kmax : int, optional
        Largest chain index to produce (default 100); 1 is element 1 alone.
    expected_dim : int, optional
        Known dimension of the stable subspace.
    observer : callable, optional
        Called as ``observer(iterate, basis)`` for every chain element
        including the first.

    Returns
    -------
    SubspaceResult
        Status CONVERGED, MAX_ITERATIONS, or BREAKDOWN (breakdown is
        reported, never regularized away).
    """
    return modified_ab_run(initial, AccelConfig(1, tol, kmax, expected_dim),
                           observer)
