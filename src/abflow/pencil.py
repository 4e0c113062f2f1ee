"""Alternating pencil iteration for stable deflating subspaces.

Given a regular pencil A - lambda*B, the iteration produces pencils
(A_k, B_k) whose stable deflating subspace emerges as the near-null space
of A_k.  The chain obeys a discrete flow: element i+j is a rational
combination of elements i and j, which is what the accelerated variant in
:mod:`abflow.accel` exploits.  Eigenvalues transform by explicit rational
maps, and the iteration breaks down exactly when the initial pencil's
spectrum meets certain roots of unity.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, PoleEncounteredError, SingularMatrixError
from .linalg import (
    SubspaceBasis,
    _as_square,
    _residual,
    lu_factor,
    matrix_power_sum,
    null_space_basis,
    smallest_singular_subspace,
    subspace_distance,
)

#: Absolute tolerance for matching an eigenvalue against a root of unity.
BREAKDOWN_TOL = 1e-9

#: Marker for the point at infinity in eigenvalue maps.
INFINITY = complex(math.inf, 0.0)


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
    """

    A_k: np.ndarray
    B_k: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "A_k", _as_square(self.A_k, "A_k"))
        object.__setattr__(self, "B_k", _as_square(self.B_k, "B_k"))
        if self.k < 1:
            raise ValueError("iterate index must be positive")


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
    chain.  The sum counts as singular against the scale of its summands,
    so a sum that cancels to rounding error is a breakdown.
    """
    if it_i.A_k.shape != it_j.A_k.shape:
        raise ValueError("iterates have different shapes")
    target = it_i.k + it_j.k
    A_i, B_j = it_i.A_k, it_j.B_k
    scale = max(float(np.abs(A_i).max(initial=0.0)),
                float(np.abs(B_j).max(initial=0.0)))
    try:
        f = lu_factor(A_i + B_j, scale=scale)
    except SingularMatrixError as exc:
        raise BreakdownError(
            f"singular sum producing chain element {target}",
            index=target) from exc
    A_new = A_i @ f.solve(it_j.A_k)
    return ABIterate(A_new, A_new + it_i.B_k - A_i, target)


def closed_form_iterate(A1, k: int) -> ABIterate:
    """Chain element k in closed form, for an initial pencil with B_1 = I.

    Returns ``(A_1^k P^{-1}, P^{-1}, k)`` with ``P = I + A_1 + ... +
    A_1^{k-1}``.  Serves as an independent oracle for step chains.

    Raises
    ------
    SingularMatrixError
        If the power sum is singular (equivalently, some eigenvalue of
        A_1 is a k-th root of unity other than 1).
    """
    M = _as_square(A1, "A1")
    if k < 1:
        raise ValueError("k must be at least 1")
    f = lu_factor(matrix_power_sum(M, k))
    eye = np.eye(M.shape[0], dtype=np.complex128)
    A_k = f.solve(np.linalg.matrix_power(M, k).T, trans=True).T
    B_k = f.solve(eye)
    return ABIterate(A_k, B_k, k)


def eigenvalue_map(lam, i: int, k: int):
    """Eigenvalue of the cross pencil A_i - mu*B_k induced by ``lam``.

    For finite ``lam`` the value is
    ``lam**i * sum(lam**s, s<k) / sum(lam**s, s<i)``; infinity maps to
    infinity.  At ``lam = 1`` both sums are exact integers and the value
    is exactly ``k / i``.

    Raises
    ------
    PoleEncounteredError
        When the denominator sum vanishes (``lam`` is a nontrivial root
        of unity of order dividing i).
    """
    if i < 1 or k < 1:
        raise ValueError("indices must be positive")
    z = complex(lam)
    if cmath.isnan(z):
        raise ValueError("eigenvalue is NaN")
    if cmath.isinf(z):
        return INFINITY
    num = sum(z ** s for s in range(k))
    den = sum(z ** s for s in range(i))
    if abs(den) <= 1e-12 * i:
        raise PoleEncounteredError(
            f"denominator sum vanishes at lambda={z} with i={i}")
    return z ** i * num / den


def breakdown_check(eigenvalues, kmax: int, tol: float = BREAKDOWN_TOL):
    """Smallest k <= kmax whose breakdown set meets the given spectrum.

    The breakdown set for step k collects all p-th roots of unity except
    1 itself, for p = 2..k+1.  Returns ``None`` when no eigenvalue comes
    within ``tol`` of the set up to ``kmax``.  Producing chain element
    k+1 is what fails when this returns k.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    lams = [complex(v) for v in eigenvalues]
    lams = [z for z in lams if not cmath.isinf(z)]
    for k in range(1, kmax + 1):
        p = k + 1
        roots = [cmath.exp(2j * math.pi * q / p) for q in range(1, p)]
        for z in lams:
            if any(abs(z - w) <= tol for w in roots):
                return k
    return None


def _extract_basis(A_k: np.ndarray, expected_dim: int | None) -> SubspaceBasis:
    if expected_dim is None:
        return null_space_basis(A_k)
    return smallest_singular_subspace(A_k, expected_dim)


def _recover_block(pencil: Pencil, U: SubspaceBasis):
    """Least-squares coupling block of the original pencil on span(U)."""
    m = U.dim
    if m == 0:
        return np.zeros((0, 0), dtype=np.complex128), 0.0
    AU = pencil.A @ U.basis
    BU = pencil.B @ U.basis
    Lam = np.linalg.lstsq(BU, AU, rcond=None)[0]
    residual = float(np.linalg.norm(AU - BU @ Lam, "fro") / math.sqrt(m))
    return Lam, residual


def _finish(pencil: Pencil, basis: SubspaceBasis, iterations: int,
            status: SolveStatus) -> SubspaceResult:
    Lam, residual = _recover_block(pencil, basis)
    return SubspaceResult(basis, Lam, residual, iterations, status)


def _check_run_settings(tol: float, kmax: int,
                        expected_dim: int | None) -> None:
    """Settings check shared by ``ab_run`` and ``AccelConfig``; NaN fails it."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    if expected_dim is not None and expected_dim < 0:
        raise ValueError("expected_dim must be nonnegative")


def _settled(U: SubspaceBasis, V: SubspaceBasis, tol: float) -> bool:
    """Whether ``subspace_distance(U, V) < tol``.

    For equal dimensions m the residual ``W = V - U (U^H V)`` gives the
    lower bound ``||W||_F / sqrt(m)`` on the distance, so a step whose
    ``||W||_F`` lies clearly above ``sqrt(m) * tol`` (the margin covers
    rounding) fails without the exact distance.  Since ``||W||_F <=
    sqrt(m)``, the bound never decides when ``tol >= 1``.
    """
    m = V.dim
    if U.dim == m > 0:
        bound = math.sqrt(m) * tol * (1 + 1e-6)
        if np.linalg.norm(_residual(U.basis, V.basis)) > bound:
            return False
    return subspace_distance(U, V) < tol


def _run_chain(initial: Pencil, advance, tol: float, kmax: int,
               expected_dim: int | None, observer) -> SubspaceResult:
    """The loop of ``ab_run`` and ``modified_ab_run``; ``advance`` maps the
    current chain element to the next one the run keeps."""
    it = first_iterate(initial)
    basis_prev = _extract_basis(it.A_k, expected_dim)
    if observer is not None:
        observer(it, basis_prev)
    for k in range(2, kmax + 1):
        try:
            it = advance(it)
        except BreakdownError as exc:
            empty = SubspaceBasis(np.zeros((initial.n, 0), np.complex128),
                                  np.zeros(0))
            return SubspaceResult(empty, np.zeros((0, 0), np.complex128),
                                  math.nan, exc.index, SolveStatus.BREAKDOWN)
        basis = _extract_basis(it.A_k, expected_dim)
        if observer is not None:
            observer(it, basis)
        # an empty threshold basis means nothing has emerged yet, unless
        # the space itself is empty
        emerged = basis.dim > 0 or expected_dim is not None or initial.n == 0
        if emerged and _settled(basis_prev, basis, tol):
            return _finish(initial, basis, k, SolveStatus.CONVERGED)
        basis_prev = basis
    return _finish(initial, basis_prev, kmax, SolveStatus.MAX_ITERATIONS)


def ab_run(initial: Pencil, tol: float, kmax: int,
           expected_dim: int | None = None,
           observer=None) -> SubspaceResult:
    """Run the plain chain until successive near-null spaces stabilize.

    Iterates ``ab_step`` until the distance between the near-null bases
    of consecutive A_k drops below ``tol``, then recovers the coupling
    block from the original pencil.  Without ``expected_dim`` the basis
    holds the singular directions below ``DEFAULT_RANK_TOL`` times the
    largest singular value, and a step with an empty basis counts as
    distance 1 unless n = 0; with it, the basis is the span of that many
    smallest singular directions.  With widely spread stable eigenvalue
    magnitudes the threshold rule can settle on the fastest-decaying
    directions before slower ones cross the cutoff; the result is then a
    genuine deflating pair of smaller dimension, so supply
    ``expected_dim`` when the stable dimension is known.

    Parameters
    ----------
    initial : Pencil
    tol : float
        Subspace-distance stopping tolerance, positive.
    kmax : int
        Largest chain index to produce, at least 2.
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
    _check_run_settings(tol, kmax, expected_dim)
    return _run_chain(initial, lambda it: ab_step(initial, it), tol, kmax,
                      expected_dim, observer)
