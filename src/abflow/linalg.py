"""Dense complex linear-algebra kernels.

Factored solves with partial pivoting, rank-revealing near-null spaces,
subspace geometry, the spectral norm, and Horner-style matrix power sums.
Everything operates on 2-D ``complex128`` arrays, never forms an explicit
inverse, and is a pure function of its inputs: a fixed input yields a
bit-identical output within one build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import DimensionMismatchError, SingularMatrixError

EPS = float(np.finfo(np.float64).eps)

#: Default relative cutoff sigma_i < rank_tol * sigma_max for near-null
#: directions; sits between iteration tolerances and machine precision.
DEFAULT_RANK_TOL = 1e-8

#: Safety factor on the relative pivot cutoff n*eps*max|A|.  The bare
#: cutoff misses exactly singular matrices whose final pivot lands a few
#: eps above it; truly singular solves in this problem class stay below
#: ~8x the bare cutoff while legitimate ones sit many orders above.
PIVOT_SAFETY = 64.0


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array.

    Raises
    ------
    ValueError
        If the input is not 2-D or contains NaN/Inf entries.
    """
    M = np.asarray(a, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_square(a, name: str = "matrix") -> np.ndarray:
    M = as_matrix(a, name)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {M.shape}")
    return M


@dataclass(frozen=True)
class LUFactorization:
    """Row-pivoted LU factors of a square matrix.

    ``lu`` holds the unit-lower and upper triangles combined and ``piv``
    the LAPACK pivot indices (row ``i`` was swapped with row ``piv[i]``);
    ``a_max`` is ``max|A|`` of the factored matrix, from which ``growth``
    is computed when first read.
    """

    lu: np.ndarray
    piv: np.ndarray
    a_max: float

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    @cached_property
    def growth(self) -> float:
        """Elimination growth indicator ``max|U| / max|A|`` (0 when n = 0)."""
        if self.n == 0:
            return 0.0
        return float(np.abs(np.triu(self.lu)).max() / self.a_max)

    @property
    def perm(self) -> np.ndarray:
        """Row permutation with ``A[perm] = L @ U``."""
        perm = np.arange(self.n, dtype=np.intp)
        for i, p in enumerate(self.piv):
            perm[i], perm[p] = perm[p], perm[i]
        return perm

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve ``A @ X = rhs`` (or ``A.T @ X = rhs`` when ``trans``)."""
        b = as_matrix(rhs, "rhs")
        if b.shape[0] != self.n:
            raise DimensionMismatchError(
                f"rhs has {b.shape[0]} rows, expected {self.n}")
        if self.n == 0 or b.shape[1] == 0:
            return np.zeros_like(b)
        return zgetrs(self.lu, self.piv, b, trans=int(trans))[0]


def lu_factor(A, scale: float = 0.0) -> LUFactorization:
    """Factor a square matrix as ``P A = L U`` with partial pivoting.

    ``scale`` is the magnitude of the terms ``A`` was summed from, if it
    is a sum: the pivot cutoff is relative to the larger of ``scale`` and
    ``max|A|``, so a sum that cancels to rounding error counts as singular.

    Raises
    ------
    SingularMatrixError
        When a pivot magnitude falls below
        ``PIVOT_SAFETY * n * eps * max(scale, max|A|)`` (numerically
        singular input; inside the pencil iteration this signals breakdown
        upstream).
    """
    M = _as_square(A)
    n = M.shape[0]
    if n == 0:
        return LUFactorization(M.copy(), np.empty(0, dtype=np.int32), 0.0)
    a_max = float(np.abs(M).max())
    if a_max == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    # exact zero pivots (info > 0) are flagged below through the cutoff check
    lu, piv, _ = zgetrf(M)
    pivot = float(np.abs(lu.diagonal()).min())
    cutoff = PIVOT_SAFETY * n * EPS * max(scale, a_max)
    if pivot < cutoff:
        raise SingularMatrixError(
            f"pivot {pivot:.3e} below cutoff {cutoff:.3e}")
    return LUFactorization(lu, piv, a_max)


def lu_solve(A, rhs) -> np.ndarray:
    """Solve ``A @ X = rhs`` through a fresh pivoted factorization."""
    return lu_factor(A).solve(rhs)


def solve_right(B, M) -> np.ndarray:
    """Return ``B @ inv(M)`` as a factored transpose solve."""
    f = lu_factor(M)
    Bm = as_matrix(B, "B")
    if Bm.shape[1] != f.n:
        raise DimensionMismatchError(
            f"B has {Bm.shape[1]} columns, expected {f.n}")
    return f.solve(Bm.T, trans=True).T


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^n.

    ``basis`` is n-by-m with orthonormal columns (m may be 0);
    ``singular_values`` records the singular-value spectrum that informed
    the rank decision (all ones for constructed bases).
    """

    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        B = as_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", B)
        object.__setattr__(self, "singular_values",
                           np.asarray(self.singular_values, dtype=float))
        n, m = B.shape
        if m > n:
            raise DimensionMismatchError(f"basis is {n}x{m} with m > n")
        gram = B.conj().T @ B
        if np.linalg.norm(gram - np.eye(m), "fro") > 1e-12 * max(1, m):
            raise ValueError("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def null_space_basis(A, rank_tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the right near-null space of ``A``.

    Collects the right singular vectors whose singular values satisfy
    ``sigma < rank_tol * sigma_max``.  An empty basis is a valid result.

    Parameters
    ----------
    A : array_like
        Any rectangular complex matrix.
    rank_tol : float
        Relative rank cutoff, must be positive.
    """
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol!r}")
    M = as_matrix(A)
    n_cols = M.shape[1]
    if M.shape[0] == 0 or n_cols == 0:
        return SubspaceBasis(np.eye(n_cols, dtype=np.complex128),
                             np.zeros(0))
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return SubspaceBasis(np.eye(n_cols, dtype=np.complex128), s)
    rank = int(np.sum(s >= rank_tol * smax))
    return SubspaceBasis(vh[rank:].conj().T, s)


def smallest_singular_subspace(A, dim: int) -> SubspaceBasis:
    """Span of the ``dim`` right singular vectors with smallest sigma."""
    M = as_matrix(A)
    n_cols = M.shape[1]
    if not 0 <= dim <= n_cols:
        raise DimensionMismatchError(
            f"requested dim {dim} outside 0..{n_cols}")
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    return SubspaceBasis(vh[n_cols - dim:].conj().T, s)


def _basis_array(U) -> np.ndarray:
    if isinstance(U, SubspaceBasis):
        return U.basis
    return as_matrix(U, "basis")


def subspace_distance(U, V) -> float:
    """Distance ``||P_U - P_V||_2`` between two spanned subspaces.

    Equals the sine of the largest principal angle when the dimensions
    match, computed as ``||V - U (U^H V)||_2`` from n-by-m products, never
    the n-by-n projectors; returns 1.0 when the dimensions differ
    (maximal by convention).  Inputs are orthonormal bases
    (``SubspaceBasis`` or arrays).

    Raises
    ------
    DimensionMismatchError
        If the ambient dimensions differ.
    """
    Bu, Bv = _basis_array(U), _basis_array(V)
    if Bu.shape[0] != Bv.shape[0]:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {Bu.shape[0]} vs {Bv.shape[0]}")
    if Bu.shape[1] != Bv.shape[1]:
        return 1.0
    if Bu.shape[1] == 0:
        return 0.0
    # both orders, so that swapping the arguments is bit-exact
    return min(1.0, max(_residual_norm(Bu, Bv), _residual_norm(Bv, Bu)))


def _residual(Bu: np.ndarray, Bv: np.ndarray) -> np.ndarray:
    """``Bv - Bu (Bu^H Bv)``: the part of span(Bv) outside span(Bu)."""
    return Bv - Bu @ (Bu.conj().T @ Bv)


def _residual_norm(Bu: np.ndarray, Bv: np.ndarray) -> float:
    """``||Bv - Bu (Bu^H Bv)||_2`` from the m-by-m Gram matrix of the residual."""
    W = _residual(Bu, Bv)
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh(W.conj().T @ W)[-1])))


def induced_norm2(A) -> float:
    """Largest singular value of ``A`` (the induced 2-norm)."""
    M = as_matrix(A)
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def matrix_power_sum(A, k: int) -> np.ndarray:
    """Return ``I + A + ... + A**(k-1)`` by Horner accumulation."""
    M = _as_square(A)
    if k < 1:
        raise ValueError("k must be at least 1")
    eye = np.eye(M.shape[0], dtype=np.complex128)
    acc = eye.copy()
    for _ in range(k - 1):
        acc = eye + M @ acc
    return acc
