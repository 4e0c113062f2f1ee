"""Dense complex linear-algebra kernels.

Factored solves with partial pivoting, rank-revealing near-null spaces
and subspace geometry.  Everything operates on 2-D ``complex128`` arrays,
never forms an explicit inverse, and is a pure function of its inputs: a
fixed input yields a bit-identical output within one build.
``as_matrix`` checks input where it enters the package; the factor,
solve and extraction kernels trust their callers, the chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgeqp3, zgetrf, zgetrs, zunmqr

from .errors import BreakdownError

EPS = float(np.finfo(np.float64).eps)

#: Rank cutoff |r_jj| < DEFAULT_RANK_TOL * (ref or |r_11|) on the diagonal
#: of a pivoted QR (see ``null_space_basis``); sits between iteration
#: tolerances and machine precision.
DEFAULT_RANK_TOL = 1e-8

#: Safety factor on the relative pivot cutoff n*eps*max|A|.  The bare
#: cutoff misses exactly singular matrices whose final pivot lands a few
#: eps above it; truly singular solves in this problem class stay below
#: ~8x the bare cutoff while legitimate ones sit many orders above.
PIVOT_SAFETY = 64.0


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array (else ValueError)."""
    M = np.asarray(a, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_square(a, name: str = "matrix") -> np.ndarray:
    M = as_matrix(a, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got {M.shape}")
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

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve ``A @ X = rhs`` (or ``A.T @ X = rhs`` when ``trans``)."""
        if self.n == 0:    # zgetrs's wrapper rejects an empty factorization
            return np.zeros_like(rhs)
        return zgetrs(self.lu, self.piv, rhs, trans=int(trans))[0]


def lu_factor(A, B=None) -> LUFactorization:
    """Factor ``M = A`` (a sum of one term) or ``M = A + B`` (finite square
    complex128 arrays of one shape) as ``P M = L U`` with partial pivoting.

    Raises ``BreakdownError`` (index None), the one signal of a singular sum
    in either chain, when a pivot falls below ``PIVOT_SAFETY * n * eps``
    times the largest entry of each term and of the sum and, with row i of
    ``M`` scaled by the exact ``2**-e_i`` (``e_i`` the exponent of the row's
    largest entry in those; LAPACK's ``xGEEQU`` row equilibration), below
    ``PIVOT_SAFETY * n * eps`` too: a sum that cancels to rounding error of
    its terms is singular, and each row is judged on its own scale.
    A pass returns LU factors of ``M`` itself, after the scaled test in
    its pivot order, which keeps each row's accuracy (``zgetrf``'s where
    those overflow, rows ~``2**1022`` apart).  ``ValueError`` when
    ``max|M|`` overflows, where no pivot test can judge ``M``.
    """
    terms = (A,) if B is None else (A, B, A + B)    # the sum M last
    M = terms[-1]
    n = M.shape[0]
    if n == 0:
        return LUFactorization(M.copy(), np.empty(0, dtype=np.int32), 0.0)
    maxima = [float(np.abs(T).max()) for T in terms]
    a_max = maxima[-1]
    if a_max == 0.0:
        raise BreakdownError("matrix is identically zero")
    if a_max == math.inf:
        raise ValueError("matrix entries overflow")
    # exact zero pivots (info > 0) are flagged below through the cutoff check
    lu, piv, _ = zgetrf(M)
    pivot = float(np.abs(lu.diagonal()).min())
    cutoff = PIVOT_SAFETY * n * EPS * max(maxima)
    if pivot < cutoff:
        rows = [np.abs(T).max(axis=1) for T in terms]
        e = np.maximum(np.frexp(np.max(rows, 0))[1], -1023)
        # each row's largest term entry now in [0.5, 1)
        slu, spiv, _ = zgetrf(np.ldexp(1.0, -e)[:, None] * M)
        scaled = float(np.abs(slu.diagonal()).min())
        least = PIVOT_SAFETY * n * EPS
        if scaled < least:
            raise BreakdownError(
                f"pivot {pivot:.3e} below cutoff {cutoff:.3e}, row-scaled "
                f"pivot {scaled:.3e} below {least:.3e}")
        # Undo the scales exactly: with E = P diag(2**e) P^T, E L E^-1 and
        # E U are the LU factors of P M in the row-scaled pivot order.
        for i, p in enumerate(spiv):
            e[[i, p]] = e[[p, i]]
        shift = e[:, None] - np.tril(np.broadcast_to(e, (n, n)), -1)
        with np.errstate(over="ignore"):
            for part in (slu.real, slu.imag):
                part[...] = np.ldexp(part, shift)
        if np.isfinite(slu).all():  # else they overflow: keep zgetrf's
            lu, piv = slu, spiv
    return LUFactorization(lu, piv, a_max)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^n.

    ``basis`` is n-by-m with orthonormal columns (m may be 0).  A basis
    built by hand is checked for orthonormality; the extraction kernels
    below build theirs from LAPACK factors and skip that check.
    """

    basis: np.ndarray

    def __post_init__(self):
        B = as_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", B)
        n, m = B.shape
        if m > n:
            raise ValueError(f"basis is {n}x{m} with m > n")
        gram = B.conj().T @ B
        if np.linalg.norm(gram - np.eye(m), "fro") > 1e-12 * max(1, m):
            raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _lapack_basis(B: np.ndarray) -> SubspaceBasis:
    """Wrap columns that are orthonormal by construction (of a LAPACK
    unitary factor or the identity), without the check."""
    basis = object.__new__(SubspaceBasis)
    object.__setattr__(basis, "basis", B)
    return basis


def null_space_basis(A, ref: float = 0.0) -> SubspaceBasis:
    """Orthonormal basis of the right near-null space of ``A``.

    The rank ``r`` is read off the pivoted QR ``A^H P = Q R`` as LAPACK's
    rank-deciding least-squares routine ``xGELSY`` does: the length of the
    leading run of ``|r_jj| >= DEFAULT_RANK_TOL * (ref or |r_11|)`` (0 for
    the zero matrix), for a finite complex128 ``A`` and a scale
    ``ref >= 0``, where ``|r_11|``, the largest row norm of ``A``, lies in
    ``[sigma_max / sqrt(n_rows), sigma_max]``.  The basis spans the
    trailing ``n_cols - r`` columns of Q and may be empty.
    """
    return _pivoted_qr_null_space(A, ref=ref)


def smallest_singular_subspace(A, dim: int) -> SubspaceBasis:
    """Orthonormal basis of the ``dim``-dimensional right near-null space
    of a finite complex128 ``A`` (``0 <= dim <= n_cols``), from a
    rank-revealing QR with column pivoting.

    The pivoted QR ``A^H P = Q R`` puts the ``r = n_cols - dim`` dominant
    rows of ``A`` first; the trailing ``dim`` columns of Q are their
    orthogonal complement, and ``A`` maps them to the block ``R22^H``.
    This is the extraction Bai, Demmel & Gu (Numer. Math. 76, 1997) use
    for the inverse-free divide-and-conquer iterate: the span is exact
    when ``A`` has rank ``r``, and in general its angle to the ``dim``
    smallest right singular vectors obeys
    ``tan(theta) <~ ||R12|| ||R22|| / sigma_min(R11)^2``, so it is
    accurate once the singular gap at ``r`` has opened, as it does along
    a converging chain.  It costs a fraction of a full SVD.
    """
    return _pivoted_qr_null_space(A, dim)


def _pivoted_qr_null_space(M: np.ndarray, dim: int | None = None,
                           ref: float = 0.0) -> SubspaceBasis:
    """The trailing ``dim`` columns of Q in ``M^H P = Q R`` (LAPACK
    ``zgeqp3``), or without ``dim`` those ``null_space_basis``'s cut leaves.

    With ``r`` leading columns dropped, the basis is the first ``r``
    reflectors (all if fewer) applied to ``I[:, r:]`` (``zunmqr``): the
    later ones only rotate those columns within their own span.
    """
    n_cols = M.shape[1]
    r = 0 if dim is None else n_cols - dim
    if M.size == 0:     # zgeqp3 rejects it, with an xerbla message on stdout
        return _lapack_basis(np.eye(n_cols, dtype=np.complex128)[:, r:])
    qr, _, tau, _, _ = zgeqp3(M.conj().T, overwrite_a=True)
    if dim is None:
        diag = np.abs(qr.diagonal())
        keep = (diag >= DEFAULT_RANK_TOL * (ref or diag[0])) & (diag > 0.0)
        r = int(np.argmin(np.append(keep, False)))     # 0 when R = 0
    basis = np.eye(n_cols, n_cols - r, -r, dtype=np.complex128, order="F")
    if r > 0:   # qr[:, :r] has as many columns as tau[:r] has reflectors
        basis = zunmqr("L", "N", qr[:, :r], tau[:r], basis,
                       max(1, n_cols - r), overwrite_c=True)[0]
    return _lapack_basis(basis)


def subspace_distance(U, V) -> float:
    """Distance ``||P_U - P_V||_2`` between two spanned subspaces.

    Equals the sine of the largest principal angle when the dimensions
    match, ``||V - U (U^H V)||_2`` from n-by-m products, never the n-by-n
    projectors (0 for two empty bases, by the same formula); 1.0 when the
    dimensions differ (maximal by convention).  Inputs are ``SubspaceBasis``
    objects or arrays; an array goes through ``SubspaceBasis``'s checks.

    Raises
    ------
    ValueError
        If an array's columns are not orthonormal, or the ambient
        dimensions differ.
    """
    Bu, Bv = ((W if isinstance(W, SubspaceBasis) else SubspaceBasis(W)).basis
              for W in (U, V))
    if Bu.shape[0] != Bv.shape[0]:
        raise ValueError(
            f"ambient dimensions differ: {Bu.shape[0]} vs {Bv.shape[0]}")
    if Bu.shape[1] != Bv.shape[1]:
        return 1.0
    # both orders, so that swapping the arguments is bit-exact
    return min(1.0, max(_residual_norm(Bu, Bv), _residual_norm(Bv, Bu)))


def _exponent(M: np.ndarray) -> int:
    """The e (|e| <= 1023) that puts M * 2**-e's largest |Re|, |Im| near 1."""
    v = np.ravel(M, order="K").view(np.float64)
    e = math.frexp(max(v.max(initial=0.0), -v.min(initial=0.0)))[1]
    return min(max(e, -1023), 1023)


def _norm(M: np.ndarray, axis=None):
    """``np.linalg.norm(M, axis=axis)`` (the Frobenius norm, or the row
    2-norms with ``axis=1``) free of overflow and underflow: that of
    ``M * 2**-e`` (``e = _exponent(M)``) scaled back by ``2**e``; both
    scalings are exact, so in-range norms keep numpy's bits."""
    e = _exponent(M)
    N = np.linalg.norm(M * math.ldexp(1.0, -e), axis=axis)
    return (float(N) if axis is None else N) * math.ldexp(1.0, e)


def _residual(Bu: np.ndarray, Bv: np.ndarray) -> np.ndarray:
    """``Bv - Bu (Bu^H Bv)``: the part of span(Bv) outside span(Bu)."""
    return Bv - Bu @ (Bu.conj().T @ Bv)


def _residual_norm(Bu: np.ndarray, Bv: np.ndarray) -> float:
    """``||Bv - Bu (Bu^H Bv)||_2`` from the m-by-m Gram matrix of the residual."""
    W = _residual(Bu, Bv)
    return math.sqrt(np.linalg.eigvalsh(W.conj().T @ W).max(initial=0.0))
