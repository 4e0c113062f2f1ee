"""Closed-form and textbook oracles that the tests check the solvers against.

None of this is part of the package: abflow computes everything through
flow merges (``pencil.combine``) and Q-chain steps (``sqrtm.q_step``), and
these definitions give the tests an independent route to the same values.
"""

import cmath
import math

import numpy as np

from abflow import ABFlowError, Pencil
from abflow.linalg import _as_square, as_matrix, lu_factor
from abflow.pencil import ABIterate

#: Marker for the point at infinity in eigenvalue maps.
INFINITY = complex(math.inf, 0.0)


class PoleEncounteredError(ABFlowError, ArithmeticError):
    """An eigenvalue map was evaluated at a pole of its rational form."""


# ----------------------------- linear algebra -----------------------------

def lu_solve(A, rhs):
    """Solve ``A @ X = rhs`` through a fresh pivoted factorization."""
    return lu_factor(A).solve(rhs)


def lu_perm(piv):
    """Row permutation ``perm`` with ``A[perm] = L @ U`` from LAPACK pivot
    indices ``piv`` (row ``i`` was swapped with row ``piv[i]``)."""
    perm = np.arange(len(piv), dtype=np.intp)
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    return perm


def induced_norm2(A):
    """Largest singular value of ``A`` (the induced 2-norm)."""
    M = as_matrix(A)
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def matrix_power_sum(A, k):
    """Return ``I + A + ... + A**(k-1)`` by Horner accumulation."""
    M = _as_square(A)
    if k < 1:
        raise ValueError("k must be at least 1")
    eye = np.eye(M.shape[0], dtype=np.complex128)
    acc = eye.copy()
    for _ in range(k - 1):
        acc = eye + M @ acc
    return acc


# ----------------------------- pencil chain -----------------------------

def closed_form_iterate(A1, k):
    """Chain element k in closed form, for an initial pencil with B_1 = I.

    Returns ``(A_1^k P^{-1}, P^{-1}, k)`` with ``P = I + A_1 + ... +
    A_1^{k-1}``; raises ``BreakdownError`` when P is singular (some
    eigenvalue of A_1 is a k-th root of unity other than 1).
    """
    M = _as_square(A1, "A1")
    if k < 1:
        raise ValueError("k must be at least 1")
    f = lu_factor(matrix_power_sum(M, k))
    eye = np.eye(M.shape[0], dtype=np.complex128)
    A_k = f.solve(np.linalg.matrix_power(M, k).T, trans=True).T
    B_k = f.solve(eye)
    return ABIterate(A_k, B_k, k)


def eigenvalue_map(lam, i, k):
    """Eigenvalue of the cross pencil A_i - mu*B_k induced by ``lam``.

    For finite ``lam`` the value is
    ``lam**i * sum(lam**s, s<k) / sum(lam**s, s<i)``; infinity maps to
    infinity.  At ``lam = 1`` both sums are exact integers and the value
    is exactly ``k / i``.  Raises ``PoleEncounteredError`` when the
    denominator sum vanishes.
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


# ----------------------------- square roots -----------------------------

def embed_pencil(S, gamma):
    """The 2n-by-2n pencil whose stable subspace encodes sqrt(S).

    Returns ``(gamma*I - T, gamma*I + T)`` with ``T = [[0, I], [S, 0]]``.
    """
    Sm = _as_square(S, "S")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = Sm.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    T = np.block([[zero, eye], [Sm, zero]])
    g = gamma * np.eye(2 * n, dtype=np.complex128)
    return Pencil(g - T, g + T)


def binomial_step(Q, S, order):
    """One outer step as a single rational binomial update.

    Returns ``N @ inv(D)`` with ``N = sum_j C(r,2j) Q^{r-2j} S^j`` and
    ``D = sum_j C(r,2j+1) Q^{r-2j-1} S^j`` (exact integer coefficients);
    raises ``BreakdownError`` when D is numerically singular.
    """
    if not 2 <= order <= 16:
        raise ValueError("order must be between 2 and 16")
    Qm = _as_square(Q, "Q")
    Sm = _as_square(S, "S")
    n = Qm.shape[0]
    q_pow = [np.eye(n, dtype=np.complex128)]
    for _ in range(order):
        q_pow.append(q_pow[-1] @ Qm)
    s_pow = [np.eye(n, dtype=np.complex128)]
    for _ in range(order // 2):
        s_pow.append(s_pow[-1] @ Sm)
    num = np.zeros((n, n), dtype=np.complex128)
    for j in range(order // 2 + 1):
        num += math.comb(order, 2 * j) * (q_pow[order - 2 * j] @ s_pow[j])
    den = np.zeros((n, n), dtype=np.complex128)
    for j in range((order - 1) // 2 + 1):
        den += math.comb(order, 2 * j + 1) * (q_pow[order - 2 * j - 1] @ s_pow[j])
    return lu_factor(den).solve(num.T, trans=True).T


def newton_step(Q, S):
    """One Newton update ``(Q + S Q^{-1}) / 2``."""
    Qm = _as_square(Q, "Q")
    Sm = _as_square(S, "S")
    return 0.5 * (Qm + lu_factor(Qm).solve(Sm.T, trans=True).T)


def cayley_factor(M, gamma):
    """Moebius image ``(gamma I - M)(gamma I + M)^{-1}``.

    Maps the open right half-plane into the open unit disk; the chain's
    contraction factor is the Cayley factor of sqrt(S) at gamma.
    """
    Mm = _as_square(M, "M")
    g = gamma * np.eye(Mm.shape[0], dtype=np.complex128)
    return lu_factor(g + Mm).solve((g - Mm).T, trans=True).T


def cayley_residual(Q, X_true):
    """Cayley error measure ``||(X - Q)(X + Q)^{-1}||_2`` against a known root."""
    Qm = _as_square(Q, "Q")
    Xm = _as_square(X_true, "X_true")
    return induced_norm2(lu_factor(Xm + Qm).solve((Xm - Qm).T, trans=True).T)
