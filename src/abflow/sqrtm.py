"""Principal matrix square root via the accelerated pencil iteration.

The quadratic equation X^2 = S embeds into a 2n-by-2n pencil whose chain
elements keep the block pattern [[Q_k, -I], [-S, Q_k]] / [[Q_k, I],
[S, Q_k]], so the solver runs the equivalent n-by-n rational iteration on
Q_k directly (identical mathematics at an eighth of the flops); the
embedding stays available for cross-validation.  Order r=2 reproduces the
Newton iteration from gamma*I.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    BreakdownError,
    InvalidBoundsError,
    SingularDenominatorError,
    SingularMatrixError,
)
# lu_factor is unused here but stays bound: perfbench/tracer.py patches every
# module's binding of it, and perfbench/test_counts.py checks this one.
from .linalg import EPS, _as_square, induced_norm2, lu_factor, solve_right  # noqa: F401
from .pencil import Pencil, SolveStatus
from .trace import ConvergenceTrace, estimate_order

#: Successive-difference level below which an increase is treated as the
#: rounding floor rather than transient behaviour.
STAGNATION_DIFF = math.sqrt(EPS)


def _check_sqrt_settings(gamma: float, tol: float, kmax: int) -> None:
    """Settings check shared by ``SqrtProblem`` and the order-1 runs of
    ``lab.run_experiment``; NaN fails it."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")


@dataclass(frozen=True)
class SqrtProblem:
    """Inputs for one square-root solve.

    ``S`` must not have eigenvalues on the open negative real axis
    (semisimple zeros are tolerated); this is the caller's contract and
    is signalled at runtime through breakdown, not verified eagerly.
    """

    S: np.ndarray
    gamma: float = 1.0
    order: int = 2
    tol: float = 1e-12
    kmax: int = 100

    def __post_init__(self):
        object.__setattr__(self, "S", _as_square(self.S, "S"))
        _check_sqrt_settings(self.gamma, self.tol, self.kmax)
        if not 2 <= self.order <= 16:
            raise ValueError("order must be between 2 and 16")


@dataclass(frozen=True)
class SqrtResult:
    """Square-root approximation with its certificate.

    ``residual`` is ||X^2 - S||_F / ||S||_F, reported independently of
    the stopping rule.
    """

    X: np.ndarray
    residual: float
    trace: ConvergenceTrace
    status: SolveStatus


def embed_pencil(S, gamma: float) -> Pencil:
    """The 2n-by-2n pencil whose stable subspace encodes sqrt(S).

    Returns ``(gamma*I - T, gamma*I + T)`` with ``T = [[0, I], [S, 0]]``.
    """
    Sm = _as_square(S, "S")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = Sm.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    T = np.block([[np.zeros((n, n), dtype=np.complex128), eye],
                  [Sm, np.zeros((n, n), dtype=np.complex128)]])
    g = gamma * np.eye(2 * n, dtype=np.complex128)
    return Pencil(g - T, g + T)


def _partner_matrix(partner, n: int) -> np.ndarray:
    if np.isscalar(partner):
        return complex(partner) * np.eye(n, dtype=np.complex128)
    return _as_square(partner, "partner")


def q_step(Q, S, partner) -> np.ndarray:
    """One rational update ``(S + partner Q)(partner + Q)^{-1}``.

    With ``partner = gamma*I`` this is the plain chain step; inside the
    accelerated iteration the partner is the current outer iterate.  A
    scalar partner is promoted to a multiple of the identity.

    Raises
    ------
    BreakdownError
        If ``partner + Q`` is numerically singular, the runtime signal
        for spectrum on the negative real axis.
    """
    Qm = _as_square(Q, "Q")
    Sm = _as_square(S, "S")
    P = _partner_matrix(partner, Qm.shape[0])
    try:
        return solve_right(Sm + P @ Qm, P + Qm)
    except SingularMatrixError as exc:
        raise BreakdownError("singular partner sum in square-root step") from exc


def accelerated_step(Q, S, order: int) -> np.ndarray:
    """Advance the Q-chain from element m to element order*m.

    Applies ``order - 1`` chain steps with the fixed partner Q; used by
    :func:`sqrtm_ab` once per outer step and directly checkable against
    :func:`binomial_step`.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    Qm = _as_square(Q, "Q")
    cur = Qm
    for _ in range(order - 1):
        cur = q_step(cur, S, Qm)
    return cur


def sqrtm_ab(prob: SqrtProblem, observer=None) -> SqrtResult:
    """Principal square root of ``prob.S`` by the order-r iteration.

    Outer iterate k equals plain-chain element r**(k-1) started from
    ``gamma*I``.  Stops when the relative successive difference
    ``||Q_k - Q_{k-1}||_F / ||Q_k||_F`` drops below ``prob.tol`` (the
    true error is unavailable), or after ``kmax`` outer steps; the
    returned residual certifies the answer independently.

    The underlying rational iteration (Newton's method at order 2) is
    not self-correcting: once the rounding floor is reached, errors can
    grow again.  The solver therefore keeps the iterate with the
    smallest successive difference and stops early when differences
    below the square root of machine precision start rising, reporting
    convergence at that floor.

    Parameters
    ----------
    prob : SqrtProblem
    observer : callable, optional
        Called as ``observer(k, Q)`` for every outer iterate including
        the initial one.

    Returns
    -------
    SqrtResult
        The trace records one row per outer update (step index, relative
        successive difference, residual, wall seconds).
    """
    return _run_q_chain(
        prob.S, prob.gamma, prob.tol, prob.kmax,
        lambda Q: accelerated_step(Q, prob.S, prob.order), observer)


def _run_q_chain(S: np.ndarray, gamma: float, tol: float, kmax: int,
                 advance, observer) -> SqrtResult:
    """The loop of ``sqrtm_ab`` and of the order-1 experiments of
    ``lab.run_experiment``; ``advance`` maps the current Q-chain element
    to the next one the run keeps."""
    n = S.shape[0]
    Qhat = gamma * np.eye(n, dtype=np.complex128)
    s_norm = float(np.linalg.norm(S, "fro")) or 1.0
    if observer is not None:
        observer(1, Qhat)

    steps, diffs, resids, secs = [], [], [], []
    status = SolveStatus.MAX_ITERATIONS
    best_diff = math.inf
    best_Q = Qhat
    rising = 0
    for k in range(2, kmax + 1):
        t0 = time.perf_counter()
        try:
            Qnew = advance(Qhat)
        except BreakdownError:
            status = SolveStatus.BREAKDOWN
            break
        dt = time.perf_counter() - t0
        denom = float(np.linalg.norm(Qnew, "fro")) or 1.0
        diff = float(np.linalg.norm(Qnew - Qhat, "fro")) / denom
        prev_diff = diffs[-1] if diffs else math.inf
        Qhat = Qnew
        if observer is not None:
            observer(k, Qhat)
        steps.append(k)
        diffs.append(diff)
        resids.append(float(np.linalg.norm(Qhat @ Qhat - S, "fro")) / s_norm)
        secs.append(dt)
        if diff < best_diff:
            best_diff = diff
            best_Q = Qhat
        if diff < tol:
            status = SolveStatus.CONVERGED
            break
        rising = rising + 1 if diff > prev_diff else 0
        floored = (best_diff < STAGNATION_DIFF
                   and (rising >= 2 or diff > 10.0 * best_diff))
        if floored:
            status = SolveStatus.CONVERGED
            Qhat = best_Q
            break

    if status is not SolveStatus.CONVERGED and best_diff < math.inf:
        Qhat = best_Q
    if sum(1 for d in diffs if d > 0) >= 3:
        orders = tuple(estimate_order(diffs))
    else:
        orders = ()
    trace = ConvergenceTrace(tuple(steps), tuple(diffs), tuple(resids),
                             orders, tuple(secs), status.value)
    residual = float(np.linalg.norm(Qhat @ Qhat - S, "fro")) / s_norm
    return SqrtResult(Qhat, residual, trace, status)


def binomial_step(Q, S, order: int) -> np.ndarray:
    """Collapse one outer step into a single rational binomial update.

    Returns ``N @ inv(D)`` with ``N = sum_j C(r,2j) Q^{r-2j} S^j`` and
    ``D = sum_j C(r,2j+1) Q^{r-2j-1} S^j`` (exact integer coefficients).
    Independent oracle for :func:`accelerated_step`.

    Raises
    ------
    SingularDenominatorError
        If the denominator sum is numerically singular.
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
    try:
        return solve_right(num, den)
    except SingularMatrixError as exc:
        raise SingularDenominatorError(str(exc)) from exc


def newton_step(Q, S) -> np.ndarray:
    """One Newton update ``(Q + S Q^{-1}) / 2``."""
    Qm = _as_square(Q, "Q")
    Sm = _as_square(S, "S")
    return 0.5 * (Qm + solve_right(Sm, Qm))


def cayley_factor(M, gamma: float) -> np.ndarray:
    """Moebius image ``(gamma I - M)(gamma I + M)^{-1}``.

    Maps the open right half-plane into the open unit disk; the chain's
    contraction factor is the Cayley factor of sqrt(S) at gamma.
    """
    Mm = _as_square(M, "M")
    g = gamma * np.eye(Mm.shape[0], dtype=np.complex128)
    return solve_right(g - Mm, g + Mm)


def cayley_residual(Q, X_true) -> float:
    """Cayley error measure ``||(X - Q)(X + Q)^{-1}||_2`` against a known root."""
    Qm = _as_square(Q, "Q")
    Xm = _as_square(X_true, "X_true")
    return induced_norm2(solve_right(Xm - Qm, Xm + Qm))


def gamma_heuristic(sqrt_spectrum_bounds) -> float:
    """Single-parameter shift for a real positive interval of |sqrt(lambda)|.

    For bounds ``0 < a <= b`` the minimizer of
    ``max |(x - g)/(x + g)|`` over ``x in [a, b]`` is ``sqrt(a*b)``
    (equioscillation at the endpoints).
    """
    a, b = sqrt_spectrum_bounds
    if not (0 < a <= b) or not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidBoundsError(f"need 0 < a <= b, got ({a}, {b})")
    return math.sqrt(a * b)
