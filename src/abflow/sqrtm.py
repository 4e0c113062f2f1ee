"""Principal matrix square root via the accelerated pencil iteration.

The quadratic equation X^2 = S embeds into a 2n-by-2n pencil whose chain
elements keep the block pattern [[Q_k, -I], [-S, Q_k]] / [[Q_k, I],
[S, Q_k]], so the solver runs the equivalent n-by-n rational iteration on
Q_k directly (identical mathematics at an eighth of the flops).  Order
r=1 is the plain Q-chain from gamma*I and order r=2 reproduces the Newton
iteration from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import EPS, _as_square, _exponent, _norm, lu_factor
from .pencil import SolveStatus, _check_settings, _drive, _outer_step, _real
# unused estimate_order stays bound for perfbench/test_counts.py's tracer
from .trace import ConvergenceTrace, estimate_order  # noqa: F401

#: Successive-difference level below which an increase is treated as the
#: rounding floor rather than transient behaviour.
STAGNATION_DIFF = math.sqrt(EPS)


@dataclass(frozen=True)
class SqrtProblem:
    """Inputs for one square-root solve.

    ``S`` must have no eigenvalue on the closed negative real axis, zero
    included (a singular S ends in BREAKDOWN or MAX_ITERATIONS); this is
    the caller's contract, signalled at runtime, not verified eagerly.
    ``order`` is r in 1..MAX_ORDER; r = 1 is the plain chain from gamma*I.
    """

    S: np.ndarray
    gamma: float = 1.0
    order: int = 2
    tol: float = 1e-12
    kmax: int = 100

    def __post_init__(self):
        object.__setattr__(self, "S", _as_square(self.S, "S"))
        object.__setattr__(self, "gamma", _real("gamma", self.gamma, 0))
        object.__setattr__(self, "tol", _check_settings(
            self.order, self.tol, self.kmax))


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


def q_step(Q, S, partner) -> np.ndarray:
    """Merge two elements of one Q-chain:
    ``(S + partner Q)(partner + Q)^{-1}``.

    With element 1, ``partner = gamma*I``, this is the plain chain step;
    inside the accelerated iteration the partner is the current outer
    iterate.  Q, S and partner are trusted square complex arrays.

    Raises
    ------
    BreakdownError
        Straight from ``lu_factor`` (index None) if ``partner + Q`` is
        numerically singular, the runtime signal for spectrum on the
        negative real axis, a sum cancelled to rounding error included.
    ValueError
        If the new iterate, checked here where it is made, is not finite.
    """
    X = lu_factor(partner, Q).solve((S + partner @ Q).T, trans=True).T
    if not np.isfinite(X).all():
        raise ValueError("square-root iterate is not finite")
    return X


def _residual_of(S):
    """Q's certificate ``||Q^2 - S||_F / (||S||_F or 1)``, overflow-free."""
    s_norm = _norm(S) or 1.0

    def residual(Q):
        e = _exponent(Q)
        if 2 * e + Q.shape[0].bit_length() <= 1020:    # Q @ Q < 2**1021
            return _norm(Q @ Q - S) / s_norm
        c = math.ldexp(1.0, -e)     # exact scalings of Q and S
        return _norm((c * Q) @ (c * Q) - c * (c * S)) / s_norm / c / c
    return residual


def accelerated_step(Q, S, order: int) -> np.ndarray:
    """Advance the Q-chain from element m to element order*m.

    ``pencil._outer_step`` with ``q_step`` as the merge: ``order - 1``
    merges with the fixed partner Q, run by :func:`sqrtm_ab` at order
    >= 2.  The result equals a single rational binomial update
    ``N(Q) D(Q)^{-1}`` in powers of Q and S.
    """
    return _outer_step(Q, order, lambda cur, P: q_step(cur, S, P))


def sqrtm_ab(prob: SqrtProblem, observer=None) -> SqrtResult:
    """Principal square root of ``prob.S`` by the order-r iteration.

    The chain starts from element 1, ``gamma*I``.  At order 1 outer
    iterate k is plain-chain element k (each step merges with element 1,
    as ``pencil.ab_step`` does); at order r >= 2 it is plain-chain
    element r**(k-1) (each step is ``accelerated_step``).  The run is the
    subspace runs' loop (``pencil._drive``) with the relative successive
    difference ``||Q_k - Q_{k-1}||_F / ||Q_k||_F`` as its metric (the
    true error is unavailable): it stops when the difference drops below
    ``prob.tol``, on breakdown, or after ``kmax`` outer iterates; the
    returned residual certifies the answer independently.

    The underlying rational iteration (Newton's method at order 2) is
    not self-correcting: once the rounding floor is reached, errors can
    grow again.  The solver therefore returns the iterate with the
    smallest successive difference (the later one on a tie; ``gamma*I``
    when the first step breaks down) and, once that difference lies
    below ``STAGNATION_DIFF`` (the square root of machine precision),
    reports convergence at the floor when the difference rises on two
    steps in a row or jumps tenfold above it.

    Parameters
    ----------
    prob : SqrtProblem
    observer : callable, optional
        Called as ``observer(k, Q)`` for every outer iterate including
        the initial one.

    Returns
    -------
    SqrtResult
        The trace records one row per outer update k: k, the relative
        successive difference, the residual, and the wall seconds of
        difference k-1 and update k (``pencil._drive``'s clock).
    """
    S, gamma, order = prob.S, prob.gamma, prob.order
    residual = _residual_of(S)
    resids = []

    def rel_diff(P, Q):     # the metric, which also records Q's residual
        resids.append(residual(Q))
        return _norm(Q - P) / (_norm(Q) or 1.0)

    Q1 = gamma * np.eye(S.shape[0], dtype=np.complex128)
    status, _, best_k, X, diffs, secs = _drive(
        Q1, lambda Q: (q_step(Q, S, Q1) if order == 1
                       else accelerated_step(Q, S, order)),
        rel_diff, prob.tol, prob.kmax, observer, STAGNATION_DIFF)
    trace = ConvergenceTrace(tuple(range(2, len(diffs) + 2)), tuple(diffs),
                             tuple(resids), tuple(secs), status.value)
    return SqrtResult(X, resids[best_k - 2] if best_k > 1 else residual(X),
                      trace, status)


def gamma_heuristic(sqrt_spectrum_bounds) -> float:
    """Single-parameter shift for a real positive interval of |sqrt(lambda)|.

    For bounds ``0 < a <= b`` the minimizer of
    ``max |(x - g)/(x + g)|`` over ``x in [a, b]`` is ``sqrt(a*b)``
    (equioscillation at the endpoints).
    """
    lo, hi = sqrt_spectrum_bounds
    a, b = _real("a", lo, 0), _real("b", hi, 0)
    if a > b:
        raise ValueError(f"need 0 < a <= b, got ({lo!r}, {hi!r})")
    return math.sqrt(a * b)
