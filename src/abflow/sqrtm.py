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

from .errors import BreakdownError, InvalidBoundsError, SingularMatrixError
from .linalg import EPS, _as_square, lu_factor
from .pencil import SolveStatus, _check_settings, _drive, _outer_step
# unused estimate_order stays bound for perfbench/test_counts.py's tracer
from .trace import ConvergenceTrace, _order_estimates, estimate_order  # noqa: F401

#: Successive-difference level below which an increase is treated as the
#: rounding floor rather than transient behaviour.
STAGNATION_DIFF = math.sqrt(EPS)


@dataclass(frozen=True)
class SqrtProblem:
    """Inputs for one square-root solve.

    ``S`` must not have eigenvalues on the open negative real axis
    (semisimple zeros are tolerated); this is the caller's contract and
    is signalled at runtime through breakdown, not verified eagerly.
    ``order`` is r in 1..MAX_ORDER; r = 1 is the plain chain from gamma*I.
    """

    S: np.ndarray
    gamma: float = 1.0
    order: int = 2
    tol: float = 1e-12
    kmax: int = 100

    def __post_init__(self):
        object.__setattr__(self, "S", _as_square(self.S, "S"))
        if not 0 < self.gamma < math.inf:   # NaN fails every check
            raise ValueError(
                f"gamma must be finite and positive, got {self.gamma!r}")
        _check_settings(self.order, self.tol, self.kmax, 1)


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
    """One rational merge ``(S + partner Q)(partner + Q)^{-1}``.

    With ``partner = gamma*I`` this is the plain chain step; inside the
    accelerated iteration the partner is the current outer iterate.  A
    scalar partner is promoted to a multiple of the identity.

    Q, S and a matrix partner are trusted square complex arrays.

    Raises
    ------
    BreakdownError
        If ``partner + Q`` is numerically singular, the runtime signal
        for spectrum on the negative real axis; as in ``pencil.combine``,
        a sum that cancels to rounding error of its terms counts.
    """
    if np.isscalar(partner):
        partner = complex(partner) * np.eye(Q.shape[0], dtype=np.complex128)
    try:
        f = lu_factor(partner, Q)
    except SingularMatrixError as exc:
        raise BreakdownError("singular partner sum in square-root step") from exc
    return f.solve((S + partner @ Q).T, trans=True).T


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

    The chain starts from ``gamma*I``.  At order 1 outer iterate k is
    plain-chain element k (each step merges with ``gamma*I``); at order
    r >= 2 it is plain-chain element r**(k-1) (each step is
    ``accelerated_step``).  The run is the subspace runs' loop
    (``pencil._drive``) with the relative successive difference
    ``||Q_k - Q_{k-1}||_F / ||Q_k||_F`` as its metric (the true error is
    unavailable): it stops when the difference drops below ``prob.tol``,
    on breakdown, or after ``kmax`` outer iterates; the returned residual
    certifies the answer independently.

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
        The trace records one row per outer update (step index, relative
        successive difference, residual, wall seconds).
    """
    S, gamma, order = prob.S, prob.gamma, prob.order
    s_norm = float(np.linalg.norm(S, "fro")) or 1.0
    resids = []

    def residual(Q):
        return float(np.linalg.norm(Q @ Q - S, "fro")) / s_norm

    def rel_diff(P, Q):     # the metric, which also records Q's residual
        resids.append(residual(Q))
        return float(np.linalg.norm(Q - P, "fro")) / (
            float(np.linalg.norm(Q, "fro")) or 1.0)

    status, _, best_k, X, diffs, secs = _drive(
        gamma * np.eye(S.shape[0], dtype=np.complex128),
        lambda Q: (q_step(Q, S, gamma) if order == 1
                   else accelerated_step(Q, S, order)),
        rel_diff, prob.tol, prob.kmax, observer, STAGNATION_DIFF)
    trace = ConvergenceTrace(tuple(range(2, len(diffs) + 2)), tuple(diffs),
                             tuple(resids), _order_estimates(diffs),
                             tuple(secs), status.value)
    return SqrtResult(X, resids[best_k - 2] if best_k > 1 else residual(X),
                      trace, status)


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
