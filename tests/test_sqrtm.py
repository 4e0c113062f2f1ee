"""Square-root solver: embedding, chains, oracles, convergence behaviour."""

import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from abflow import (
    Pencil,
    SolveStatus,
    SqrtProblem,
    gamma_heuristic,
    sqrtm,
    sqrtm_ab,
)
from abflow.errors import BreakdownError
from abflow.lab import (
    ProblemSpec,
    SpectrumEntry,
    conditioned_similarity,
    make_known_sqrt_problem,
    random_unitary,
)
from abflow.linalg import _exponent
from abflow.pencil import ABIterate, ab_step
from abflow.sqrtm import _residual_of, accelerated_step, q_step

from oracles import (
    binomial_step,
    cayley_factor,
    cayley_residual,
    embed_pencil,
    induced_norm2,
    newton_step,
)
from util import q_chain, rel_err


def normal_sqrt_problem(seed, n=None, re_range=(0.5, 4.0)):
    """Unitary-similarity problem, so Cayley norms behave like scalars."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 7))
    lam = (re_range[0] + (re_range[1] - re_range[0]) * rng.random(n)
           + 1j * (rng.random(n) - 0.5))
    U = random_unitary(n, rng)
    X = U @ np.diag(np.sqrt(lam)) @ U.conj().T
    return X @ X, X


# ----------------------------- embedding -----------------------------

def test_embed_pencil_scalar_blocks():
    p = embed_pencil(np.array([[4.0 + 0j]]), 1.0)
    assert np.allclose(p.A, [[1.0, -1.0], [-4.0, 1.0]], atol=1e-15)
    assert np.allclose(p.B, [[1.0, 1.0], [4.0, 1.0]], atol=1e-15)


def test_embed_pencil_zero_matrix():
    p = embed_pencil(np.zeros((2, 2), dtype=complex), 1.0)
    eye = np.eye(2)
    assert np.allclose(p.A[:2, 2:], -eye, atol=1e-15)
    assert np.allclose(p.B[:2, 2:], eye, atol=1e-15)
    assert np.allclose(p.A[2:, :2], 0.0, atol=1e-15)


def test_embed_pencil_identity_block_pattern():
    S = np.eye(2, dtype=complex)
    gamma = 1.5
    p = embed_pencil(S, gamma)
    assert np.allclose(p.A[:2, :2], gamma * np.eye(2), atol=1e-15)
    assert np.allclose(p.A[2:, :2], -S, atol=1e-15)
    assert np.allclose(p.B[2:, :2], S, atol=1e-15)


def test_block_structure_invariant_under_generic_chain():
    # generic pencil chain on the embedding keeps [[Q,-I],[-S,Q]] / [[Q,I],[S,Q]]
    rng = np.random.default_rng(10)
    for n, gamma in [(1, 1.0), (2, 1.3), (3, 0.8), (4, 1.0)]:
        S, _ = normal_sqrt_problem(int(rng.integers(0, 1000)), n=n)
        p = embed_pencil(S, gamma)
        it = ABIterate(p.A, p.B, 1)
        qs = q_chain(S, gamma, 8)
        eye = np.eye(n)
        scale = max(1.0, np.linalg.norm(S, "fro"))
        for k in range(2, 9):
            it = ab_step(p, it)
            A, B = it.A_k, it.B_k
            assert np.linalg.norm(A[:n, n:] + eye, "fro") <= 1e-10 * scale
            assert np.linalg.norm(B[:n, n:] - eye, "fro") <= 1e-10 * scale
            assert np.linalg.norm(A[n:, :n] + S, "fro") <= 1e-10 * scale
            assert np.linalg.norm(B[n:, :n] - S, "fro") <= 1e-10 * scale
            for blk in (A[:n, :n], A[n:, n:], B[:n, :n], B[n:, n:]):
                assert rel_err(blk, qs[k - 1]) <= 1e-9


# ----------------------------- q_step -----------------------------

def test_q_step_scalar_values():
    S, one = np.array([[4.0 + 0j]]), np.eye(1, dtype=complex)
    assert q_step(np.array([[1.0 + 0j]]), S, one)[0, 0] == pytest.approx(2.5, abs=1e-12)
    assert q_step(np.array([[2.5 + 0j]]), S, one)[0, 0] == pytest.approx(6.5 / 3.5, abs=1e-12)


def test_q_step_fixed_point():
    rng = np.random.default_rng(11)
    S, X = normal_sqrt_problem(3)
    g = rng.random() + 0.5
    stepped = q_step(X, S, g * np.eye(X.shape[0], dtype=complex))
    assert rel_err(stepped, X) <= 1e-12


def test_q_step_breakdown_on_singular_sum():
    S = np.array([[1.0 + 0j]])
    with pytest.raises(BreakdownError) as info:
        q_step(np.array([[-1.0 + 0j]]), S, np.eye(1, dtype=complex))
    assert info.value.index is None     # straight from lu_factor


def test_q_step_breakdown_on_sum_cancelled_to_rounding_error():
    # partner + Q is 1e-8 noise against terms of size 1e8: singular by the
    # same rule as the pencil chain's combine, not an update of size ~1e24
    rng = np.random.default_rng(0)
    n = 6
    P = 1e8 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q = -P + 1e-8 * rng.standard_normal((n, n))
    with pytest.raises(BreakdownError):
        q_step(Q, np.eye(n, dtype=complex), P)


def test_chain_commutativity():
    S, _ = normal_sqrt_problem(5, n=4)
    qs = q_chain(S, 1.2, 8)
    for i in range(0, 8, 2):
        for j in range(1, 8, 3):
            lhs = qs[i] @ qs[j]
            rhs = qs[j] @ qs[i]
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-9 * np.linalg.norm(lhs, "fro")


# ----------------------------- solver -----------------------------

def test_sqrtm_diagonal():
    res = sqrtm_ab(SqrtProblem(np.diag([4.0 + 0j, 9.0]), order=2))
    assert res.status is SolveStatus.CONVERGED
    assert np.allclose(res.X, np.diag([2.0, 3.0]), atol=1e-12)
    assert res.residual <= 1e-12


@pytest.mark.parametrize("order", [2, 3])
def test_sqrtm_known_integer_root(order):
    S = np.array([[33.0, 24.0], [48.0, 57.0]], dtype=complex)
    X_true = np.array([[5.0, 2.0], [4.0, 7.0]], dtype=complex)
    res = sqrtm_ab(SqrtProblem(S, gamma=2.0, order=order))
    assert res.status is SolveStatus.CONVERGED
    assert rel_err(res.X, X_true) <= 1e-10


def test_sqrtm_exact_gamma_converges_in_one_update():
    res = sqrtm_ab(SqrtProblem(np.array([[4.0 + 0j]]), gamma=2.0))
    assert res.status is SolveStatus.CONVERGED
    assert res.trace.steps == (2,)
    assert res.X[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_sqrtm_rejects_bad_problem():
    with pytest.raises(ValueError):
        SqrtProblem(np.eye(2, dtype=complex), gamma=0.0)
    with pytest.raises(ValueError):
        SqrtProblem(np.eye(2, dtype=complex), order=0)
    with pytest.raises(ValueError):
        SqrtProblem(np.eye(2, dtype=complex), tol=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            SqrtProblem(np.eye(2, dtype=complex), gamma=bad)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="tol"):
            SqrtProblem(np.eye(2, dtype=complex), tol=bad)


def test_sqrtm_breakdown_on_negative_axis():
    # spectrum on the negative real axis defeats the embedding
    res = sqrtm_ab(SqrtProblem(np.array([[-1.0 + 0j]]), gamma=1.0))
    assert res.status is SolveStatus.BREAKDOWN


# Two widely scaled inputs of the uncoupled Q-chain: every run should
# return a finite residual and no BREAKDOWN, as no sum here is singular.
# The overflow of 1e160*I is pinned until the solver reports divergence
# with a status of its own.

@pytest.mark.xfail(strict=True, raises=(RuntimeWarning, ValueError),
                   reason="ROADMAP items 4 and 10: S + partner Q overflows in "
                   "q_step, which raises instead of returning a status")
def test_sqrtm_huge_scalar_matrix_returns_a_true_status():
    res = sqrtm_ab(SqrtProblem(1e160 * np.eye(3, dtype=complex)))
    assert res.status is not SolveStatus.BREAKDOWN
    assert np.isfinite(res.residual) and np.all(np.isfinite(res.X))


def test_sqrtm_wide_diagonal_is_not_a_breakdown():
    """``lu_factor`` judges each row of ``2Q`` on its own scale, so the
    1e150 row does not hide the pivot of the unit one."""
    res = sqrtm_ab(SqrtProblem(np.diag([1e150 + 0j, 1.0])))
    assert res.status is not SolveStatus.BREAKDOWN
    assert np.isfinite(res.residual)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: from gamma = 1 the chain returns "
                   "MAX_ITERATIONS with a residual of about 2.5e90")
def test_sqrtm_wide_diagonal_converges():
    res = sqrtm_ab(SqrtProblem(np.diag([1e150 + 0j, 1.0])))
    assert res.status is SolveStatus.CONVERGED
    assert res.residual <= 1e-10


def _spread_sqrt_problem(order):
    """S = X^2 for an X of size 16 and cond 10 with moduli in [1, 20) and
    arguments in [-0.5, 0.5): every eigenvalue of S lies within 1 rad of
    the positive real axis, and orders 2 and 3 converge on it."""
    rng = np.random.default_rng(0)
    moduli = 20.0 ** rng.random(16)
    args = rng.uniform(-0.5, 0.5, 16)
    S, _ = make_known_sqrt_problem(
        ProblemSpec(moduli * np.exp(1j * args), cond=10.0, seed=0))
    return SqrtProblem(S, gamma=gamma_heuristic((1.0, 20.0)), order=order)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the plain chain amplifies rounding "
                   "and ends in BREAKDOWN after 68 steps, relative error "
                   "7.0e-7")
def test_sqrtm_order_one_on_a_spread_spectrum_is_not_a_breakdown():
    res = sqrtm_ab(_spread_sqrt_problem(1))
    assert res.status is not SolveStatus.BREAKDOWN


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 23: the floor rule stops the run "
                   "CONVERGED after 9 steps with residual 4.7e-11; no step "
                   "difference fell below tol")
def test_sqrtm_converged_on_a_spread_spectrum_meets_tol():
    prob = _spread_sqrt_problem(2)
    res = sqrtm_ab(prob)
    assert res.status is not SolveStatus.CONVERGED or res.residual <= prob.tol


def test_sqrtm_floor_rule_stops_on_a_tenfold_jump():
    """On a spread spectrum of size 8 at order 3 the differences fall to
    3.07e-10 at step 6 and jump 16-fold to 4.97e-09 at step 7: one rise,
    so only the floor rule's tenfold trigger stops the run there (without
    it the run takes step 8).  The result is step 6's iterate."""
    rng = np.random.default_rng(0)
    moduli = 50.0 ** rng.random(8)
    args = rng.uniform(-0.5, 0.5, 8)
    S, _ = make_known_sqrt_problem(
        ProblemSpec(moduli * np.exp(1j * args), cond=10.0, seed=0))
    res = sqrtm_ab(SqrtProblem(S, gamma=gamma_heuristic((1.0, 50.0)),
                               order=3))
    assert res.status is SolveStatus.CONVERGED
    assert res.trace.steps == (2, 3, 4, 5, 6, 7)
    assert res.trace.errors[-1] > 10.0 * res.trace.errors[-2]
    assert res.residual == res.trace.residuals[-2]


def test_sqrtm_on_zero_norms():
    """``||S|| = 0`` divides nothing: the 0x0 S converges with residual
    0.0, and the 2x2 zero S (a singular S, ROADMAP item 9) returns a
    finite residual."""
    res = sqrtm_ab(SqrtProblem(np.zeros((0, 0))))
    assert res.status is SolveStatus.CONVERGED
    assert res.residual == 0.0
    res = sqrtm_ab(SqrtProblem(np.zeros((2, 2))))
    assert np.isfinite(res.residual)


def test_sqrtm_overflow_is_reported_where_the_iterate_is_made():
    """On 1e160*I the Newton step's S + Q^2 overflows; ``q_step`` names the
    iterate instead of passing Inf on (the status question is the xfail
    above)."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^square-root iterate is not finite$"):
        sqrtm_ab(SqrtProblem(1e160 * np.eye(3, dtype=complex)))


def test_sqrtm_wide_diagonal_certificate_is_finite():
    """The residual and step norms are overflow-free: on diag(1e150, 1)
    the entries of Q^2 fit in a double but the sum of their squares does
    not, and the residual still comes back finite with no RuntimeWarning
    (the useless answer is the xfail above)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = sqrtm_ab(SqrtProblem(np.diag([1e150 + 0j, 1.0])))
    assert np.isfinite(res.residual)
    assert all(np.isfinite(res.trace.residuals))


def _decimal_residual(Q, S):
    """``||Q^2 - S||_F / ||S||_F`` of real Q and S in 40-digit decimals,
    whose exponent range holds the square of any double."""
    q, s = ([[Decimal(x) for x in row] for row in M.real.tolist()]
            for M in (Q, S))
    n = len(s)
    with localcontext() as ctx:
        ctx.prec = 40
        num = sum((sum(q[i][k] * q[k][j] for k in range(n)) - s[i][j]) ** 2
                  for i in range(n) for j in range(n))
        return float((num / sum(x * x for row in s for x in row)).sqrt())


def test_sqrtm_certificate_of_an_overflowing_square_is_finite():
    """On diag(1e160, 4e160) the plain chain's Q_2 = (S + I)/2 has a
    square beyond double range, yet its relative residual (about 1e160)
    is a double: it comes back finite, with no RuntimeWarning, and equal
    to the decimal value for every iterate."""
    S = np.diag([1e160 + 0j, 4e160])
    qs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = sqrtm_ab(SqrtProblem(S, order=1, kmax=6),
                       observer=lambda k, Q: qs.append(Q))
    assert np.isfinite(res.residual)
    assert not any(Q.imag.any() for Q in qs)
    assert res.trace.residuals == pytest.approx(
        [_decimal_residual(Q, S) for Q in qs[1:]], rel=1e-14)


@pytest.mark.parametrize("k", [300, 500, 508])
def test_sqrtm_residual_is_invariant_under_power_of_two_scaling(k):
    """A run on 4**k S from 2**k gamma has iterates 2**k times the run on
    S, and the same residuals bit for bit: near ||S|| = 2**1016 a
    residual divided by ||S|| before the scale is undone would pass
    through the subnormal range and lose digits."""
    S, _ = make_known_sqrt_problem(ProblemSpec((1.0, 2.0, 3.0 + 0.5j, 4.0),
                                               seed=1))
    ref = sqrtm_ab(SqrtProblem(S))
    res = sqrtm_ab(SqrtProblem(S * 4.0 ** k, gamma=2.0 ** k))
    assert np.array_equal(res.X, ref.X * 2.0 ** k)
    assert res.trace.residuals == ref.trace.residuals
    assert res.residual == ref.residual


def test_sqrtm_trace_is_consistent():
    S, _ = normal_sqrt_problem(6, n=3)
    res = sqrtm_ab(SqrtProblem(S, order=2, tol=1e-13))
    tr = res.trace
    assert len(tr.steps) == len(tr.errors) == len(tr.residuals) == len(tr.seconds)
    assert tr.status == "converged"
    assert tr.errors[0] > tr.errors[-1]
    assert res.residual <= 1e-12


def test_accelerated_outer_equals_plain_chain_element():
    S, _ = normal_sqrt_problem(7, n=4)
    qs = q_chain(S, 1.0, 28)
    for order in (2, 3, 4):
        Qhat = np.eye(4, dtype=complex)
        index = 1
        while index * order <= 27:
            Qhat = accelerated_step(Qhat, S, order)
            index *= order
            assert rel_err(Qhat, qs[index - 1]) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("order", [2, 3, 5])
def test_sqrtm_shares_the_residual_square_bit_for_bit(monkeypatch, order, seed):
    """From the second step on, the first merge takes the residual's
    ``Q @ Q`` and forms no product of its own, and the run is the same
    outer steps made by hand with ``accelerated_step`` forming every
    product: the same iterates, residuals and answer, bit for bit."""
    S, _ = normal_sqrt_problem(seed, n=8, re_range=(0.5, 30.0))
    given, plain_q_step = [], sqrtm.q_step

    def spy(Q, S, partner, product=None):
        given.append(product is not None)
        return plain_q_step(Q, S, partner, product)

    monkeypatch.setattr(sqrtm, "q_step", spy)
    seen = []
    res = sqrtm_ab(SqrtProblem(S, order=order),
                   observer=lambda k, Q: seen.append(Q))
    monkeypatch.undo()
    steps = len(res.trace.steps)
    assert given == [k > 0 and i == 0
                     for k in range(steps) for i in range(order - 1)]
    residual = _residual_of(S)
    hand = [np.eye(8, dtype=complex)]
    for _ in range(steps):
        hand.append(accelerated_step(hand[-1], S, order))
    assert [Q.tobytes() for Q in seen] == [Q.tobytes() for Q in hand]
    assert res.trace.residuals == tuple(residual(Q)[0] for Q in hand[1:])
    assert any(res.X is Q for Q in seen)
    assert res.residual == residual(res.X)[0]


def test_sqrtm_residual_square_is_q_squared_or_none():
    """The residual's square, scaled back, is ``Q @ Q`` bit for bit.  It
    is None where scaling back would miss ``Q @ Q``'s last bits: where a
    scaled product falls below the normal range and rounds, or a part of
    Q vanishes when scaled; and where ``Q @ Q`` itself overflows."""
    residual = _residual_of(np.eye(2, dtype=complex))
    Q = np.array([[3.0, 1e-100], [0.5, 2.0 - 1j]])
    assert residual(Q)[1]().tobytes() == (Q @ Q).tobytes()
    # scaled by 2**-21 and 2**-11: x * x falls below the normal range, y to 0
    x, y = 1.1 * 2.0 ** -500, 2.0 ** -1070
    for Q in (np.array([[2.0 ** 20, x], [x, 0.0]], dtype=complex),
              np.array([[2.0 ** 10, y], [y, 1.0]], dtype=complex)):
        c = 2.0 ** -_exponent(Q)
        scaled_back = ((c * Q) @ (c * Q)) / c / c
        assert scaled_back.tobytes() != (Q @ Q).tobytes()
        assert residual(Q)[1]() is None
    assert residual(2.0 ** 510 * np.eye(2, dtype=complex))[1]() is None


def test_sqrtm_huge_scalar_matrix_at_orders_three_and_four():
    """On 1e160*I order 3's outer iterates are odd chain elements, about
    k*I, whose squares stay in range: the run ends MAX_ITERATIONS with
    residual 1.0 and no RuntimeWarning.  Order 4's first iterate is about
    S/4; its residual comes back, but its square overflows, so the next
    merge forms ``Q @ Q`` itself and the overflow surfaces in ``q_step``,
    as at order 2."""
    S = 1e160 * np.eye(3, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = sqrtm_ab(SqrtProblem(S, order=3))
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.residual == 1.0
        with pytest.raises(RuntimeWarning,
                           match="overflow encountered in matmul") as info:
            sqrtm_ab(SqrtProblem(S, order=4))
    assert info.traceback[-1].name == "q_step"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^square-root iterate is not finite$"):
        sqrtm_ab(SqrtProblem(S, order=4))


# ----------------------------- binomial / newton oracles -----------------------------

def test_binomial_step_scalar_values():
    Q = np.array([[1.0 + 0j]])
    S = np.array([[4.0 + 0j]])
    assert binomial_step(Q, S, 2)[0, 0] == pytest.approx(2.5, abs=1e-12)
    got = binomial_step(Q, S, 3)[0, 0]
    assert got == pytest.approx(13 / 7, abs=1e-12)
    # equals two plain chain steps
    qs = q_chain(S, 1.0, 3)
    assert got == pytest.approx(qs[2][0, 0], abs=1e-12)


def test_binomial_step_fixed_point():
    S, X = normal_sqrt_problem(8, n=3)
    for order in (2, 3, 4, 5):
        assert rel_err(binomial_step(X, S, order), X) <= 1e-11


def test_binomial_matches_accelerated_step():
    S, _ = normal_sqrt_problem(9, n=4)
    for order in (2, 3, 4, 5):
        Qhat = 1.1 * np.eye(4, dtype=complex)
        for _ in range(4):
            one = accelerated_step(Qhat, S, order)
            other = binomial_step(Qhat, S, order)
            assert rel_err(other, one) <= 1e-9
            Qhat = one


def test_binomial_singular_denominator():
    with pytest.raises(BreakdownError):
        binomial_step(np.zeros((1, 1), dtype=complex),
                      np.zeros((1, 1), dtype=complex), 2)


def test_newton_step_values():
    S = np.array([[4.0 + 0j]])
    assert newton_step(np.array([[1.0 + 0j]]), S)[0, 0] == pytest.approx(2.5, abs=1e-12)
    assert newton_step(np.array([[2.5 + 0j]]), S)[0, 0] == pytest.approx(2.05, abs=1e-12)
    # Newton element 3 is plain chain element 4 (closed form 164/80)
    qs = q_chain(S, 1.0, 4)
    assert qs[3][0, 0] == pytest.approx(164 / 80, abs=1e-12)
    X = np.array([[2.0 + 0j]])
    assert newton_step(X, S)[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_newton_rejects_singular_iterate():
    with pytest.raises(BreakdownError):
        newton_step(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))


def test_newton_equivalence_of_order_two_runs():
    for seed in range(5):
        S, _ = normal_sqrt_problem(100 + seed)
        n = S.shape[0]
        iterates = []
        sqrtm_ab(SqrtProblem(S, gamma=1.0, order=2, tol=1e-13, kmax=12),
                 observer=lambda k, Q: iterates.append(Q))
        newton = 1.0 * np.eye(n, dtype=complex)
        for Q in iterates[1:]:
            newton = newton_step(newton, S)
            assert rel_err(Q, newton) <= 1e-11


# ----------------------------- Cayley identities -----------------------------

def test_cayley_residual_values():
    X = np.array([[2.0 + 0j]])
    assert cayley_residual(X, X) == pytest.approx(0.0, abs=1e-15)
    assert cayley_residual(np.array([[1.0 + 0j]]), X) == pytest.approx(1 / 3, abs=1e-12)
    assert cayley_residual(np.array([[2.5 + 0j]]), X) == pytest.approx(1 / 9, abs=1e-12)


def test_cayley_power_relation_on_diagonal_chain():
    # |C(Q_i)|^j == |C(Q_j)|^i on scalar/diagonal problems
    S = np.diag([4.0 + 0j, 2.0 + 1.0j])
    X = np.diag(np.sqrt(np.diag(S)))
    qs = q_chain(S, 1.0, 7)
    for i in (1, 2, 3):
        for j in (1, 2, 4, 6):
            lhs = cayley_residual(qs[i - 1], X) ** j
            rhs = cayley_residual(qs[j - 1], X) ** i
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_closed_form_chain_via_cayley_factor():
    # Q_k = sqrt(S)(I + C^k)(I - C^k)^{-1} with C the Cayley factor at gamma
    for seed, cond in [(12, 1.0), (13, 30.0)]:
        rng = np.random.default_rng(seed)
        n = 4
        lam = 0.8 + 2.5 * rng.random(n) + 1j * (rng.random(n) - 0.5)
        P = conditioned_similarity(n, cond, rng)
        X = np.linalg.solve(P.T, (P @ np.diag(np.sqrt(lam))).T).T
        S = X @ X
        gamma = 1.2
        C = cayley_factor(X, gamma)
        qs = q_chain(S, gamma, 20)
        eye = np.eye(n)
        for k in range(1, 21):
            Ck = np.linalg.matrix_power(C, k)
            closed = X @ (eye + Ck) @ np.linalg.inv(eye - Ck)
            assert rel_err(qs[k - 1], closed) <= 1e-8


def test_order_bound_with_explicit_constant():
    # ||Qhat_{k+1} - X|| <= mu ||Qhat_k - X||^r with the stated mu
    for seed in range(6):
        S, X = normal_sqrt_problem(200 + seed)
        n = S.shape[0]
        svals = np.linalg.svd(X, compute_uv=False)
        gamma = float(np.sqrt(svals.min() * svals.max()))
        C = cayley_factor(X, gamma)
        c = induced_norm2(C)
        assert c < 1.0
        for order in (2, 3):
            mu = (2 * induced_norm2(X)
                  * np.linalg.norm(np.linalg.inv(X), 2) ** order
                  / (1 - c ** order))
            Q = gamma * np.eye(n, dtype=complex)
            prev = induced_norm2(Q - X)
            for _ in range(5):
                Q = accelerated_step(Q, S, order)
                cur = induced_norm2(Q - X)
                if prev <= 1e-13:
                    break
                assert cur <= mu * prev ** order * (1 + 1e-8) + 1e-15
                prev = cur


def test_plain_chain_q_linear_bound():
    # ||Q_{k+1} - X|| <= c (1 + c^k)/(1 - c^{k+1}) ||Q_k - X||
    for seed in range(6):
        S, X = normal_sqrt_problem(300 + seed)
        n = S.shape[0]
        C = cayley_factor(X, 1.0)
        c = induced_norm2(C)
        assert c < 1.0
        Q1 = Q = np.eye(n, dtype=complex)
        prev = induced_norm2(Q - X)
        for k in range(1, 20):
            Q = q_step(Q, S, Q1)
            cur = induced_norm2(Q - X)
            if prev <= 1e-13:
                break
            factor = c * (1 + c ** k) / (1 - c ** (k + 1))
            assert cur <= factor * prev * (1 + 1e-8) + 1e-15
            prev = cur


# ----------------------------- singular spectra -----------------------------

def test_singular_zero_block_is_gamma_over_k():
    rng = np.random.default_rng(14)
    P = conditioned_similarity(2, 8.0, rng)
    D = np.diag([0.0 + 0j, 1.0 + 0j])
    X = np.linalg.solve(P.T, (P @ D).T).T
    S = X @ X
    gamma = 1.0
    qs = q_chain(S, gamma, 12)
    for k in range(1, 13):
        back = np.linalg.solve(P, qs[k - 1] @ P)
        assert abs(back[0, 0] - gamma / k) <= 1e-10
        assert abs(back[0, 1]) <= 1e-9


def test_singular_accelerated_ratio_tends_to_one_over_r():
    spec = ProblemSpec(spectrum=(SpectrumEntry(0.0), 1.0), seed=3)
    S, X = make_known_sqrt_problem(spec)
    for order, steps in [(2, 9), (3, 7)]:
        Q = np.eye(2, dtype=complex)
        errs = [np.linalg.norm(Q - X, "fro")]
        for _ in range(steps):
            Q = accelerated_step(Q, S, order)
            errs.append(np.linalg.norm(Q - X, "fro"))
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
        for r in ratios[-3:]:
            assert abs(r - 1 / order) <= 0.2 / order


def test_singular_rejects_nonsemisimple_zero():
    with pytest.raises(ValueError, match="zero eigenvalues must be semisimple"):
        make_known_sqrt_problem(
            ProblemSpec(spectrum=(SpectrumEntry(0.0, 2, semisimple=False), 1.0)))


# ----------------------------- gamma heuristic -----------------------------

def test_gamma_heuristic_values():
    assert gamma_heuristic((2.0, 2.0)) == pytest.approx(2.0, abs=1e-15)
    assert gamma_heuristic((1.0, 4.0)) == pytest.approx(2.0, abs=1e-15)
    assert gamma_heuristic((1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_gamma_heuristic_equioscillation():
    a, b = 1.0, 4.0
    g = gamma_heuristic((a, b))
    assert abs((a - g) / (a + g)) == pytest.approx(abs((b - g) / (b + g)), abs=1e-12)
    assert abs((a - g) / (a + g)) == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("a, b, expected", [
    (1e200, 1e200, 1e200),
    (1e-200, 1e-200, 1e-200),
    (5e-324, 5e-324, 5e-324),
    (2.0 ** -1060, 2.0 ** -1050, 2.0 ** -1055),
    (sys.float_info.max, sys.float_info.max, sys.float_info.max),
    (0.5 * sys.float_info.max, sys.float_info.max,
     pytest.approx(math.sqrt(0.5) * sys.float_info.max, rel=1e-15)),
], ids=["huge", "tiny", "smallest-subnormal", "subnormal", "largest",
        "near-largest"])
def test_gamma_heuristic_neither_overflows_nor_underflows(a, b, expected):
    assert gamma_heuristic((a, b)) == expected


def test_gamma_heuristic_is_the_plain_midpoint_in_range():
    """Where ``a*b`` is a normal double, the scaled form gives the bits of
    ``math.sqrt(a*b)``."""
    rng = np.random.default_rng(23)
    pairs = np.ldexp(rng.uniform(0.5, 1.0, (4000, 2)),
                     rng.integers(-1021, 1024, (4000, 2)))
    checked = 0
    for a, b in np.sort(pairs, axis=1).tolist():
        p = a * b
        if sys.float_info.min <= p <= sys.float_info.max:
            checked += 1
            assert gamma_heuristic((a, b)) == math.sqrt(p), (a, b)
    assert checked > 1000


def test_gamma_heuristic_rejects_bad_bounds():
    for bounds, message in [
            ((0.0, 1.0), r"^a must be finite and positive, got 0\.0$"),
            ((-1.0, 2.0), r"^a must be finite and positive, got -1\.0$"),
            ((3.0, 2.0), r"^need 0 < a <= b, got \(3\.0, 2\.0\)$"),
            ((1.0, float("inf")), r"^b must be finite and positive, got inf$")]:
        with pytest.raises(ValueError, match=message):
            gamma_heuristic(bounds)
