"""Pencil chain: steps, flow combination, oracles, eigenvalue transport."""

import cmath
import math

import numpy as np
import pytest

from abflow import (
    BREAKDOWN_TOL,
    AccelConfig,
    ConvergenceTrace,
    Pencil,
    SolveStatus,
    SqrtProblem,
    SubspaceBasis,
    ab_run,
    breakdown_check,
    modified_ab_run,
    subspace_distance,
)
from abflow.accel import inner_chain
from abflow.errors import BreakdownError
from abflow.lab import make_pencil_problem, ProblemSpec, random_unitary
from abflow.pencil import ABIterate, ab_step, combine

from oracles import (
    INFINITY,
    PoleEncounteredError,
    closed_form_iterate,
    eigenvalue_map,
    enumerated_breakdown,
    lu_solve,
)
from util import chain, rel_err, scalar_pencil, stable_pencil


# ----------------------------- ab_step -----------------------------

def test_ab_step_scalar_values():
    p = scalar_pencil(0.5, 1.0)
    it2 = ab_step(p, ABIterate(p.A, p.B, 1))
    assert it2.k == 2
    assert it2.A_k[0, 0] == pytest.approx(1 / 6, abs=1e-12)
    assert it2.B_k[0, 0] == pytest.approx(2 / 3, abs=1e-12)
    # eigenvalue of the step-2 pencil is the square of the original
    assert it2.A_k[0, 0] / it2.B_k[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_ab_step_zero_initial_is_fixed_point():
    n = 3
    p = Pencil(np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex))
    it = ABIterate(p.A, p.B, 1)
    for _ in range(4):
        it = ab_step(p, it)
        assert np.allclose(it.A_k, 0.0, atol=1e-15)
        assert np.allclose(it.B_k, np.eye(n), atol=1e-15)


def test_ab_step_direct_b_matches_shortcut():
    # the rational form B_k (A_1 + B_k)^{-1} B_1 agrees with the B that
    # the step takes from the constant difference
    p = stable_pencil(11)
    it = ABIterate(p.A, p.B, 1)
    for _ in range(7):
        direct = it.B_k @ np.linalg.solve(p.A + it.B_k, p.B)
        it = ab_step(p, it)
        assert rel_err(direct, it.B_k) <= 1e-11


def test_ab_step_is_the_merge_with_the_first_element():
    p = stable_pencil(12)
    it = ABIterate(p.A, p.B, 1)
    for _ in range(5):
        merged = combine(ABIterate(p.A, p.B, 1), it)
        it = ab_step(p, it)
        assert it.k == merged.k
        assert it.A_k.tobytes() == merged.A_k.tobytes()
        assert it.B_k.tobytes() == merged.B_k.tobytes()


def test_ab_step_breakdown_on_minus_one():
    rng = np.random.default_rng(12)
    Q = random_unitary(3, rng)
    A = Q @ np.diag([-1.0 + 0j, 0.3, 0.5]) @ Q.conj().T
    p = Pencil(A, np.eye(3, dtype=complex))
    with pytest.raises(BreakdownError) as info:
        ab_step(p, ABIterate(p.A, p.B, 1))
    assert info.value.index == 2


def test_difference_invariant_along_chain():
    for seed in range(5):
        p = stable_pencil(30 + seed)
        bound = 1e-10 * (np.linalg.norm(p.A, "fro") + np.linalg.norm(p.B, "fro"))
        d0 = p.A - p.B
        for it in chain(p, 10):
            assert np.linalg.norm((it.A_k - it.B_k) - d0, "fro") <= bound


def test_four_equivalent_forms_variant():
    # replacing the solve target by B_1 + A_{k-1} gives the same chain
    for seed in range(3):
        p = stable_pencil(40 + seed)
        ref = chain(p, 10)
        A_cur, B_cur = p.A, p.B
        for it in ref[1:]:
            M = p.B + A_cur
            A_cur = p.A @ lu_solve(M, A_cur)
            B_cur = B_cur @ lu_solve(M, p.B)
            assert rel_err(A_cur, it.A_k) <= 1e-9
            assert rel_err(B_cur, it.B_k) <= 1e-9


# ----------------------------- combine -----------------------------

def test_combine_of_first_iterates_is_step_two():
    p = scalar_pencil(0.5, 1.0)
    it1 = ABIterate(p.A, p.B, 1)
    via_combine = combine(it1, it1)
    via_step = ab_step(p, it1)
    assert via_combine.k == 2
    assert np.allclose(via_combine.A_k, via_step.A_k, atol=1e-15)
    assert np.allclose(via_combine.B_k, via_step.B_k, atol=1e-15)


def test_combine_scalar_flow_values():
    p = scalar_pencil(0.5, 1.0)
    it1 = ABIterate(p.A, p.B, 1)
    it2 = ab_step(p, it1)
    it3 = combine(it1, it2)
    assert it3.k == 3
    assert it3.A_k[0, 0] == pytest.approx(1 / 14, abs=1e-12)
    assert it3.B_k[0, 0] == pytest.approx(4 / 7, abs=1e-12)
    assert it3.A_k[0, 0] / it3.B_k[0, 0] == pytest.approx(0.125, abs=1e-12)


def test_combine_is_symmetric_in_its_arguments():
    for seed in range(5):
        p = stable_pencil(50 + seed, n=6)
        its = chain(p, 7)
        for i, j in [(1, 2), (2, 3), (1, 5), (3, 3)]:
            ab = combine(its[i - 1], its[j - 1])
            ba = combine(its[j - 1], its[i - 1])
            assert rel_err(ab.A_k, ba.A_k) <= 1e-12
            assert rel_err(ab.B_k, ba.B_k) <= 1e-12


def test_flow_property_matches_chain():
    for seed in range(5):
        p = stable_pencil(60 + seed)
        its = chain(p, 12)
        for i in range(1, 12):
            for j in range(1, 12 - i + 1):
                merged = combine(its[i - 1], its[j - 1])
                ref = its[i + j - 1]
                assert rel_err(merged.A_k, ref.A_k) <= 1e-9
                assert rel_err(merged.B_k, ref.B_k) <= 1e-9


# ----------------------------- closed form -----------------------------

def test_closed_form_scalar():
    it = closed_form_iterate(np.array([[0.5 + 0j]]), 2)
    assert it.A_k[0, 0] == pytest.approx(0.25 / 1.5, abs=1e-12)


def test_closed_form_k_one_returns_pencil():
    A = np.array([[0.3 + 0.1j, 0.2], [0.0, -0.4]], dtype=complex)
    it = closed_form_iterate(A, 1)
    assert np.allclose(it.A_k, A, atol=1e-15)
    assert np.allclose(it.B_k, np.eye(2), atol=1e-15)


def test_closed_form_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    it = closed_form_iterate(A, 2)
    assert np.allclose(it.A_k, 0.0, atol=1e-15)


def test_closed_form_singular_power_sum():
    # -1 makes I + A singular at k = 2
    with pytest.raises(BreakdownError):
        closed_form_iterate(np.array([[-1.0 + 0j]]), 2)


def test_chain_matches_closed_form_oracle():
    for seed in range(5):
        p = stable_pencil(70 + seed, random_b=False)
        for it in chain(p, 10)[1:]:
            oracle = closed_form_iterate(p.A, it.k)
            assert rel_err(it.A_k, oracle.A_k) <= 1e-9
            assert rel_err(it.B_k, oracle.B_k) <= 1e-9


# ----------------------------- eigenvalue map -----------------------------

def test_eigenvalue_map_values():
    assert eigenvalue_map(0.5, 1, 2) == pytest.approx(0.75, abs=1e-12)
    assert eigenvalue_map(0.5, 2, 3) == pytest.approx(0.25 * 1.75 / 1.5, abs=1e-12)
    assert eigenvalue_map(1.0, 3, 5) == pytest.approx(5 / 3, abs=1e-15)


def test_eigenvalue_map_infinity():
    for i, k in [(1, 1), (2, 5), (4, 3)]:
        assert cmath.isinf(eigenvalue_map(INFINITY, i, k))
        assert cmath.isinf(eigenvalue_map(float("inf"), i, k))


def test_eigenvalue_map_pole():
    with pytest.raises(PoleEncounteredError):
        eigenvalue_map(-1.0, 2, 3)
    with pytest.raises(PoleEncounteredError):
        eigenvalue_map(cmath.exp(2j * cmath.pi / 3), 3, 2)


def test_eigenvalue_transport_on_diagonal_pencils():
    lam = np.array([0.5, -0.4 + 0.2j, 0.8j, 1.6, 2.0 - 1.0j])
    p = Pencil(np.diag(lam), np.eye(5, dtype=complex))
    its = chain(p, 6)
    for it in its:
        for j in range(5):
            assert abs(it.A_k[j, j] / it.B_k[j, j] - lam[j] ** it.k) <= 1e-9
    for i in range(1, 7):
        for k in range(1, 7):
            for j in range(5):
                got = its[i - 1].A_k[j, j] / its[k - 1].B_k[j, j]
                assert abs(got - eigenvalue_map(lam[j], i, k)) <= 1e-9


def test_subspace_transfer_identity():
    # A_k U = (B1 - A1) U Lam^k (I - Lam^k)^{-1} on constructed pencils
    for seed in range(4):
        spec = ProblemSpec(spectrum=(0.5, 0.3 + 0.4j, 1.8, -2.0), seed=seed)
        prob = make_pencil_problem(spec, random_b=True)
        U = prob.basis.basis
        Lam = prob.stable_block
        p = prob.pencil
        it = ABIterate(p.A, p.B, 1)
        for _ in range(9):
            it = ab_step(p, it)
            Lk = np.linalg.matrix_power(Lam, it.k)
            rhs = (p.B - p.A) @ U @ Lk @ np.linalg.inv(np.eye(Lam.shape[0]) - Lk)
            assert np.linalg.norm(it.A_k @ U - rhs, "fro") <= 1e-8


# ----------------------------- breakdown prediction -----------------------------

def test_breakdown_check_examples():
    assert breakdown_check([0.5, 0.3], 20) is None
    assert breakdown_check([-1.0], 20) == 1
    assert breakdown_check([cmath.exp(2j * math.pi / 3)], 20) == 2
    assert breakdown_check([1j], 20) == 3
    assert breakdown_check([INFINITY, 0.2], 20) is None


def _breakdown_grid():
    """Single eigenvalues at p-th roots of unity, p <= 70 (the first,
    last and middle ones of each order, 1 included), each moved by 0 to
    2*BREAKDOWN_TOL radially or along the circle; seeded points on and
    near the circle; and the non-finite cases."""
    for p in range(1, 71):
        qs = {0, 1, 2, p // 2, (p + 1) // 2, p - 2, p - 1} & set(range(p))
        for i, q in enumerate(sorted(qs)):
            t = (0.0, 0.5, 1.0, 1.5, 2.0)[(p + i) % 5] * BREAKDOWN_TOL
            d = (1, 1j, -1, -1j)[(p + i) // 5 % 4]
            yield [cmath.exp(2j * math.pi * q / p) * (1 + d * t)]
    rng = np.random.default_rng(0)
    on = np.exp(2j * np.pi * rng.random(100))
    yield from ([z] for z in on)
    yield from ([z] for z in on * (1 + 1e-3 * rng.standard_normal(100)))
    yield [INFINITY, 0.2]
    yield [complex(math.nan, 0.0)]
    yield [complex(math.nan, 0.0), -1.0]


def test_breakdown_check_matches_enumeration():
    """Testing only the root nearest each eigenvalue by phase gives the
    answer of testing every root of every order."""
    found = 0
    for lams in _breakdown_grid():
        for kmax in (1, 5, 20, 64):
            k = breakdown_check(lams, kmax)
            assert k == enumerated_breakdown(lams, kmax), (lams, kmax)
            found += k is not None
    assert found > 250     # the grid reaches both answers


def test_breakdown_check_matches_run_failure():
    rng = np.random.default_rng(80)
    for target in (-1.0 + 0j, cmath.exp(2j * math.pi / 3)):
        Q = random_unitary(4, rng)
        lam = np.array([target, 0.4, 0.2 + 0.1j, 1.7])
        A = Q @ np.diag(lam) @ Q.conj().T
        p = Pencil(A, np.eye(4, dtype=complex))
        predicted = breakdown_check(lam, 10)
        result = ab_run(p, 1e-9, 50)
        assert result.status is SolveStatus.BREAKDOWN
        assert result.iterations == predicted + 1


# ----------------------------- ab_run -----------------------------

def test_ab_run_diagonal_pencil():
    p = Pencil(np.diag([0.5 + 0j, 2.0]), np.eye(2, dtype=complex))
    result = ab_run(p, 1e-8, 100)
    assert result.status is SolveStatus.CONVERGED
    assert result.U.dim == 1
    assert abs(abs(result.U.basis[0, 0]) - 1.0) <= 1e-10
    assert result.Lambda[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert result.residual <= 1e-8


def test_ab_run_zero_matrix_converges_to_full_space():
    p = Pencil(np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex))
    result = ab_run(p, 1e-8, 10)
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations == 2
    assert result.U.dim == 3
    assert np.allclose(result.Lambda, 0.0, atol=1e-12)


def test_ab_run_recovers_constructed_subspace():
    spec = ProblemSpec(spectrum=(0.3, 0.6, 1.5), seed=1)
    prob = make_pencil_problem(spec, random_b=True)
    result = ab_run(prob.pencil, 1e-9, 100, expected_dim=2)
    assert result.status is SolveStatus.CONVERGED
    assert subspace_distance(result.U, prob.basis) <= 1e-7
    assert result.residual <= 1e-8
    eig = np.linalg.eigvals(result.Lambda)
    assert sorted(np.abs(eig)) == pytest.approx([0.3, 0.6], abs=1e-7)


def _f_pencil(n, rng):
    """An F_pencil draw: cond 10, random B, n/2 stable moduli 0.9*U(0,1),
    the rest 1.1 + 2*U(0,1), arguments uniform."""
    m = n // 2
    moduli = np.concatenate([0.9 * rng.random(m), 1.1 + 2.0 * rng.random(n - m)])
    spec = ProblemSpec(tuple(moduli * np.exp(2j * np.pi * rng.random(n))),
                       cond=10.0, seed=int(rng.integers(2 ** 32)))
    return make_pencil_problem(spec, random_b=True)


@pytest.mark.parametrize("n", [6, 10, 16, 24, 32, 48])
def test_extraction_converges_to_the_known_basis_on_f_pencil(n):
    """Plain and order-r runs with ``expected_dim``, and plain runs on the
    threshold rank, reach the generator's basis to 1e-10 through the
    pivoted-QR extraction."""
    prob = _f_pencil(n, np.random.default_rng([7, n]))
    m = prob.basis.dim
    results = [ab_run(prob.pencil, 1e-12, 500, expected_dim=m),
               ab_run(prob.pencil, 1e-12, 500)]
    for r in (2, 3, 4, 7):
        cfg = AccelConfig(order=r, tol=1e-12, kmax=60, expected_dim=m)
        results.append(modified_ab_run(prob.pencil, cfg))
    for res in results:
        assert res.status is SolveStatus.CONVERGED
        assert subspace_distance(res.U, prob.basis) <= 1e-10


def test_ab_run_max_iterations_status():
    p = Pencil(np.diag([0.5 + 0j, 2.0]), np.eye(2, dtype=complex))
    result = ab_run(p, 1e-8, kmax=5)
    assert result.status is SolveStatus.MAX_ITERATIONS
    assert result.iterations == 5


@pytest.mark.parametrize("order, max_steps", [(1, 40), (2, 8)])
def test_threshold_mode_returns_an_all_stable_space(order, max_steps):
    # the rank cutoff sits on the scale of A_1 - B_1, so it reaches rank 0
    # once every direction of A_k has decayed (a cutoff relative to A_k
    # alone stopped at dimension 2 after 148 plain or 10 order-2 steps)
    spec = ProblemSpec((0.5, 0.3 + 0.2j, -0.6), cond=5, seed=1)
    prob = make_pencil_problem(spec, random_b=True)
    result = modified_ab_run(prob.pencil, AccelConfig(order, 1e-12, 200))
    assert result.status is SolveStatus.CONVERGED
    assert result.U.dim == 3
    assert result.iterations <= max_steps
    assert subspace_distance(result.U, prob.basis) <= 1e-12


def test_threshold_mode_all_unstable_keeps_the_empty_basis():
    # no stop for an empty threshold basis yet: the run reaches kmax
    spec = ProblemSpec((2.0, -1.5, 3j), cond=5, seed=1)
    prob = make_pencil_problem(spec, random_b=True)
    result = ab_run(prob.pencil, 1e-12, 50)
    assert (result.status, result.iterations) == (SolveStatus.MAX_ITERATIONS, 50)
    assert result.U.dim == 0 and result.residual == 0.0


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e-200, 1e-300])
def test_threshold_mode_on_scaled_pencils(scale):
    # row norms and the residual square the pencil's entries; taken on a
    # power-of-two rescaling they neither overflow (a NaN rank cutoff at
    # 1e155) nor lose range, and match the unscaled run step for step; at
    # 1e-300 the residual's entries are subnormal and 2**-e must stay finite
    diag = Pencil(scale * np.diag([0.5 + 0j, 2.0]),
                  scale * np.eye(2, dtype=complex))
    result = ab_run(diag, 1e-12, 100)
    assert (result.status, result.iterations, result.U.dim) == (
        SolveStatus.CONVERGED, 27, 1)
    spec = ProblemSpec((0.3, 0.6 + 0.2j, -0.5, 1.5, 2.5, -3.0), seed=1)
    prob = make_pencil_problem(spec, random_b=True)
    ref = ab_run(prob.pencil, 1e-12, 200)
    result = ab_run(Pencil(scale * prob.pencil.A, scale * prob.pencil.B),
                    1e-12, 200)
    assert (result.status, result.iterations, result.U.dim) == (
        SolveStatus.CONVERGED, ref.iterations, 3)
    assert subspace_distance(result.U, prob.basis) <= 1e-11
    assert 0.0 < result.residual <= 1e-10 * scale


def test_ab_run_rejects_bad_parameters():
    p = Pencil(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        ab_run(p, 0.0, 10)
    with pytest.raises(ValueError, match="kmax"):
        ab_run(p, 1e-8, 0)
    for bad in (float("nan"), -float("inf")):
        with pytest.raises(ValueError, match="tol"):
            ab_run(p, bad, 10)


@pytest.mark.parametrize("make, message", [
    (lambda: Pencil(np.eye(2), np.eye(3)), "A is .* but B is"),
    (lambda: Pencil(np.ones(2), np.ones(2)), "A must be 2-D"),
    (lambda: Pencil(np.ones((2, 2, 2)), np.ones((2, 2, 2))), "A must be 2-D"),
    (lambda: AccelConfig(2, 1e-10, 10, expected_dim=-1),
     "^expected_dim must be at least 0, got -1$"),
    (lambda: breakdown_check([-1.0], 0), "kmax must be at least 1"),
    (lambda: Pencil(np.diag([1.0, math.nan]), np.eye(2)),
     "^A contains non-finite entries$"),
    (lambda: Pencil(np.eye(2), np.diag([math.inf, 1.0])),
     "^B contains non-finite entries$"),
    (lambda: SqrtProblem(np.diag([4.0, math.nan])),
     "^S contains non-finite entries$"),
    (lambda: SqrtProblem(np.diag([4.0, -math.inf])),
     "^S contains non-finite entries$"),
    (lambda: SubspaceBasis(np.array([[1.0], [math.nan]])),
     "^basis contains non-finite entries$"),
    (lambda: SubspaceBasis(np.array([[math.inf], [0.0]])),
     "^basis contains non-finite entries$"),
    (lambda: inner_chain(np.eye(2), np.eye(2), 1),
     "^order must be at least 2, got 1$"),
    (lambda: random_unitary(-1, np.random.default_rng(0)),
     "^n must be at least 0, got -1$"),
    (lambda: ConvergenceTrace((-1,), (0.1,), (0.0,), (0.0,)),
     "^step must be at least 0, got -1$"),
], ids=["shapes-differ", "1-d", "3-d", "negative-dim", "kmax-0", "A-nan",
        "B-inf", "S-nan", "S-inf", "basis-nan", "basis-inf",
        "inner-chain-order-1", "random-unitary-n", "trace-step"])
def test_entry_checks_reject(make, message):
    with pytest.raises(ValueError, match=message):
        make()


_SUBNORMAL = Pencil(1e-310 * np.diag([0.5 + 0j, 0.25]), 1e-310 * np.eye(2))


@pytest.mark.parametrize("run", [
    lambda: ab_run(_SUBNORMAL, 1e-12, 100),
    lambda: ab_run(_SUBNORMAL, 1e-12, 100, expected_dim=2),
    lambda: modified_ab_run(_SUBNORMAL, AccelConfig(2, 1e-12, 100)),
], ids=["threshold", "expected-dim", "order-2"])
def test_non_finite_element_is_reported_where_it_is_made(run):
    """The subnormal pivots of A_1 + B_1 pass the relative cutoff and the
    solve returns NaN; ``combine`` names element 2, also when the
    extraction (``expected_dim = n``) never reads it."""
    with pytest.raises(ValueError, match="^chain element 2 is not finite$"):
        run()


def test_overflowing_sum_is_not_a_breakdown():
    huge = Pencil(np.diag([1e308 + 0j, 1.0]), np.diag([1e308 + 0j, 1.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        ab_run(huge, 1e-12, 10)
