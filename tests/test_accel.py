"""Accelerated iteration: inner chains, outer identity, decay bounds."""

import numpy as np
import pytest

from abflow import (
    AccelConfig,
    Pencil,
    SolveStatus,
    ab_run,
    modified_ab_run,
    subspace_distance,
)
from abflow.accel import inner_chain
from abflow.lab import ProblemSpec, make_pencil_problem, random_unitary
from abflow.linalg import lu_factor

from oracles import induced_norm2
from util import chain, rel_err, scalar_pencil, stable_pencil


def test_config_validation():
    AccelConfig(order=2, tol=1e-10, kmax=10)
    AccelConfig(order=1, tol=1e-10, kmax=10)    # the plain chain
    with pytest.raises(ValueError):
        AccelConfig(order=0, tol=1e-10, kmax=10)
    with pytest.raises(ValueError):
        AccelConfig(order=17, tol=1e-10, kmax=10)
    with pytest.raises(ValueError):
        AccelConfig(order=2, tol=0.0, kmax=10)
    with pytest.raises(ValueError, match="kmax"):
        AccelConfig(order=2, tol=1e-10, kmax=0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="tol"):
            AccelConfig(order=2, tol=bad, kmax=10)


@pytest.mark.parametrize("dim", [None, 2])
def test_order_one_is_the_plain_chain(dim):
    # a converged, a breakdown and a kmax-limited run, in both extraction
    # modes: order 1 returns ab_run's result and observes the ab_step
    # chain, bit for bit
    rng = np.random.default_rng(11)
    Q = random_unitary(4, rng)
    eye = np.eye(4, dtype=complex)
    good = Pencil(Q @ np.diag([0.3, 0.5 + 0.1j, 2.0, -1.5]) @ Q.conj().T, eye)
    cube = Pencil(Q @ np.diag([0.3, 0.5, np.exp(2j * np.pi / 3), 2.0])
                  @ Q.conj().T, eye)
    statuses = []
    for p, kmax in ((good, 100), (cube, 50), (good, 5)):
        runs = []
        for run in (lambda obs: ab_run(p, 1e-12, kmax, dim, obs),
                    lambda obs: modified_ab_run(
                        p, AccelConfig(1, 1e-12, kmax, dim), obs)):
            seen = []
            res = run(lambda it, b: seen.append((it.k, it.A_k.tobytes(),
                                                 it.B_k.tobytes(),
                                                 b.basis.tobytes())))
            runs.append((res.status, res.iterations, res.U.basis.tobytes(),
                         res.Lambda.tobytes(),
                         np.float64(res.residual).tobytes(), seen))
        assert runs[0] == runs[1]
        steps = chain(p, len(runs[0][-1]))
        assert [s[:3] for s in runs[0][-1]] == [
            (it.k, it.A_k.tobytes(), it.B_k.tobytes()) for it in steps]
        statuses.append((runs[0][0], runs[0][1]))
    assert statuses[1:] == [(SolveStatus.BREAKDOWN, 3),
                            (SolveStatus.MAX_ITERATIONS, 5)]
    assert statuses[0][0] is SolveStatus.CONVERGED


def test_inner_chain_order_two_is_identity():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)) + 0j
    B = rng.standard_normal((3, 3)) + 0j
    Ai, Bi = inner_chain(A, B, 2)
    assert Ai is A and Bi is B


def test_inner_chain_scalar_order_three():
    Ai, Bi = inner_chain(np.array([[0.5 + 0j]]), np.array([[1.0 + 0j]]), 3)
    assert Ai[0, 0] == pytest.approx(1 / 6, abs=1e-12)
    assert Bi[0, 0] == pytest.approx(2 / 3, abs=1e-12)


def test_inner_chain_diagonal_eigenvalue_powers():
    a = np.array([0.5, -0.3 + 0.2j, 0.7j])
    A = np.diag(a)
    B = np.eye(3, dtype=complex)
    for order in (3, 4, 5):
        Ai, Bi = inner_chain(A, B, order)
        # final inner pair is chain element order-1: eigenvalues a**(order-1)
        assert np.allclose(np.diag(Ai) / np.diag(Bi), a ** (order - 1), atol=1e-11)


def test_inner_chain_difference_invariant():
    p = stable_pencil(90, n=5)
    d0 = p.A - p.B
    A_cur, B_cur = p.A, p.B
    for _ in range(1, 5):
        f = lu_factor(A_cur + p.B)
        A_cur = A_cur @ f.solve(p.A)
        B_cur = p.B @ f.solve(B_cur)
        assert np.linalg.norm((A_cur - B_cur) - d0, "fro") <= 1e-10 * (
            np.linalg.norm(p.A, "fro") + np.linalg.norm(p.B, "fro"))


def test_outer_iterates_match_plain_chain():
    for seed, order in [(1, 2), (2, 3), (3, 4)]:
        p = stable_pencil(seed, n=5)
        plain = chain(p, 27 if order == 3 else (16 if order == 2 else 16))
        outer = []
        cfg = AccelConfig(order=order, tol=1e-300, kmax=6)
        modified_ab_run(p, cfg, observer=lambda it, b: outer.append(it))
        for it in outer:
            if it.k <= len(plain):
                ref = plain[it.k - 1]
                assert rel_err(it.A_k, ref.A_k) <= 1e-8
                assert rel_err(it.B_k, ref.B_k) <= 1e-8
                d0 = p.A - p.B
                assert np.linalg.norm((it.A_k - it.B_k) - d0, "fro") <= 1e-10 * (
                    np.linalg.norm(p.A, "fro") + np.linalg.norm(p.B, "fro"))


def test_scalar_order_three_second_outer_value():
    p = scalar_pencil(0.5, 1.0)
    outer = []
    cfg = AccelConfig(order=3, tol=1e-300, kmax=2)
    modified_ab_run(p, cfg, observer=lambda it, b: outer.append(it))
    assert outer[-1].k == 3
    assert outer[-1].A_k[0, 0] / outer[-1].B_k[0, 0] == pytest.approx(0.125, abs=1e-12)


def test_modified_run_matches_plain_run_result():
    p = Pencil(np.diag([0.5 + 0j, 2.0]), np.eye(2, dtype=complex))
    plain = ab_run(p, 1e-8, 100)
    cfg = AccelConfig(order=2, tol=1e-8, kmax=20)
    fast = modified_ab_run(p, cfg)
    assert fast.status is SolveStatus.CONVERGED
    assert fast.iterations <= np.ceil(np.log2(plain.iterations)) + 2
    assert subspace_distance(fast.U, plain.U) <= 1e-9
    assert abs(fast.Lambda[0, 0] - plain.Lambda[0, 0]) <= 1e-9


def test_zero_pencil_converges_first_outer_step():
    p = Pencil(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))
    for order in (2, 3, 5):
        cfg = AccelConfig(order=order, tol=1e-8, kmax=10)
        result = modified_ab_run(p, cfg)
        assert result.status is SolveStatus.CONVERGED
        assert result.iterations == 2
        assert result.U.dim == 2


def test_residual_decay_bound():
    # ||Ahat_k U|| <= ||(B1-A1)U|| * ||Lam||^(r^(k-1)) / (1 - ||Lam||^(r^(k-1)))
    rng = np.random.default_rng(7)
    for order in (2, 3):
        n = 5
        lam = np.concatenate([0.2 + 0.6 * rng.random(3), 1.5 + rng.random(2)])
        Q = random_unitary(n, rng)
        A = Q @ np.diag(lam.astype(complex)) @ Q.conj().T
        p = Pencil(A, np.eye(n, dtype=complex))
        U = Q[:, :3]
        nrm = induced_norm2((p.B - p.A) @ U)
        lam_norm = float(np.max(np.abs(lam[:3])))
        assert lam_norm <= 0.8
        outer = []
        cfg = AccelConfig(order=order, tol=1e-300, kmax=4)
        modified_ab_run(p, cfg, observer=lambda it, b: outer.append(it))
        for it in outer[1:]:
            power = lam_norm ** it.k
            bound = nrm * power / (1.0 - power)
            assert induced_norm2(it.A_k @ U) <= bound * (1 + 1e-9) + 1e-14


@pytest.mark.parametrize("order, p, expected", [
    (2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2),
    (4, 3, 3), (5, 3, 3), (3, 6, 6),
], ids=["r2-p2", "r3-p2", "r4-p2", "r5-p2", "r4-p3", "r5-p3", "r3-p6"])
def test_breakdown_reports_plain_index(order, p, expected):
    # eigenvalue exp(2 pi i / p): the element that fails is the first
    # multiple of p the run produces
    rng = np.random.default_rng(8)
    Q = random_unitary(3, rng)
    A = Q @ np.diag([np.exp(2j * np.pi / p), 0.3, 0.4]) @ Q.conj().T
    pencil = Pencil(A, np.eye(3, dtype=complex))
    assert ab_run(pencil, 1e-10, 50).iterations == expected
    cfg = AccelConfig(order=order, tol=1e-10, kmax=10)
    result = modified_ab_run(pencil, cfg)
    assert result.status is SolveStatus.BREAKDOWN
    assert result.iterations == expected


@pytest.mark.parametrize("order", [None, 2])
def test_empty_expected_subspace_converges_at_once(order):
    # expected_dim=0 on a 2x2 pencil; threshold mode on the empty pencil,
    # whose empty basis is the whole space
    for n, dim in ((2, 0), (0, None)):
        p = Pencil(np.diag(np.array([2.0 + 0j, 3.0])[:n]),
                   np.eye(n, dtype=complex))
        if order is None:
            result = ab_run(p, 1e-12, 100, expected_dim=dim)
        else:
            cfg = AccelConfig(order=order, tol=1e-12, kmax=100,
                              expected_dim=dim)
            result = modified_ab_run(p, cfg)
        assert result.status is SolveStatus.CONVERGED
        assert result.iterations == 2
        assert result.U.dim == 0 and result.U.basis.shape == (n, 0)
        assert result.residual == 0.0


def test_accelerated_recovery_quality():
    spec = ProblemSpec(spectrum=(0.3, 0.6, 1.5, 2.5), seed=4)
    prob = make_pencil_problem(spec, random_b=True)
    for order in (2, 3):
        cfg = AccelConfig(order=order, tol=1e-10, kmax=12, expected_dim=2)
        result = modified_ab_run(prob.pencil, cfg)
        assert result.status is SolveStatus.CONVERGED
        assert subspace_distance(result.U, prob.basis) <= 1e-7
        assert result.residual <= 1e-9
