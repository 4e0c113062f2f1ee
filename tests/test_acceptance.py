"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Tolerances are pinned here and must not be loosened; every expected value
is either trivial, derived from an independent oracle, or a bound with
explicit constants checked directly.
"""

import cmath
import csv
import json
import math

import numpy as np
import pytest

from abflow import (
    AccelConfig,
    Pencil,
    SolveStatus,
    SqrtProblem,
    ab_run,
    breakdown_check,
    gamma_heuristic,
    modified_ab_run,
    sqrtm_ab,
    subspace_distance,
)
from abflow.lab import (
    ProblemSpec,
    SpectrumEntry,
    conditioned_similarity,
    make_known_sqrt_problem,
    random_unitary,
    run_experiment,
)
from abflow.linalg import EPS
from abflow.pencil import ABIterate, ab_step, combine
from abflow.sqrtm import accelerated_step

from oracles import (
    binomial_step,
    cayley_factor,
    cayley_residual,
    closed_form_iterate,
    eigenvalue_map,
    embed_pencil,
    newton_step,
)
from util import chain, q_chain, rel_err, stable_pencil


def report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed {detail}"


def test_criterion_01_flow_property():
    worst = 0.0
    for seed in range(20):
        p = stable_pencil(seed)
        its = chain(p, 12)
        for i in range(1, 12):
            for j in range(1, 12 - i + 1):
                merged = combine(its[i - 1], its[j - 1])
                ref = its[i + j - 1]
                worst = max(worst, rel_err(merged.A_k, ref.A_k),
                            rel_err(merged.B_k, ref.B_k))
    report(1, "flow property", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_02_closed_form_oracle():
    worst = 0.0
    for seed in range(20):
        p = stable_pencil(seed, random_b=False)
        for it in chain(p, 10)[1:]:
            oracle = closed_form_iterate(p.A, it.k)
            worst = max(worst, rel_err(it.A_k, oracle.A_k),
                        rel_err(it.B_k, oracle.B_k))
    report(2, "closed-form oracle", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_03_difference_invariant():
    worst = 0.0
    for seed in range(20):
        for random_b in (True, False):
            p = stable_pencil(seed, random_b=random_b)
            d0 = p.A - p.B
            scale = np.linalg.norm(p.A, "fro") + np.linalg.norm(p.B, "fro")
            for it in chain(p, 12 if random_b else 10):
                dev = np.linalg.norm((it.A_k - it.B_k) - d0, "fro") / scale
                worst = max(worst, dev)
    report(3, "difference invariant", worst <= 1e-10,
           f"worst scaled dev {worst:.2e}")


def test_criterion_04_acceleration_identity():
    worst = 0.0
    for seed in range(5):
        p = stable_pencil(seed, n=6)
        plain = chain(p, 27)
        for order in (2, 3, 4):
            outer = []
            kmax = {2: 5, 3: 4, 4: 3}[order]
            cfg = AccelConfig(order=order, tol=1e-300, kmax=kmax)
            modified_ab_run(p, cfg, observer=lambda it, b: outer.append(it))
            for it in outer:
                assert it.k <= 27
                ref = plain[it.k - 1]
                worst = max(worst, rel_err(it.A_k, ref.A_k),
                            rel_err(it.B_k, ref.B_k))
    report(4, "acceleration identity", worst <= 1e-8,
           f"worst rel err {worst:.2e}")


def test_criterion_05_eigenvalue_transport():
    worst = 0.0
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        radius = np.where(rng.random(n) < 0.5,
                          0.2 + 0.6 * rng.random(n),
                          1.2 + 1.0 * rng.random(n))
        lam = radius * np.exp(2j * np.pi * rng.random(n))
        p = Pencil(np.diag(lam), np.eye(n, dtype=complex))
        its = chain(p, 6)
        for it in its:
            for j in range(n):
                got = it.A_k[j, j] / it.B_k[j, j]
                worst = max(worst, abs(got - lam[j] ** it.k))
        for i in range(1, 7):
            for k in range(1, 7):
                for j in range(n):
                    got = its[i - 1].A_k[j, j] / its[k - 1].B_k[j, j]
                    worst = max(worst, abs(got - eigenvalue_map(lam[j], i, k)))
    report(5, "eigenvalue transport", worst <= 1e-9, f"worst abs err {worst:.2e}")


def test_criterion_06_breakdown_prediction():
    ok = True
    details = []
    for case in range(10):
        rng = np.random.default_rng(600 + case)
        target = -1.0 + 0j if case % 2 == 0 else cmath.exp(2j * math.pi / 3)
        n = int(rng.integers(3, 9))
        lam = np.concatenate([[target],
                              0.7 * rng.random(n - 1)
                              * np.exp(2j * np.pi * rng.random(n - 1))])
        Q = random_unitary(n, rng)
        A = Q @ np.diag(lam) @ Q.conj().T
        p = Pencil(A, np.eye(n, dtype=complex))
        predicted = breakdown_check(lam, 20)
        result = ab_run(p, 1e-9, 50)
        hit = (result.status is SolveStatus.BREAKDOWN
               and result.iterations == predicted + 1)
        ok = ok and hit
        details.append(f"case{case}:k={result.iterations}/pred={predicted + 1}")
    report(6, "breakdown prediction", ok, " ".join(details[:3]) + " ...")


def _cplus_problem(seed):
    """Problem with right-half-plane spectrum and matrix condition <= 1e3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    cond = float([1.0, 10.0, 100.0, 1000.0][seed % 4])
    lam = 0.8 + 3.2 * rng.random(n) + 1j * (rng.random(n) - 0.5)
    while True:
        spec = ProblemSpec(spectrum=tuple(lam), cond=cond, seed=seed)
        S, X = make_known_sqrt_problem(spec)
        if max(np.linalg.cond(X), np.linalg.cond(S)) <= 1e3:
            break
        cond /= 10.0  # similarity knob compounded past the class bound
    roots = np.abs(np.sqrt(lam))
    gamma = gamma_heuristic((float(roots.min()), float(roots.max())))
    return S, X, gamma


def test_criterion_07_square_root_correctness():
    worst_err = worst_res = 0.0
    for seed in range(20):
        S, X, gamma = _cplus_problem(700 + seed)
        for order in (2, 3):
            res = sqrtm_ab(SqrtProblem(S, gamma=gamma, order=order,
                                       tol=1e-12, kmax=60))
            assert res.status is not SolveStatus.BREAKDOWN
            worst_err = max(worst_err, rel_err(res.X, X))
            worst_res = max(worst_res, res.residual)
    report(7, "square-root correctness",
           worst_err <= 1e-9 and worst_res <= 1e-10,
           f"worst X err {worst_err:.2e}, worst residual {worst_res:.2e}")


def test_criterion_08_convergence_orders():
    ok = True
    details = []
    for seed in (7, 8, 9):
        spec = ProblemSpec(spectrum=(2.0, 3.0), seed=seed)
        t2 = run_experiment("sqrt", spec, order=2, kmax=20)
        t3 = run_experiment("sqrt", spec, order=3, kmax=20)
        t1 = run_experiment("sqrt", spec, order=1, kmax=30)
        o2, o3, o1 = t2.orders[-1], t3.orders[-1], t1.orders[-1]
        ok = ok and 1.8 <= o2 <= 2.2 and 2.6 <= o3 <= 3.4 and abs(o1 - 1.0) <= 0.1
        details.append(f"seed{seed}: r2={o2:.2f} r3={o3:.2f} plain={o1:.2f}")
    report(8, "convergence orders", ok, "; ".join(details))


def test_criterion_09_newton_equivalence():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 7))
        lam = 1.0 + 3.0 * rng.random(n) + 1j * (rng.random(n) - 0.5)
        U = random_unitary(n, rng)
        X = U @ np.diag(np.sqrt(lam)) @ U.conj().T
        S = X @ X
        iterates = []
        sqrtm_ab(SqrtProblem(S, gamma=1.0, order=2, tol=1e-13, kmax=12),
                 observer=lambda k, Q: iterates.append(Q))
        newton = np.eye(n, dtype=complex)
        for Q in iterates[1:]:
            newton = newton_step(newton, S)
            worst = max(worst, rel_err(Q, newton))
    report(9, "Newton equivalence", worst <= 1e-11, f"worst rel err {worst:.2e}")


def test_criterion_10_binomial_oracle():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 6))
        lam = 0.8 + 3.0 * rng.random(n) + 1j * (rng.random(n) - 0.5)
        U = random_unitary(n, rng)
        X = U @ np.diag(np.sqrt(lam)) @ U.conj().T
        S = X @ X
        for order in (2, 3, 4, 5):
            Qhat = np.eye(n, dtype=complex)
            for _ in range(4):
                stepped = accelerated_step(Qhat, S, order)
                collapsed = binomial_step(Qhat, S, order)
                worst = max(worst, rel_err(collapsed, stepped))
                Qhat = stepped
    report(10, "binomial-form oracle", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_11_cayley_identities():
    worst_closed = 0.0
    for seed, cond in [(11, 1.0), (12, 20.0)]:
        rng = np.random.default_rng(seed)
        n = 4
        lam = 0.8 + 2.5 * rng.random(n) + 1j * (rng.random(n) - 0.5)
        P = conditioned_similarity(n, cond, rng)
        X = np.linalg.solve(P.T, (P @ np.diag(np.sqrt(lam))).T).T
        S = X @ X
        gamma = 1.2
        C = cayley_factor(X, gamma)
        eye = np.eye(n)
        qs = q_chain(S, gamma, 20)
        for k in range(1, 21):
            Ck = np.linalg.matrix_power(C, k)
            closed = X @ (eye + Ck) @ np.linalg.inv(eye - Ck)
            worst_closed = max(worst_closed, rel_err(qs[k - 1], closed))

    worst_power = 0.0
    S = np.diag([4.0 + 0j, 2.0 + 1.0j, 9.0])
    X = np.diag(np.sqrt(np.diag(S)))
    qs = q_chain(S, 1.0, 7)
    for i in (1, 2, 3):
        for j in (1, 2, 4, 6):
            lhs = cayley_residual(qs[i - 1], X) ** j
            rhs = cayley_residual(qs[j - 1], X) ** i
            worst_power = max(worst_power, abs(lhs - rhs) / max(rhs, 1e-300))
    ok = worst_closed <= 1e-8 and worst_power <= 1e-8
    report(11, "Cayley identities", ok,
           f"closed-form {worst_closed:.2e}, power relation {worst_power:.2e}")


def test_criterion_12_singular_case():
    ok = True
    details = []
    for seed in (3, 4):
        spec = ProblemSpec(spectrum=(SpectrumEntry(0.0), 1.0), seed=seed)
        S, X = make_known_sqrt_problem(spec)
        for order, steps in [(2, 9), (3, 7)]:
            Q = np.eye(2, dtype=complex)
            errs = [np.linalg.norm(Q - X, "fro")]
            for _ in range(steps):
                Q = accelerated_step(Q, S, order)
                errs.append(np.linalg.norm(Q - X, "fro"))
            ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
            hit = all(abs(r - 1 / order) <= 0.2 / order for r in ratios[-3:])
            ok = ok and hit
            details.append(f"s{seed} r{order}: ratio {ratios[-1]:.3f}")
        # plain chain: ratios climb toward 1 (sublinear)
        qs = q_chain(S, 1.0, 25)
        errs = [np.linalg.norm(q - X, "fro") for q in qs]
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
        ok = ok and ratios[-1] >= 0.9 and ratios[-1] <= 1.0 + 1e-9
        ok = ok and all(b >= a - 1e-9 for a, b in zip(ratios[-5:], ratios[-4:]))
        details.append(f"s{seed} plain: ratio {ratios[-1]:.3f}")
    report(12, "singular case", ok, "; ".join(details))


def test_criterion_13_block_structure():
    worst_off = worst_diag = 0.0
    rng = np.random.default_rng(13)
    for n, gamma in [(1, 1.0), (2, 1.3), (3, 0.9), (4, 1.0)]:
        lam = 0.8 + 2.0 * rng.random(n) + 1j * (rng.random(n) - 0.5)
        U = random_unitary(n, rng)
        X = U @ np.diag(np.sqrt(lam)) @ U.conj().T
        S = X @ X
        p = embed_pencil(S, gamma)
        qs = q_chain(S, gamma, 8)
        it = ABIterate(p.A, p.B, 1)
        eye = np.eye(n)
        for k in range(2, 9):
            it = ab_step(p, it)
            A, B = it.A_k, it.B_k
            worst_off = max(
                worst_off,
                np.linalg.norm(A[:n, n:] + eye, "fro"),
                np.linalg.norm(B[:n, n:] - eye, "fro"),
                np.linalg.norm(A[n:, :n] + S, "fro"),
                np.linalg.norm(B[n:, :n] - S, "fro"))
            for blk in (A[:n, :n], A[n:, n:], B[:n, :n], B[n:, n:]):
                worst_diag = max(worst_diag, rel_err(blk, qs[k - 1]))
    ok = worst_off <= 1e-10 and worst_diag <= 1e-9
    report(13, "block structure", ok,
           f"off-diag {worst_off:.2e}, diag vs chain {worst_diag:.2e}")


def test_criterion_14_cli_end_to_end(tmp_path):
    from abflow.cli import main, parse_matrix_file, write_matrix_json

    ok = True
    details = []

    diag49 = tmp_path / "diag49.txt"
    diag49.write_text("4 0\n0 9\n")
    out = tmp_path / "X.json"
    code = main(["sqrt", "--input", str(diag49), "--order", "2",
                 "--out", str(out)])
    X = parse_matrix_file(str(out))
    hit = code == 0 and np.allclose(X, np.diag([2.0, 3.0]), atol=1e-10)
    ok = ok and hit
    details.append(f"sqrt exit {code}")

    neg1 = tmp_path / "neg1.txt"
    neg1.write_text("-1 0\n0 0.5\n")
    ident = tmp_path / "id.txt"
    ident.write_text("1 0\n0 1\n")
    code = main(["pencil", "--a", str(neg1), "--b", str(ident),
                 "--out", str(tmp_path / "U.json")])
    ok = ok and code == 2
    details.append(f"pencil exit {code}")

    out_dir = tmp_path / "D"
    code = main(["bench", "--kind", "sqrt", "--spectrum", "2,3",
                 "--orders", "2", "--seed", "7", "--out-dir", str(out_dir)])
    with open(out_dir / "bench_sqrt_r2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    settled = [float(r["order_estimate"]) for r in rows
               if r["order_estimate"] and float(r["error"]) > 1e2 * EPS]
    hit = code == 0 and settled and 1.8 <= settled[-1] <= 2.2
    ok = ok and hit
    details.append(f"bench exit {code} order {settled[-1]:.2f}")

    rng = np.random.default_rng(14)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rt = tmp_path / "rt.json"
    write_matrix_json(M, rt)
    ok = ok and np.array_equal(parse_matrix_file(str(rt)), M.astype(complex))
    details.append("roundtrip bit-exact")

    report(14, "CLI end-to-end", ok, "; ".join(details))
