"""Generators, order estimation, trace emission, experiment drivers."""

import csv
import json
import math

import numpy as np
import pytest

from abflow import (
    ConvergenceTrace,
    InsufficientDataError,
    InvalidSpectrumError,
    ProblemSpec,
    SpectrumEntry,
    estimate_order,
    make_known_sqrt_problem,
    make_pencil_problem,
    run_experiment,
    subspace_distance,
    write_trace_csv,
    write_trace_json,
)


# ----------------------------- estimate_order -----------------------------

def test_estimate_order_quadratic_pattern():
    got = estimate_order([1e-1, 1e-2, 1e-4, 1e-8])
    assert got == pytest.approx([2.0, 2.0], abs=1e-12)


def test_estimate_order_geometric_is_linear():
    assert estimate_order([1e-1, 1e-2, 1e-3]) == pytest.approx([1.0], abs=1e-12)


def test_estimate_order_cubic_pattern():
    assert estimate_order([1e-1, 1e-3, 1e-9]) == pytest.approx([3.0], abs=1e-12)


def test_estimate_order_skips_flat_and_nonpositive():
    got = estimate_order([1e-1, 1e-1, 1e-2, 1e-4])
    assert len(got) == 1 and got[0] == pytest.approx(2.0, abs=1e-10)
    got = estimate_order([1e-1, 1e-2, 0.0, 1e-4, 1e-5, 1e-7])
    assert got == pytest.approx([2.0], abs=1e-10)


def test_estimate_order_insufficient_data():
    with pytest.raises(InsufficientDataError):
        estimate_order([1e-1, 1e-2])
    with pytest.raises(InsufficientDataError):
        estimate_order([1e-1, 0.0, 0.0])


# ----------------------------- trace container and files -----------------------------

def _toy_trace():
    return ConvergenceTrace(steps=(1, 2, 3, 4),
                            errors=(1e-1, 1e-2, 1e-4, 1e-8),
                            residuals=(1e-2, 1e-3, 1e-5, 1e-9),
                            orders=(2.0, 2.0),
                            seconds=(0.0, 0.1, 0.1, 0.1),
                            status="converged")


def test_trace_validates_lengths():
    with pytest.raises(ValueError):
        ConvergenceTrace((1, 2), (0.1,), (0.1, 0.2), (), (0.0, 0.0))
    with pytest.raises(ValueError):
        ConvergenceTrace((1, 2), (0.1, 0.2), (0.1, 0.2), (1.0,), (0.0, 0.0))
    with pytest.raises(ValueError):
        ConvergenceTrace((1,), (-0.5,), (0.1,), (), (0.0,))


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(_toy_trace(), path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["step"]) for r in rows] == [1, 2, 3, 4]
    assert float(rows[0]["error"]) == 1e-1
    assert rows[0]["order_estimate"] == "" and rows[1]["order_estimate"] == ""
    assert float(rows[2]["order_estimate"]) == pytest.approx(2.0)
    assert float(rows[3]["order_estimate"]) == pytest.approx(2.0)


def test_trace_json_has_header_and_steps(tmp_path):
    path = tmp_path / "trace.json"
    write_trace_json(_toy_trace(), path, header={"kind": "sqrt", "order": 2})
    doc = json.loads(path.read_text())
    assert doc["header"] == {"kind": "sqrt", "order": 2}
    assert doc["status"] == "converged"
    assert len(doc["steps"]) == 4
    assert doc["steps"][0]["order_estimate"] is None
    assert doc["steps"][3]["order_estimate"] == pytest.approx(2.0)


# ----------------------------- generators -----------------------------

def test_sqrt_generator_self_consistency():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 9))
        lam = 0.5 + 3.0 * rng.random(n) + 1j * (rng.random(n) - 0.5)
        spec = ProblemSpec(spectrum=tuple(lam), cond=float(rng.choice([1.0, 10.0, 100.0])),
                           seed=seed)
        S, X = make_known_sqrt_problem(spec)
        assert np.linalg.norm(X @ X - S, "fro") <= 1e-11 * max(1.0, np.linalg.norm(S, "fro"))
        assert np.all(np.linalg.eigvals(X).real > 0)


def test_sqrt_generator_diagonal_case():
    S, X = make_known_sqrt_problem(ProblemSpec(spectrum=(2.0, 3.0), cond=1.0, seed=0))
    assert sorted(np.abs(np.linalg.eigvals(X))) == pytest.approx([2.0, 3.0], abs=1e-12)
    assert sorted(np.abs(np.linalg.eigvals(S))) == pytest.approx([4.0, 9.0], abs=1e-11)


def test_sqrt_generator_semisimple_zero():
    spec = ProblemSpec(spectrum=(SpectrumEntry(0.0), 1.0), seed=1)
    S, X = make_known_sqrt_problem(spec)
    ev = sorted(np.abs(np.linalg.eigvals(S)))
    assert ev[0] <= 1e-12 and ev[1] == pytest.approx(1.0, abs=1e-10)


def test_sqrt_generator_jordan_block():
    spec = ProblemSpec(spectrum=(SpectrumEntry(2.0, 2, semisimple=False),), seed=2)
    S, X = make_known_sqrt_problem(spec)
    assert np.linalg.norm(X @ X - S, "fro") <= 1e-11 * np.linalg.norm(S, "fro")
    assert np.allclose(np.linalg.eigvals(X), 2.0, atol=1e-6)


def test_sqrt_generator_rejects_bad_spectra():
    with pytest.raises(InvalidSpectrumError):
        make_known_sqrt_problem(ProblemSpec(spectrum=(-1.0, 2.0)))
    with pytest.raises(InvalidSpectrumError):
        make_known_sqrt_problem(ProblemSpec(spectrum=(1j, 2.0)))
    with pytest.raises(InvalidSpectrumError):
        make_known_sqrt_problem(ProblemSpec(spectrum=(SpectrumEntry(0.0, semisimple=False), 1.0)))


def test_pencil_generator_self_consistency():
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        n_s = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 4))
        lam = np.concatenate([
            0.8 * rng.random(n_s) * np.exp(2j * np.pi * rng.random(n_s)),
            (1.2 + rng.random(n_u)) * np.exp(2j * np.pi * rng.random(n_u)),
        ])
        spec = ProblemSpec(spectrum=tuple(lam), seed=seed)
        prob = make_pencil_problem(spec, random_b=bool(seed % 2))
        A, B = prob.pencil.A, prob.pencil.B
        U, Lam = prob.basis.basis, prob.stable_block
        assert prob.basis.dim == n_s
        assert np.linalg.norm(A @ U - B @ U @ Lam, "fro") <= 1e-11 * max(
            1.0, np.linalg.norm(A, "fro"))
        assert np.max(np.abs(np.linalg.eigvals(Lam))) < 1.0
        assert prob.expected_breakdown is None


def test_pencil_generator_trivial_case():
    prob = make_pencil_problem(ProblemSpec(spectrum=(0.5, 2.0), cond=1.0, seed=0))
    assert prob.basis.dim == 1
    assert prob.stable_block[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_pencil_generator_tags_breakdown():
    w = np.exp(2j * np.pi / 3)
    prob = make_pencil_problem(ProblemSpec(spectrum=(w, 0.5), seed=1))
    assert prob.expected_breakdown == 2
    prob = make_pencil_problem(ProblemSpec(spectrum=(-1.0, 0.5), seed=1))
    assert prob.expected_breakdown == 1


def test_pencil_generator_rejects_non_root_of_unity_circle():
    z = np.exp(1j * 0.5)  # modulus one, irrational angle
    with pytest.raises(InvalidSpectrumError):
        make_pencil_problem(ProblemSpec(spectrum=(z, 0.5)))


def test_generator_determinism():
    spec = ProblemSpec(spectrum=(2.0, 3.0 + 0.5j), cond=50.0, seed=77)
    S1, X1 = make_known_sqrt_problem(spec)
    S2, X2 = make_known_sqrt_problem(spec)
    assert np.array_equal(S1, S2) and np.array_equal(X1, X2)


# ----------------------------- run_experiment -----------------------------

def test_sqrt_experiment_order_two_terminal_estimate():
    tr = run_experiment("sqrt", ProblemSpec(spectrum=(2.0, 3.0), seed=7),
                        order=2, kmax=20)
    assert tr.status == "converged"
    assert 1.8 <= tr.orders[-1] <= 2.2


def test_sqrt_experiment_order_three_terminal_estimate():
    tr = run_experiment("sqrt", ProblemSpec(spectrum=(2.0, 3.0), seed=7),
                        order=3, kmax=20)
    assert 2.6 <= tr.orders[-1] <= 3.4


def test_sqrt_experiment_plain_chain_is_linear():
    tr = run_experiment("sqrt", ProblemSpec(spectrum=(2.0, 3.0), seed=7),
                        order=1, kmax=30)
    assert abs(tr.orders[-1] - 1.0) <= 0.1


def test_sqrt_experiment_plain_chain_stops_at_rounding_floor():
    # tol below any reachable difference: only the floor rule can stop it
    tr = run_experiment("sqrt", ProblemSpec(spectrum=(1.0, 1.1), seed=3),
                        order=1, tol=1e-300, kmax=60)
    assert tr.status == "converged"
    assert len(tr.steps) < 60


def test_sqrt_experiment_singular_ratio_half():
    spec = ProblemSpec(spectrum=(SpectrumEntry(0.0), 1.0), seed=3)
    tr = run_experiment("sqrt", spec, order=2, kmax=10, tol=1e-300)
    ratios = [tr.errors[i + 1] / tr.errors[i] for i in range(len(tr.errors) - 1)]
    for r in ratios[-3:]:
        assert abs(r - 0.5) <= 0.1


def test_experiment_errors_positive_until_terminal():
    tr = run_experiment("sqrt", ProblemSpec(spectrum=(2.0, 3.0 + 1.0j), seed=9),
                        order=2, kmax=25)
    assert all(e > 0 for e in tr.errors[:-1])


def test_pencil_experiment_true_error_decays():
    spec = ProblemSpec(spectrum=(0.3, 0.6, 1.5), seed=1)
    tr = run_experiment("pencil", spec, order=1, tol=1e-9, kmax=60)
    assert tr.status == "converged"
    assert tr.errors[-1] <= 1e-8
    assert tr.errors[0] > 1e-3
    # error contraction tracks the slowest stable eigenvalue magnitude
    tail = tr.errors[-6:]
    for a, b in zip(tail, tail[1:]):
        assert b / a == pytest.approx(0.6, abs=0.05)


def test_pencil_experiment_accelerated_matches_status():
    spec = ProblemSpec(spectrum=(0.3, 0.6, 1.5), seed=1)
    tr = run_experiment("pencil", spec, order=2, tol=1e-10, kmax=12)
    assert tr.status == "converged"
    assert tr.errors[-1] <= 1e-9
    # steps carry plain-chain indices 1, 2, 4, 8, ...
    assert tr.steps[:4] == (1, 2, 4, 8)


def test_pencil_experiment_breakdown_partial_trace():
    spec = ProblemSpec(spectrum=(-1.0, 0.5), seed=2)
    tr = run_experiment("pencil", spec, order=1, kmax=20)
    assert tr.status == "breakdown"
    assert len(tr.steps) == 1  # only the initial iterate was observed


def test_experiment_determinism_modulo_walltime():
    spec = ProblemSpec(spectrum=(2.0, 3.0), seed=11)
    t1 = run_experiment("sqrt", spec, order=2, kmax=15)
    t2 = run_experiment("sqrt", spec, order=2, kmax=15)
    assert t1.steps == t2.steps
    assert t1.errors == t2.errors
    assert t1.residuals == t2.residuals
    assert t1.orders == t2.orders


def test_experiment_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_experiment("nope", ProblemSpec(spectrum=(2.0,)))
