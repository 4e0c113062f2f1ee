"""Generators, order estimation, trace emission, experiment drivers."""

import csv
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflow import (
    ConvergenceTrace,
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
from abflow import lab
from abflow.errors import BreakdownError
from abflow.lab import conditioned_similarity
from abflow.sqrtm import SqrtProblem, sqrtm_ab
from abflow.trace import SATURATION_GUARD, atomic_write_text


# ----------------------------- estimate_order -----------------------------

def test_estimate_order_quadratic_pattern():
    got = estimate_order([1e-1, 1e-2, 1e-4, 1e-8])
    assert got == pytest.approx([2.0, 2.0], abs=1e-12)


def test_estimate_order_geometric_is_linear():
    assert estimate_order([1e-1, 1e-2, 1e-3]) == pytest.approx([1.0], abs=1e-12)


def test_estimate_order_cubic_pattern():
    assert estimate_order([1e-1, 1e-3, 1e-9]) == pytest.approx([3.0], abs=1e-12)


def test_estimate_order_skips_flat_and_nonpositive():
    """A flat triple is skipped; a zero, a negative error or one at the
    rounding floor ends the estimates, as in ``ConvergenceTrace.orders``."""
    got = estimate_order([1e-1, 1e-1, 1e-2, 1e-4])
    assert len(got) == 1 and got[0] == pytest.approx(2.0, abs=1e-10)
    assert estimate_order([1e-1, 1e-2, 0.0, 1e-4, 1e-5, 1e-7]) == []
    assert estimate_order([1e-1, 1e-2, 1e-3, -1e-4, 1e-5]) == \
        pytest.approx([1.0], abs=1e-12)
    floored = [1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-17]
    assert estimate_order(floored) == pytest.approx([2.0, 2.0], abs=1e-12)
    tr = ConvergenceTrace(range(6), floored, [0.0] * 6, [0.0] * 6)
    assert estimate_order(floored) == list(tr.orders)


def test_estimate_order_insufficient_data():
    """Fewer than three usable errors give no estimate, not an error."""
    assert estimate_order([1e-1, 1e-2]) == []
    assert estimate_order([1e-1, 0.0, 0.0]) == []
    assert estimate_order([]) == []


# ----------------------------- trace container and files -----------------------------

def _toy_trace():
    return ConvergenceTrace(steps=(1, 2, 3, 4),
                            errors=(1e-1, 1e-2, 1e-4, 1e-8),
                            residuals=(1e-2, 1e-3, 1e-5, 1e-9),
                            seconds=(0.0, 0.1, 0.1, 0.1),
                            status="converged")


def test_trace_validates_lengths():
    with pytest.raises(ValueError):
        ConvergenceTrace((1, 2), (0.1,), (0.1, 0.2), (0.0, 0.0))
    with pytest.raises(ValueError):
        ConvergenceTrace((1,), (-0.5,), (0.1,), (0.0,))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=1e-300, max_value=1e3), max_size=12))
def test_trace_orders_are_the_presaturation_estimates(errors):
    """``orders`` is derived from ``errors``: ``estimate_order`` of the
    errors before the first one at or below ``SATURATION_GUARD``, or
    empty when fewer than three come before it."""
    tr = ConvergenceTrace(range(len(errors)), errors, [0.0] * len(errors),
                          [0.0] * len(errors))
    pre = list(itertools.takewhile(lambda e: e > SATURATION_GUARD, errors))
    assert tr.orders == (tuple(estimate_order(pre)) if len(pre) >= 3 else ())


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


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "t.csv", None)     # write() needs a str
    assert list(tmp_path.iterdir()) == []


def test_trace_json_has_header_and_steps(tmp_path):
    path = tmp_path / "trace.json"
    write_trace_json(_toy_trace(), path, header={"kind": "sqrt", "order": 2})
    doc = json.loads(path.read_text())
    assert doc["header"] == {"kind": "sqrt", "order": 2}
    assert doc["status"] == "converged"
    assert len(doc["steps"]) == 4
    assert doc["steps"][0]["order_estimate"] is None
    assert doc["steps"][3]["order_estimate"] == pytest.approx(2.0)


def test_non_finite_cells_are_empty_or_null(tmp_path):
    """A NaN or infinite number is written as an empty CSV cell and a JSON
    null, so the JSON loads with a parser that rejects NaN and Infinity."""
    tr = ConvergenceTrace((1, 2, 3), (1e-1, 1e-2, 1e-3),
                          (math.nan, math.inf, -math.inf), (0.0, 0.1, 0.1))
    write_trace_csv(tr, tmp_path / "t.csv")
    write_trace_json(tr, tmp_path / "t.json", header={"kind": "sqrt"})
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["residual"] for r in rows] == ["", "", ""]

    def reject(name):
        raise ValueError(f"{name} in a written trace")

    steps = json.loads((tmp_path / "t.json").read_text(),
                       parse_constant=reject)["steps"]
    assert [s["residual"] for s in steps] == [None, None, None]


def test_an_infinite_error_gives_no_order_estimate(tmp_path):
    """A triple that holds an infinite error gives no order estimate, in
    ``orders``, ``estimate_order`` and both writers alike, and the error
    itself is written as an empty cell and a null."""
    errors = (0.1, math.inf, 1e-3)
    tr = ConvergenceTrace((1, 2, 3), errors, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert tr.orders == ()
    assert estimate_order(list(errors)) == []
    write_trace_csv(tr, tmp_path / "t.csv")
    write_trace_json(tr, tmp_path / "t.json")
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == ["0.1", "", "0.001"]
    assert all(r["order_estimate"] == "" for r in rows)
    steps = json.loads((tmp_path / "t.json").read_text(),
                       parse_constant=lambda name: pytest.fail(name))["steps"]
    assert [s["error"] for s in steps] == [0.1, None, 1e-3]
    assert all(s["order_estimate"] is None for s in steps)


def test_written_order_cells_are_the_trace_orders(tmp_path):
    """Both writers show exactly ``trace.orders``, in order: no estimate
    read off the rounding floor that the trace itself drops."""
    spec = ProblemSpec((2, 3, 5, 7), cond=10, seed=0)
    S, _ = make_known_sqrt_problem(spec)
    traces = [run_experiment("sqrt", spec, order=2, gamma=2.0),
              sqrtm_ab(SqrtProblem(S, gamma=2.0)).trace]
    for tr in traces:
        write_trace_csv(tr, tmp_path / "t.csv")
        write_trace_json(tr, tmp_path / "t.json")
        with open(tmp_path / "t.csv", newline="") as fh:
            cells = [r["order_estimate"] for r in csv.DictReader(fh)]
        assert [float(c) for c in cells if c] == list(tr.orders)
        steps = json.loads((tmp_path / "t.json").read_text())["steps"]
        assert [s["order_estimate"] for s in steps
                if s["order_estimate"] is not None] == list(tr.orders)


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
    with pytest.raises(ValueError, match=r"eigenvalue \(-1\+0j\) lies outside"):
        make_known_sqrt_problem(ProblemSpec(spectrum=(-1.0, 2.0)))
    with pytest.raises(ValueError, match=r"eigenvalue 1j lies outside"):
        make_known_sqrt_problem(ProblemSpec(spectrum=(1j, 2.0)))
    with pytest.raises(ValueError, match="zero eigenvalues must be semisimple"):
        make_known_sqrt_problem(ProblemSpec(spectrum=(SpectrumEntry(0.0, semisimple=False), 1.0)))


@pytest.mark.parametrize("make, message", [
    (lambda: SpectrumEntry(2.0, multiplicity=0),
     "^multiplicity must be at least 1, got 0$"),
    (lambda: ProblemSpec(()), "spectrum must be nonempty"),
    (lambda: ProblemSpec((2.0,), cond=0.5), "cond must be at least 1"),
    (lambda: conditioned_similarity(3, 0.5, np.random.default_rng(0)),
     "cond must be at least 1"),
], ids=["multiplicity-0", "empty-spectrum", "spec-cond", "similarity-cond"])
def test_generator_inputs_are_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: SpectrumEntry(math.nan), "eigenvalue .* is not finite"),
    (lambda: ProblemSpec((math.nan, 2.0)), "eigenvalue .* is not finite"),
    (lambda: ProblemSpec((complex(2.0, math.inf),)), "eigenvalue .* is not finite"),
    (lambda: SpectrumEntry(2.0, multiplicity=2.0), "multiplicity must be an integer"),
    (lambda: ProblemSpec((2.0,), seed=1.5), "seed must be an integer"),
    (lambda: ProblemSpec((2.0,), seed=-1), "^seed must be at least 0, got -1$"),
    (lambda: ProblemSpec((2.0,), cond=math.nan), "cond must be at least 1 and finite"),
    (lambda: ProblemSpec((2.0,), cond=math.inf), "cond must be at least 1 and finite"),
    (lambda: conditioned_similarity(3, math.nan, np.random.default_rng(0)),
     "cond must be at least 1 and finite"),
    (lambda: conditioned_similarity(3, math.inf, np.random.default_rng(0)),
     "cond must be at least 1 and finite"),
], ids=["value-nan", "spec-value-nan", "value-inf", "multiplicity-float",
        "seed-float", "seed-negative", "spec-cond-nan", "spec-cond-inf",
        "similarity-cond-nan", "similarity-cond-inf"])
def test_generator_inputs_are_checked_where_they_enter(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_generator_inputs_accept_numpy_integers():
    spec = ProblemSpec((SpectrumEntry(2.0, np.int64(2)), 3.0), seed=np.int32(4))
    S, X = make_known_sqrt_problem(spec)
    assert S.shape == (3, 3) and np.all(np.isfinite(X))


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
    with pytest.raises(ValueError, match="is not a root of unity"):
        make_pencil_problem(ProblemSpec(spectrum=(z, 0.5)))


def test_pencil_generator_self_check_rejects_a_wrong_similarity(monkeypatch):
    """A similarity ``P D P^-1`` off by 1e-3 fails the generator's own
    check of ``A U = B U Lam``."""
    similar = lab._similar_to_blocks

    def perturbed(*args):
        *head, M = similar(*args)
        return (*head, M + 1e-3)

    monkeypatch.setattr(lab, "_similar_to_blocks", perturbed)
    with pytest.raises(RuntimeError,
                       match="^generator self-check failed: defect "):
        make_pencil_problem(ProblemSpec(spectrum=(0.5, 2.0), seed=0))


def test_generator_determinism():
    spec = ProblemSpec(spectrum=(2.0, 3.0 + 0.5j), cond=50.0, seed=77)
    S1, X1 = make_known_sqrt_problem(spec)
    S2, X2 = make_known_sqrt_problem(spec)
    assert np.array_equal(S1, S2) and np.array_equal(X1, X2)


_FOUR = (0.5, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("make", [make_known_sqrt_problem, make_pencil_problem],
                         ids=["sqrt", "pencil"])
def test_generators_reject_a_numerically_singular_similarity(make):
    with pytest.raises(BreakdownError, match="pivot"):
        make(ProblemSpec(_FOUR, cond=1e16, seed=0))


def test_sqrt_generator_keeps_the_spectrum_or_raises():
    try:
        _, X = make_known_sqrt_problem(ProblemSpec(_FOUR, cond=1e12, seed=0))
    except (BreakdownError, ValueError):
        return
    got = np.sort_complex(np.linalg.eigvals(X))
    assert np.abs(got - np.array(_FOUR)).max() <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_sqrt_generator_cond_bound(seed):
    """Just below the bound on cond the spectrum holds; just above, the
    generator refuses it (the bound is near 8.7e4 for ``_FOUR``)."""
    _, X = make_known_sqrt_problem(ProblemSpec(_FOUR, cond=8e4, seed=seed))
    got = np.sort_complex(np.linalg.eigvals(X))
    assert np.abs(got - np.array(_FOUR)).max() <= 1e-6
    with pytest.raises(ValueError, match="^cond 90000 is too large"):
        make_known_sqrt_problem(ProblemSpec(_FOUR, cond=9e4, seed=seed))


_STABLE_PAIR = (0.5, 0.3 + 0.2j, 1.5, 2.0)


def test_pencil_generator_refuses_a_cond_that_can_move_the_stable_count():
    """At cond 1e10 rounding in ``P D P^-1`` can carry an eigenvalue of
    ``_STABLE_PAIR`` across the unit circle (``eigvals(B^-1 A)`` counted
    one stable eigenvalue on 5 of seeds 0-5), so the generator refuses
    it (the bound is near cond 1.06e5 for this spectrum)."""
    with pytest.raises(ValueError, match=r"^cond 1e\+10 is too large for "
                       r"this spectrum: .* from the unit circle 0\.5$"):
        make_pencil_problem(ProblemSpec(_STABLE_PAIR, cond=1e10, seed=0))


@pytest.mark.parametrize("seed", range(6))
def test_pencil_generator_keeps_the_stable_count_below_the_bound(seed):
    prob = make_pencil_problem(ProblemSpec(_STABLE_PAIR, cond=1e5, seed=seed))
    got = np.sort_complex(np.linalg.eigvals(
        np.linalg.solve(prob.pencil.B, prob.pencil.A)))
    assert prob.basis.dim == np.sum(np.abs(got) < 1) == 2
    assert np.abs(got - np.sort_complex(_STABLE_PAIR)).max() <= 1e-6


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


@pytest.mark.parametrize("order", [1, 2])
def test_sqrt_experiment_residuals_are_the_solver_trace(order):
    spec = ProblemSpec(spectrum=(2.0, 3.0 + 1.0j, 0.7), seed=5)
    gamma, tol, kmax = 1.5, 1e-12, 40
    tr = run_experiment("sqrt", spec, order=order, gamma=gamma, tol=tol,
                        kmax=kmax)
    S, _ = make_known_sqrt_problem(spec)
    solved = sqrtm_ab(SqrtProblem(S, gamma=gamma, order=order, tol=tol,
                                  kmax=kmax))
    assert len(solved.trace.residuals) >= 3
    assert tr.residuals[1:] == solved.trace.residuals      # bit for bit
    Q1 = gamma * np.eye(S.shape[0])
    assert tr.residuals[0] == pytest.approx(
        np.linalg.norm(Q1 @ Q1 - S) / np.linalg.norm(S), rel=1e-14)


def test_sqrt_experiment_forms_each_residual_once(monkeypatch):
    """One ``Q @ Q - S`` per row: rows after element 1 reuse the solver's
    trace instead of forming the residual again."""
    from abflow import lab, sqrtm

    calls, residual_of = [], sqrtm._residual_of

    def counting_residual_of(S):
        residual = residual_of(S)
        return lambda Q: calls.append(None) or residual(Q)

    for module in (lab, sqrtm):
        monkeypatch.setattr(module, "_residual_of", counting_residual_of)
    tr = run_experiment("sqrt", ProblemSpec((2, 3, 0.5 + 0.2j, 7), seed=9),
                        order=2)
    assert len(tr.steps) == 11
    assert len(calls) == len(tr.steps)


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


@pytest.mark.parametrize("kind", ["pencil", "sqrt"])
def test_experiment_seconds_leave_out_the_recording(monkeypatch, kind):
    """The ``seconds`` column times the solver, not the recorder's own
    error and residual work: a recorded true error (pencil) or residual
    (sqrt) that takes 1000 s on a fake clock shows in no entry."""
    import abflow.lab as lab

    class Clock:
        now = 0.0

        def perf_counter(self):
            return self.now

    clock = Clock()

    def slow(f):
        def g(*args):
            clock.now += 1000.0
            return f(*args)
        return g

    monkeypatch.setattr(lab, "time", clock)
    if kind == "pencil":
        monkeypatch.setattr(lab, "subspace_distance", slow(lab.subspace_distance))
    else:
        residual_of = lab._residual_of
        monkeypatch.setattr(lab, "_residual_of", lambda S: slow(residual_of(S)))
    tr = run_experiment(kind, ProblemSpec(spectrum=(0.3, 0.6, 1.5), seed=1),
                        order=2, tol=1e-10, kmax=12)
    assert len(tr.seconds) >= 3
    assert all(s < 1000.0 for s in tr.seconds)


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


@pytest.mark.parametrize("kind", ["sqrt", "pencil"])
@pytest.mark.parametrize("setting", [{"tol": None}, {"kmax": 0}, {"order": 17}],
                         ids=["tol-None", "kmax-0", "order-17"])
def test_experiment_checks_settings_before_generating(monkeypatch, kind,
                                                      setting):
    def generate(*args, **kwargs):
        raise AssertionError("generator called")
    monkeypatch.setattr(lab, "make_known_sqrt_problem", generate)
    monkeypatch.setattr(lab, "make_pencil_problem", generate)
    name, = setting
    with pytest.raises(ValueError, match=f"^{name} must be"):
        run_experiment(kind, ProblemSpec(spectrum=(0.5, 2.0)), **setting)


def test_experiment_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_experiment("nope", ProblemSpec(spectrum=(2.0,)))
