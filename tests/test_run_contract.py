"""The run contract both solvers share: what the observer sees, the index
a result reports, the element it returns, and the settings it accepts."""

from fractions import Fraction

import numpy as np
import pytest

from abflow import (
    AccelConfig,
    ConvergenceTrace,
    Pencil,
    SolveStatus,
    SqrtProblem,
    ab_run,
    breakdown_check,
    gamma_heuristic,
    modified_ab_run,
    run_experiment,
    sqrtm_ab,
)
from abflow.accel import inner_chain
from abflow.lab import (ProblemSpec, SpectrumEntry, conditioned_similarity,
                        make_known_sqrt_problem, make_pencil_problem,
                        random_unitary)
from abflow.pencil import _basis_change

CONVERGED = SolveStatus.CONVERGED
MAX_ITERATIONS = SolveStatus.MAX_ITERATIONS
BREAKDOWN = SolveStatus.BREAKDOWN


def _last_argmin(values):
    """Index of the smallest value, the later one on a tie."""
    return max(range(len(values)), key=lambda i: (-values[i], i))


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("status", list(SolveStatus))
def test_pencil_run_contract(status, order):
    # a primitive sixth root of unity breaks the plain chain at element 6
    # and the order-4 chain inside the outer step from element 4
    spectrum = ((np.exp(1j * np.pi / 3), 0.3, 2.0) if status is BREAKDOWN
                else (0.3, 0.6, 1.5, 2.0 + 1j))
    prob = make_pencil_problem(ProblemSpec(spectrum, seed=1), random_b=True)
    tol, kmax = (1e-300, 6) if status is MAX_ITERATIONS else (1e-10, 60)
    m = prob.basis.dim
    seen = []

    def observer(it, basis):
        seen.append((it, basis))

    if order == 1:
        res = ab_run(prob.pencil, tol, kmax, expected_dim=m, observer=observer)
    else:
        cfg = AccelConfig(order=order, tol=tol, kmax=kmax, expected_dim=m)
        res = modified_ab_run(prob.pencil, cfg, observer=observer)
    assert res.status is status
    ks = [it.k for it, _ in seen]
    assert ks == [j + 1 if order == 1 else order ** j for j in range(len(seen))]
    assert np.array_equal(seen[0][0].A_k, prob.pencil.A)
    if status is BREAKDOWN:
        # the element whose merge failed lies in the outer step after the
        # last observed one, and was never observed
        assert ks[-1] < res.iterations <= max(order, 2) * ks[-1]
        if order == 1:
            assert res.iterations == prob.expected_breakdown + 1
        assert res.U.dim == 0 and np.isnan(res.residual)
        return
    assert res.iterations == len(seen)
    if status is MAX_ITERATIONS:
        assert len(seen) == kmax
    else:
        assert np.array_equal(res.U.basis, seen[-1][1].basis)


@pytest.mark.parametrize("status", list(SolveStatus))
def test_sqrt_run_contract(status):
    if status is BREAKDOWN:
        # element 2 is 0, so the sum of the next merge is 0
        S, gamma, kmax = np.array([[-1.0 + 0j]]), 1.0, 100
    else:
        S, _ = make_known_sqrt_problem(ProblemSpec((1.0, 4.0, 9.0 + 1j), seed=3))
        gamma, kmax = 1.0, 3 if status is MAX_ITERATIONS else 100
    seen = []
    res = sqrtm_ab(SqrtProblem(S, gamma=gamma, kmax=kmax),
                   observer=lambda k, Q: seen.append((k, Q)))
    assert res.status is status
    ks = [k for k, _ in seen]
    assert ks == list(range(1, len(seen) + 1))
    assert np.array_equal(seen[0][1], gamma * np.eye(len(S)))
    trace = res.trace
    assert trace.steps == tuple(ks[1:])
    if status is MAX_ITERATIONS:
        assert len(seen) == kmax
    # the returned root is the observed iterate of smallest difference
    best = _last_argmin(trace.errors)
    assert np.array_equal(res.X, seen[best + 1][1])
    assert res.residual == trace.residuals[best]


def test_sqrt_trace_seconds_cover_the_metric_and_the_advance(monkeypatch):
    """A ``sqrtm_ab`` trace row k holds, on ``pencil._drive``'s clock,
    the difference of step k-1 and the update to iterate k, but not the
    observer: on a fake clock where an update takes 1 s, a difference
    (through its residual) 10 s and the observer 1000 s, row 2 reads 1
    and every later row 11."""
    import abflow.pencil as pencil
    import abflow.sqrtm as sqrtm

    class Clock:
        now = 0.0

        def perf_counter(self):
            return self.now

    clock = Clock()

    def ticking(seconds, f):
        def g(*args):
            clock.now += seconds
            return f(*args)
        return g

    residual_of = sqrtm._residual_of
    monkeypatch.setattr(pencil, "time", clock)
    monkeypatch.setattr(sqrtm, "accelerated_step",
                        ticking(1.0, sqrtm.accelerated_step))
    monkeypatch.setattr(sqrtm, "_residual_of",
                        lambda S: ticking(10.0, residual_of(S)))
    S, _ = make_known_sqrt_problem(ProblemSpec((1.0, 4.0, 9.0 + 1j), seed=3))
    trace = sqrtm_ab(SqrtProblem(S, gamma=1.0),
                     observer=ticking(1000.0, lambda k, Q: None)).trace
    assert len(trace.seconds) >= 3
    assert trace.seconds == (1.0,) + (11.0,) * (len(trace.seconds) - 1)


def test_max_iterations_returns_the_basis_of_smallest_metric():
    """A threshold run cut off at the step where a second direction
    crosses the rank cutoff returns the settled one-dimensional basis of
    an earlier step, not the last basis."""
    prob = make_pencil_problem(ProblemSpec((0.1, 0.5, 3.0), seed=1),
                               random_b=True)
    tol = 1e-300
    seen = []
    ab_run(prob.pencil, tol, 80, observer=lambda it, b: seen.append(b))
    kmax = 1 + [b.dim for b in seen].index(2)
    seen.clear()
    res = ab_run(prob.pencil, tol, kmax, observer=lambda it, b: seen.append(b))
    assert (res.status, res.iterations, len(seen)) == (MAX_ITERATIONS, kmax, kmax)
    metrics = [1.0 if V.dim == 0 else _basis_change(U, V, tol)
               for U, V in zip(seen, seen[1:])]
    assert metrics[-1] == 1.0 > min(metrics)
    assert res.U.dim == 1
    assert np.array_equal(res.U.basis, seen[_last_argmin(metrics) + 1].basis)


_S = np.eye(2, dtype=complex)
_P = Pencil(np.diag([0.5 + 0j, 2.0]), np.eye(2, dtype=complex))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [None, 1], ids=["threshold", "dim"])
def test_kmax_one_returns_element_one(order, dim):
    """kmax >= 1 is the one floor: with kmax = 1 a subspace run stops at
    element 1 with its basis, as ``sqrtm_ab`` stops at gamma*I."""
    seen = []
    res = modified_ab_run(_P, AccelConfig(order, 1e-10, 1, dim),
                          observer=lambda it, b: seen.append(b))
    assert (res.status, res.iterations, len(seen)) == (MAX_ITERATIONS, 1, 1)
    assert res.U.dim == (0 if dim is None else 1)
    assert np.array_equal(res.U.basis, seen[0].basis)
    plain = ab_run(_P, 1e-10, 1, expected_dim=dim)
    assert (plain.status, plain.iterations) == (MAX_ITERATIONS, 1)
    assert np.array_equal(plain.U.basis, res.U.basis)
    root = sqrtm_ab(SqrtProblem(_S, gamma=2.0, order=order, kmax=1))
    assert (root.status, root.trace.steps) == (MAX_ITERATIONS, ())
    assert np.array_equal(root.X, 2.0 * _S)


@pytest.mark.parametrize("make, name", [
    (lambda: AccelConfig(order=2.0, tol=1e-10, kmax=30), "order"),
    (lambda: AccelConfig(order=2, tol=1e-10, kmax=30.0), "kmax"),
    (lambda: AccelConfig(2, 1e-10, 30, expected_dim=1.0), "expected_dim"),
    (lambda: SqrtProblem(_S, order=2.0), "order"),
    (lambda: SqrtProblem(_S, kmax=50.0), "kmax"),
    (lambda: ab_run(_P, 1e-10, 30.5), "kmax"),
    (lambda: breakdown_check([-1.0], 20.0), "kmax"),
    (lambda: run_experiment("sqrt", ProblemSpec((2.0, 3.0)), order=2.0),
     "order"),
    # a bool is no integer either, as in the CLI's JSON counts
    (lambda: AccelConfig(order=True, tol=1e-12, kmax=True), "order"),
    (lambda: SqrtProblem(_S, order=True, kmax=True), "order"),
    (lambda: SpectrumEntry(2.0, multiplicity=True), "multiplicity"),
    (lambda: ProblemSpec((0.5,), seed=True), "seed"),
    (lambda: breakdown_check([-1], True), "kmax"),
    # generator sizes, the inner chain's order and trace steps alike
    (lambda: random_unitary(2.0, np.random.default_rng(0)), "n"),
    (lambda: conditioned_similarity(True, 10.0, np.random.default_rng(0)),
     "n"),
    (lambda: inner_chain(_P.A, _P.B, 2.0), "order"),
    (lambda: ConvergenceTrace((1.5,), (0.1,), (0.0,), (0.0,)), "step"),
], ids=["accel-order", "accel-kmax", "accel-dim", "sqrt-order", "sqrt-kmax",
        "ab_run-kmax", "breakdown_check-kmax", "experiment-order",
        "accel-bool", "sqrt-bool", "spectrum-entry-bool", "problem-spec-bool",
        "breakdown_check-bool", "random-unitary-n", "similarity-n-bool",
        "inner-chain-order", "trace-step"])
def test_integer_settings_are_checked_at_the_entry(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make()


def test_integer_settings_accept_numpy_integers():
    cfg = AccelConfig(np.int64(2), 1e-10, np.int32(30), np.int8(1))
    assert modified_ab_run(_P, cfg).status is CONVERGED
    assert breakdown_check([-1.0], np.int64(3)) == 1
    rng = np.random.default_rng(0)
    assert random_unitary(np.int64(3), rng).shape == (3, 3)
    assert conditioned_similarity(np.int64(3), 10.0, rng).shape == (3, 3)
    assert np.array_equal(inner_chain(_P.A, _P.B, np.int64(2))[0], _P.A)
    trace = ConvergenceTrace((np.int64(0),), (0.1,), (0.0,), (0.0,))
    assert trace.steps == (0,) and type(trace.steps[0]) is int


#: Every real setting a caller passes, as (name, call with one value).
_REAL_SETTINGS = {
    "accel-tol": ("tol", lambda v: AccelConfig(2, v, 30)),
    "ab_run-tol": ("tol", lambda v: ab_run(_P, v, 30)),
    "sqrt-tol": ("tol", lambda v: SqrtProblem(_S, tol=v)),
    "sqrt-gamma": ("gamma", lambda v: SqrtProblem(_S, gamma=v)),
    "experiment-tol": ("tol", lambda v: run_experiment(
        "sqrt", ProblemSpec((2.0, 3.0)), tol=v, kmax=3)),
    "experiment-gamma": ("gamma", lambda v: run_experiment(
        "sqrt", ProblemSpec((2.0, 3.0)), gamma=v, kmax=3)),
    "spec-cond": ("cond", lambda v: ProblemSpec((2.0,), cond=v)),
    "similarity-cond": ("cond", lambda v: conditioned_similarity(
        3, v, np.random.default_rng(0))),
    "gamma-heuristic-a": ("a", lambda v: gamma_heuristic((v, 4.0))),
    "gamma-heuristic-b": ("b", lambda v: gamma_heuristic((1.0, v))),
}

#: Values that are no real number: a bool is refused as in the counts.
_NOT_REAL = {"none": None, "str": "1e-3", "bool": True, "complex": 1e-3 + 0j,
             "array": np.array([1e-3, 1.0])}


@pytest.mark.parametrize("value", _NOT_REAL.values(), ids=_NOT_REAL.keys())
@pytest.mark.parametrize("setting", _REAL_SETTINGS.values(),
                         ids=_REAL_SETTINGS.keys())
def test_real_settings_are_checked_at_the_entry(setting, value):
    """Each real setting raises ``ValueError`` itself, never a
    ``TypeError`` from a comparison, and names the setting."""
    name, make = setting
    with pytest.raises(ValueError,
                       match=f"^{name} must be a real number, got ") as info:
        make(value)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("value", [np.float32(2.0), np.int64(2),
                                   Fraction(5, 2)],
                         ids=["float32", "int64", "fraction"])
@pytest.mark.parametrize("setting", _REAL_SETTINGS.values(),
                         ids=_REAL_SETTINGS.keys())
def test_real_settings_accept_numpy_and_fraction_values(setting, value):
    _, make = setting
    make(value)


def test_real_settings_are_kept_as_floats():
    assert type(AccelConfig(2, np.float32(1e-3), 30).tol) is float
    prob = SqrtProblem(_S, gamma=Fraction(5, 2), tol=np.int64(1))
    assert (prob.gamma, prob.tol) == (2.5, 1.0)
    assert type(prob.gamma) is type(prob.tol) is float
    assert type(ProblemSpec((2.0,), cond=np.int64(10)).cond) is float
    assert gamma_heuristic((Fraction(1), np.int64(4))) == 2.0


def test_a_real_beyond_double_range_is_not_finite():
    """An int or a Fraction too large for a double is refused by the
    range rule, not by the ``OverflowError`` of ``float()``."""
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        AccelConfig(2, 10 ** 400, 30)
    with pytest.raises(ValueError, match="^cond must be at least 1 and finite"):
        ProblemSpec((2.0,), cond=Fraction(10 ** 400, 3))


@pytest.mark.parametrize("make", [
    lambda: ProblemSpec("25"),      # read character by character
    lambda: SpectrumEntry(True),
], ids=["string-spectrum", "bool-eigenvalue"])
def test_an_eigenvalue_must_be_a_number(make):
    with pytest.raises(ValueError, match="^eigenvalue .* is not a number$"):
        make()
