"""Hard pencil and square-root families, checked against the true answer.

Each case asserts the true answer: CONVERGED at the stable dimension with
a sine of at most 1e-8 for a subspace run, or a relative error of at most
1e-8 for a square root.  The pencil families with no generator answer
(infinite eigenvalues, Jordan blocks, singular A, all stable, n = 0 and
1) take theirs from an independent solver, ``scipy.linalg.ordqz``.
Known false statuses are pinned as strict expected failures; each xfail
names the ROADMAP item that owns the defect, and the fixing change flips
it.
"""

from functools import partial

import numpy as np
import pytest
from scipy.linalg import block_diag, ordqz

from abflow import linalg, pencil as pencil_module
from abflow import (
    AccelConfig,
    Pencil,
    SolveStatus,
    SqrtProblem,
    breakdown_check,
    modified_ab_run,
    sqrtm_ab,
    subspace_distance,
)
from abflow.lab import (
    ProblemSpec,
    SpectrumEntry,
    conditioned_similarity,
    make_known_sqrt_problem,
    make_pencil_problem,
    random_unitary,
)

TOL, KMAX = 1e-12, 200

_STABLE = (0.2, -0.5, 0.3 + 0.4j, -0.6j, 0.8)
_UNSTABLE = (2.0, -1.5, 1.2 + 1.0j, -3j, 4.0)


def _block_pencil(T, E, seed):
    """``(X T Y, X E Y)`` with X and Y of condition number 10."""
    rng = np.random.default_rng(seed)
    X, Y = (conditioned_similarity(T.shape[0], 10.0, rng) for _ in range(2))
    return Pencil(X @ T @ Y, X @ E @ Y)


def _singular_b(seed):
    """Five stable, five unstable and two infinite eigenvalues (B has
    rank 10)."""
    T = np.diag(np.array(_STABLE + _UNSTABLE + (1.0, 1.0)))
    E = np.diag(np.array([1.0] * 10 + [0.0, 0.0], dtype=complex))
    return _block_pencil(T, E, seed)


def _jordan(value, seed):
    """A 2x2 Jordan block at ``value`` beside five stable and five
    unstable eigenvalues, with B nonsingular."""
    T = np.diag(np.array((value, value) + _STABLE + _UNSTABLE))
    T[0, 1] = 1.0
    return _block_pencil(T, np.eye(12, dtype=complex), seed)


def _singular_a(seed):
    """A double zero eigenvalue, so A is singular, beside five stable and
    five unstable eigenvalues, with B nonsingular."""
    T = np.diag(np.array((0.0, 0.0) + _STABLE + _UNSTABLE))
    return _block_pencil(T, np.eye(12, dtype=complex), seed)


def _all_stable(seed):
    """Twelve stable eigenvalues and no unstable one, with B nonsingular."""
    more = (0.1, -0.4, 0.7j, 0.5 - 0.5j, -0.9, 0.05j, 0.6)
    return _block_pencil(np.diag(np.array(_STABLE + more)),
                         np.eye(12, dtype=complex), seed)


#: Three draws of each random family; the n <= 1 pencils draw nothing.
_PENCILS = {
    **{f"singular-B-{seed}": partial(_singular_b, seed) for seed in range(3)},
    **{f"jordan-stable-{seed}": partial(_jordan, 0.5, seed) for seed in range(3)},
    **{f"jordan-unstable-{seed}": partial(_jordan, 2.0, seed) for seed in range(3)},
    **{f"singular-A-{seed}": partial(_singular_a, seed) for seed in range(3)},
    **{f"all-stable-{seed}": partial(_all_stable, seed) for seed in range(3)},
    "n0": lambda: Pencil(np.zeros((0, 0)), np.zeros((0, 0))),
    "n1-stable": lambda: Pencil([[0.5]], [[1.0]]),
    "n1-unstable": lambda: Pencil([[2.0]], [[1.0]]),
}


def _ordqz_stable_basis(pencil):
    """The leading columns of Z in the complex QZ of ``pencil`` sorted
    inside the unit circle: the stable right deflating subspace, where an
    infinite eigenvalue (beta = 0) counts as unstable."""
    if pencil.n == 0:
        return np.zeros((0, 0), dtype=complex)
    _, _, alpha, beta, _, Z = ordqz(pencil.A, pencil.B, sort="iuc",
                                    output="complex")
    return Z[:, :int(np.sum(np.abs(alpha) < np.abs(beta)))]


@pytest.mark.parametrize("mode", ["expected_dim", "threshold"])
@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("case", list(_PENCILS))
def test_subspace_run_matches_ordqz(case, order, mode, request):
    if case.startswith("singular-A") and mode == "threshold":
        request.applymarker(pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 6: A_1 is exactly singular, so threshold "
            "mode stops CONVERGED at dimension 2 of 7"))
    pencil = _PENCILS[case]()
    stable = _ordqz_stable_basis(pencil)
    dim = stable.shape[1] if mode == "expected_dim" else None
    res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, dim))
    if case == "n1-unstable" and mode == "threshold":
        # ROADMAP item 6: the empty basis is right, but with nothing stable
        # threshold mode cannot confirm it and runs to kmax
        assert (res.status, res.U.dim) == (SolveStatus.MAX_ITERATIONS, 0)
        return
    assert res.status is SolveStatus.CONVERGED
    assert res.U.dim == stable.shape[1]
    assert subspace_distance(res.U, stable) <= 1e-8


#: Threshold-mode spectra whose runs stop at dimension 2 of 3.
_THRESHOLD_FALSE_STOPS = {
    # A_1 is exactly singular, so elements 1 and 2 share a null space
    "zero-eigenvalues": (SpectrumEntry(0.0, 2), 0.5, 2.0, 3.0),
    "near-unit-circle": (0.3, 0.6, 0.999, 1.001, 2.0, 3.0),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: threshold mode reports CONVERGED "
                   "on a subspace of dimension 2 of 3")
@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("family", sorted(_THRESHOLD_FALSE_STOPS))
def test_threshold_mode_converges_to_the_stable_subspace(family, order):
    spec = ProblemSpec(_THRESHOLD_FALSE_STOPS[family], cond=10, seed=0)
    prob = make_pencil_problem(spec)
    res = modified_ab_run(prob.pencil, AccelConfig(order, TOL, KMAX))
    assert res.status is SolveStatus.CONVERGED
    assert res.U.dim == prob.basis.dim
    assert subspace_distance(res.U, prob.basis) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: sqrtm_ab reports BREAKDOWN on "
                   "singular S once rounding grows")
@pytest.mark.parametrize("order", [2, 4])
def test_singular_square_root_converges(order):
    spec = ProblemSpec((SpectrumEntry(0.0, 1), *np.linspace(1, 4, 9)),
                       cond=10, seed=0)
    S, X = make_known_sqrt_problem(spec)
    res = sqrtm_ab(SqrtProblem(S, gamma=2.0, order=order, tol=TOL, kmax=KMAX))
    assert res.status is SolveStatus.CONVERGED
    assert np.linalg.norm(res.X - X) <= 1e-8 * np.linalg.norm(X)


# Rows of widely different scale: the pivot 1.5 of A_1 + B_1 on
# diag(0.5, 1e14) lies below the normwise cutoff of about 2.8, so only
# judging each row on its own scale tells a regular sum from a singular one.

@pytest.mark.parametrize("dim", [1, None], ids=["expected_dim", "threshold"])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_widely_scaled_moduli_are_not_a_breakdown(order, dim):
    assert breakdown_check([0.5, 1e14], KMAX) is None   # no sum is singular
    pencil = Pencil(np.diag([0.5, 1e14]), np.eye(2))
    res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, dim))
    assert res.status is SolveStatus.CONVERGED
    assert res.U.dim == 1
    assert subspace_distance(res.U, np.eye(2)[:, :1]) <= 1e-8


def _row_scaled_pencil(seed):
    """``(D Q Lam Q^H, D)``: row scales ``10^U(-12, 12)``, n in 3..11, the
    first half of ``Lam`` inside the unit circle and Q unitary.  Unlike a
    diagonal pencil, every pivot order here rounds differently."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    m = n // 2
    d = 10.0 ** rng.uniform(-12, 12, n)
    moduli = rng.uniform(0.1, 0.7, n)
    moduli[m:] = 1 / moduli[m:]
    lam = moduli * np.exp(2j * np.pi * rng.random(n))
    Q = random_unitary(n, rng)
    return Pencil(d[:, None] * (Q * lam) @ Q.conj().T, np.diag(d)), Q[:, :m]


@pytest.mark.parametrize("order", [1, 2])
def test_row_scaled_pencils_converge_through_the_second_opinion(
        order, monkeypatch):
    """Sums whose normwise pivot test fails and whose row-scaled one
    passes are solved with their own factors in the row-scaled pivot
    order; each ``lu_factor`` that takes the second opinion makes a
    second ``zgetrf``.  Every row here is dense, so zgetrf's own order
    would do as well; the kernel tests in ``test_linalg`` cover rows
    whose largest entry sits off the pivot column."""
    calls = {"lu_factor": 0, "zgetrf": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((pencil_module, "lu_factor"), (linalg, "zgetrf")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    reached = 0
    for seed in range(60):
        pencil, stable = _row_scaled_pencil(seed)
        before = calls["zgetrf"] - calls["lu_factor"]
        res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX,
                                                  stable.shape[1]))
        reached += calls["zgetrf"] - calls["lu_factor"] > before
        assert res.status is SolveStatus.CONVERGED, seed
        assert subspace_distance(res.U, stable) <= 1e-8, seed
    assert reached >= 30, reached


_THIRD_ROOT = np.exp(2j * np.pi / 3)


@pytest.mark.parametrize("dim", [0, None], ids=["expected_dim", "threshold"])
@pytest.mark.parametrize("value, order, element", [
    (-1.0, 1, 2), (-1.0, 2, 2), (-1.0, 4, 2), (_THIRD_ROOT, 4, 3),
], ids=["minus-one-r1", "minus-one-r2", "minus-one-r4", "third-root-r4"])
def test_widely_scaled_root_of_unity_is_a_breakdown(value, order, element,
                                                     dim):
    """Beside a 1e14 row, a root of unity still breaks the chain, at the
    element ``breakdown_check`` predicts (it returns the step before)."""
    assert breakdown_check([value, 1e14], KMAX) == element - 1
    pencil = Pencil(np.diag([value, 1e14]), np.eye(2))
    res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, dim))
    assert (res.status, res.iterations) == (SolveStatus.BREAKDOWN, element)


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("dim", [3, None], ids=["expected_dim", "threshold"])
@pytest.mark.parametrize("s", [0, 6, 12])
@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_row_scaled_roots_of_unity_converge_or_break_down(p, s, dim, order,
                                                          request):
    """Three stable, one primitive p-th root of unity and three unstable
    eigenvalues, Q-rotated, with rows scaled by ``10^U(-s, s)``.  Each of
    three draws ends CONVERGED on the known stable basis ``Q[:, :3]``, or
    BREAKDOWN where ``breakdown_check`` predicts one.  The known basis
    stands in for ``ordqz``, whose inside-the-circle count is not defined
    for |lambda| = 1."""
    if (p, s, dim, order) in ((3, 12, None, 2), (6, 12, None, 2)):
        request.applymarker(pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 6, the rounding drift of item 21: draws 1 "
            "and 2 stop CONVERGED at dimension 4 after 59-60 iterations"))
    lam = np.array([0.3, -0.5j, 0.6 + 0.2j, np.exp(2j * np.pi / p),
                    2.0, -1.5, 1.2 + 1.0j])
    breaks = breakdown_check(lam, KMAX) is not None
    for seed in range(3):
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(-s, s, 7)
        Q = random_unitary(7, rng)
        pencil = Pencil(d[:, None] * (Q * lam) @ Q.conj().T, np.diag(d))
        res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, dim))
        if res.status is SolveStatus.BREAKDOWN and breaks:
            continue
        assert res.status is SolveStatus.CONVERGED, seed
        assert res.U.dim == 3, seed
        assert subspace_distance(res.U, Q[:, :3]) <= 1e-8, seed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: threshold mode stops CONVERGED at "
                   "element 2 with the unit-circle direction as its basis")
def test_threshold_mode_keeps_a_widely_scaled_root_out():
    """Nothing of diag(e^{2 pi i/3}, 1e14) is stable, so a CONVERGED run
    must return the empty basis; orders 1 and 2 stop before element 3,
    whose sum is singular, is formed."""
    pencil = Pencil(np.diag([_THIRD_ROOT, 1e14]), np.eye(2))
    for order in (1, 2):
        res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX))
        assert res.status is not SolveStatus.CONVERGED or res.U.dim == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18, the expected_dim FOUND in "
                   "CHANGES.md: the run stops CONVERGED at element 2 with "
                   "the unstable direction e2 (residual 0.0, sine 1.0)")
@pytest.mark.parametrize("d1, d2", [(1e3, 1e-3), (1e6, 1e-6)])
@pytest.mark.parametrize("order", [1, 2])
def test_expected_dim_finds_the_stable_direction_of_row_scaled_pencils(
        order, d1, d2):
    """B^-1 A = diag(0.5, 2) with the rows scaled by (d1, d2): the stable
    subspace is e1, so a CONVERGED run must return it."""
    pencil = Pencil(np.diag([0.5 * d1, 2 * d2]), np.diag([d1, d2]))
    res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, 1))
    assert (res.status is not SolveStatus.CONVERGED
            or subspace_distance(res.U, np.eye(2)[:, :1]) <= 1e-8)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_expected_dim_converges_on_moduli_near_the_unit_circle(delta, seed,
                                                               order):
    """Three stable moduli 1 - delta and three unstable 1 + delta, at
    random phases: the split is narrow but regular, so ``expected_dim``
    mode reaches the ``ordqz`` subspace.  Order 1 is left out, since its
    plain steps for delta = 1e-4 outrun ``KMAX``; threshold mode is
    item 6."""
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(6))
    moduli = np.repeat([1 - delta, 1 + delta], 3)
    pencil = _block_pencil(np.diag(moduli * phases), np.eye(6, dtype=complex),
                           seed)
    stable = _ordqz_stable_basis(pencil)
    assert stable.shape[1] == 3
    res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, 3))
    assert res.status is SolveStatus.CONVERGED
    assert subspace_distance(res.U, stable) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 19: the step metric bottoms out above "
                   "tol, so the run ends MAX_ITERATIONS after 100 iterates "
                   "with a sine of 1.7e-8 to ordqz")
def test_expected_dim_stops_at_its_rounding_floor():
    """A real 8x8 pencil with a stable rotation pair of modulus 0.95, run
    at order 2 with the default ``tol`` and ``kmax``.  Order 1 is left
    out: its MAX_ITERATIONS (sine 2.7e-3) is true, since the pair needs
    more plain steps than ``kmax`` allows."""
    c, s = np.cos(0.3), np.sin(0.3)
    D = block_diag(0.95 * np.array([[c, -s], [s, c]]),
                   np.diag([0.3, -0.2, 2.0, -2.5, 1.8, 3.0]))
    T = np.random.default_rng(11).standard_normal((8, 8))
    pencil = Pencil(T @ D @ np.linalg.inv(T), np.eye(8))
    res = modified_ab_run(pencil, AccelConfig(2, expected_dim=4))
    assert res.status is SolveStatus.CONVERGED
    assert subspace_distance(res.U, _ordqz_stable_basis(pencil)) <= 1e-8


def test_trivial_inputs_stay_exact_and_silent(capfd):
    """Solves with no right-hand side, ``expected_dim`` of 0 or n, empty
    bases and generators of size 0 or 1 take the general code: each result
    is exact, and LAPACK prints nothing (its ``xerbla`` writes to stdout,
    which only a file-descriptor capture sees)."""
    rng = np.random.default_rng(0)
    for n in (0, 4):
        A = conditioned_similarity(n, 10.0, rng)
        X = linalg.lu_factor(A).solve(np.zeros((n, 0), dtype=complex))
        assert X.shape == (n, 0) and X.dtype == np.complex128
        for dim in (0, n):
            basis = linalg.smallest_singular_subspace(A, dim).basis
            assert basis.dtype == np.complex128
            assert np.array_equal(basis, np.eye(n)[:, n - dim:])
        empty = np.zeros((n, 0), dtype=complex)
        assert subspace_distance(empty, empty) == 0.0
    # expected_dim 0 at orders 1 and 2, then a breakdown at element 2
    for value, order, dim, status in ((2.0, 1, 0, SolveStatus.CONVERGED),
                                      (2.0, 2, 0, SolveStatus.CONVERGED),
                                      (-1.0, 1, 1, SolveStatus.BREAKDOWN)):
        res = modified_ab_run(Pencil(np.diag([0.5, value]), np.eye(2)),
                              AccelConfig(order, TOL, KMAX, dim))
        assert (res.status, res.iterations) == (status, 2)
        assert res.U.basis.shape == (2, 0) and res.Lambda.shape == (0, 0)
        assert res.Lambda.dtype == np.complex128
        assert (np.isnan(res.residual) if status is SolveStatus.BREAKDOWN
                else res.residual == 0.0)
    for n in (0, 1):
        P = conditioned_similarity(n, 10.0, np.random.default_rng(n))
        rng = np.random.default_rng(n)
        U, V = random_unitary(n, rng), random_unitary(n, rng)
        assert np.array_equal(P, U @ V.conj().T)     # every s_i is 1
    # a non-semisimple entry of multiplicity 1 is a plain eigenvalue
    jordan, plain = (make_known_sqrt_problem(ProblemSpec(
        (SpectrumEntry(2.0, 1, semisimple=s), 3.0), seed=1))
        for s in (False, True))
    assert all(np.array_equal(a, b) for a, b in zip(jordan, plain))
    assert capfd.readouterr() == ("", "")
