"""Hard pencil and square-root families, checked against the true answer.

Each case asserts the true answer: CONVERGED at the stable dimension with
a sine of at most 1e-8 for a subspace run, or a relative error of at most
1e-8 for a square root.  The pencil families with no generator answer
(infinite eigenvalues, Jordan blocks, n = 0 and 1) take theirs from an
independent solver, ``scipy.linalg.ordqz``.  Known false statuses are
pinned as strict expected failures; each xfail names the ROADMAP item
that owns the defect, and the fixing change flips it.
"""

from functools import partial

import numpy as np
import pytest
from scipy.linalg import ordqz

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


#: Three draws of each random family; the n <= 1 pencils draw nothing.
_PENCILS = {
    **{f"singular-B-{seed}": partial(_singular_b, seed) for seed in range(3)},
    **{f"jordan-stable-{seed}": partial(_jordan, 0.5, seed) for seed in range(3)},
    **{f"jordan-unstable-{seed}": partial(_jordan, 2.0, seed) for seed in range(3)},
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
def test_subspace_run_matches_ordqz(case, order, mode):
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the normwise pivot cutoff of "
                   "lu_factor judges the pivot 1.5 against the 1e14 scale "
                   "and reports BREAKDOWN at element 2")
@pytest.mark.parametrize("dim", [1, None], ids=["expected_dim", "threshold"])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_widely_scaled_moduli_are_not_a_breakdown(order, dim):
    assert breakdown_check([0.5, 1e14], KMAX) is None   # no sum is singular
    pencil = Pencil(np.diag([0.5, 1e14]), np.eye(2))
    res = modified_ab_run(pencil, AccelConfig(order, TOL, KMAX, dim))
    assert res.status is SolveStatus.CONVERGED
    assert res.U.dim == 1
    assert subspace_distance(res.U, np.eye(2)[:, :1]) <= 1e-8
