"""Known false statuses, pinned as strict expected failures.

Each case asserts the true answer: CONVERGED at the stable dimension with
a sine of at most 1e-8 for a subspace run, or a relative error of at most
1e-8 for a square root.  Each xfail names the ROADMAP item that owns the
defect; the fixing change flips it.
"""

import numpy as np
import pytest

from abflow import (
    AccelConfig,
    SolveStatus,
    SqrtProblem,
    modified_ab_run,
    sqrtm_ab,
    subspace_distance,
)
from abflow.lab import (
    ProblemSpec,
    SpectrumEntry,
    make_known_sqrt_problem,
    make_pencil_problem,
)

TOL, KMAX = 1e-12, 200

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
