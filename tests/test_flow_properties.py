"""Property tests of the flow on random small pencils."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from abflow import (
    AccelConfig,
    LUFactorization,
    Pencil,
    SolveStatus,
    SubspaceBasis,
    ab_run,
    modified_ab_run,
    subspace_distance,
)
from abflow.lab import conditioned_similarity, random_unitary
from abflow.pencil import _basis_change, accel_step, combine

from oracles import closed_form_iterate
from util import chain, rel_err, scalar_pencil

# derandomized so that every run of the suite draws the same examples
_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _similar(values, rng):
    """Matrix with spectrum ``values`` through a random conditioned similarity."""
    P = conditioned_similarity(len(values), 10.0, rng)
    return np.linalg.solve(P.T, (P @ np.diag(values)).T).T


def _pencil(values, seed):
    """Pencil (B M, B) with spectrum ``values`` and a random conditioned B."""
    rng = np.random.default_rng(seed)
    M = _similar(values, rng)
    B = conditioned_similarity(len(values), 5.0, rng)
    return Pencil(B @ M, B)


def _disk(max_modulus):
    return st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                     st.floats(0.0, max_modulus), st.floats(0.0, 1.0))


_SEEDS = st.integers(0, 2 ** 32 - 1)
_STABLE = st.lists(_disk(0.9), min_size=1, max_size=6)


def _rational_b(it_i, it_j):
    """``B_j (A_i + B_j)^{-1} B_i``, the rational form of the merged B."""
    return it_j.B_k @ np.linalg.solve(it_i.A_k + it_j.B_k, it_i.B_k)


@_SETTINGS
@given(values=_STABLE, seed=_SEEDS, i=st.integers(1, 6), j=st.integers(1, 6))
def test_combine_gives_the_sum_element(values, seed, i, j):
    its = chain(_pencil(values, seed), i + j)
    merged = combine(its[i - 1], its[j - 1])
    assert merged.k == i + j
    assert rel_err(merged.A_k, its[i + j - 1].A_k) <= 1e-9
    assert rel_err(merged.B_k, _rational_b(its[i - 1], its[j - 1])) <= 1e-9


@_SETTINGS
@given(values=_STABLE, seed=_SEEDS, i=st.integers(1, 6), j=st.integers(1, 6))
def test_combine_matches_the_closed_form(values, seed, i, j):
    # with B_1 = I, elements i, j and i+j all have a closed form
    A1 = _similar(values, np.random.default_rng(seed))
    it_i, it_j = closed_form_iterate(A1, i), closed_form_iterate(A1, j)
    merged = combine(it_i, it_j)
    ref = closed_form_iterate(A1, i + j)
    assert rel_err(merged.A_k, ref.A_k) <= 1e-9
    assert rel_err(merged.B_k, ref.B_k) <= 1e-9
    assert rel_err(merged.B_k, _rational_b(it_i, it_j)) <= 1e-9


@_SETTINGS
@given(values=_STABLE, seed=_SEEDS, m=st.integers(1, 3), order=st.integers(2, 5))
def test_accel_step_gives_the_multiple_element(values, seed, m, order):
    its = chain(_pencil(values, seed), order * m)
    stepped = accel_step(its[m - 1], order)
    assert stepped.k == order * m
    assert rel_err(stepped.A_k, its[order * m - 1].A_k) <= 1e-9
    assert rel_err(stepped.B_k, its[order * m - 1].B_k) <= 1e-9


@st.composite
def _root_of_unity(draw):
    p = draw(st.sampled_from([2, 3, 4, 6]))
    q = draw(st.sampled_from([q for q in range(1, p) if math.gcd(q, p) == 1]))
    return p, np.exp(2j * np.pi * q / p)


@_SETTINGS
@given(root=_root_of_unity(), others=st.lists(_disk(0.7), max_size=5),
       seed=_SEEDS, order=st.integers(2, 5))
def test_accelerated_breakdown_is_at_a_multiple_of_the_root_order(
        root, others, seed, order):
    p, lam = root
    pencil = _pencil([lam, *others], seed)
    result = modified_ab_run(pencil, AccelConfig(order=order, tol=1e-10, kmax=8))
    if order >= p and others:   # the first outer step produces element p
        assert result.status is SolveStatus.BREAKDOWN
    if result.status is SolveStatus.BREAKDOWN:
        assert result.iterations % p == 0


def test_combine_solves_once(monkeypatch):
    solves = []
    original = LUFactorization.solve
    monkeypatch.setattr(LUFactorization, "solve",
                        lambda f, *a, **kw: solves.append(1) or original(f, *a, **kw))
    its = chain(_pencil([0.5, 0.2j, -0.3], 1), 3)
    solves.clear()
    combine(its[1], its[2])
    assert len(solves) == 1


def test_scalar_root_of_unity_breaks_down():
    p = scalar_pencil(np.exp(1j * np.pi), 1.0)
    assert ab_run(p, 1e-10, 50).status is SolveStatus.BREAKDOWN
    result = modified_ab_run(p, AccelConfig(order=3, tol=1e-10, kmax=20))
    assert (result.status, result.iterations) == (SolveStatus.BREAKDOWN, 2)


def test_triple_cube_root_of_unity_breaks_down():
    # every sum A_1 + B_2 cancels to rounding error against its summands
    w = np.exp(2j * np.pi / 3)
    p = _pencil([w, w, w], 0)
    result = ab_run(p, 1e-10, 50)
    assert (result.status, result.iterations) == (SolveStatus.BREAKDOWN, 3)
    result = modified_ab_run(p, AccelConfig(order=3, tol=1e-10, kmax=20))
    assert (result.status, result.iterations) == (SolveStatus.BREAKDOWN, 3)


# ------------------------- bound-first stopping test -------------------------

_TOLS = [1e-14, 1e-12, 1e-8, 0.5, 2.0]


@st.composite
def _basis_pair(draw):
    """Orthonormal bases (U, V) of C^n and a tolerance.  For equal
    dimensions the largest principal angle lies in [1e-15, pi/2] (or, in a
    draw of its own, at the tolerance to within the bound's margin); the
    other angles are either all equal to it, where the Frobenius bound is
    tight, or spread below it."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    m = draw(st.sampled_from([0, 1, n // 2, n]))
    tol = draw(st.sampled_from(_TOLS))
    Q = random_unitary(n, np.random.default_rng(draw(_SEEDS)))
    if draw(st.booleans()):       # unequal dimensions
        m_v = draw(st.sampled_from([d for d in (0, 1, n // 2, n) if d != m]))
        return Q[:, :m], Q[:, n - m_v:], tol
    R = random_unitary(max(m, 1), np.random.default_rng(draw(_SEEDS)))[:m, :m]
    if 2 * m > n:                 # no room to rotate: the same span
        return Q[:, :m], Q[:, :m] @ R, tol
    if draw(st.booleans()) and tol < 1:
        factor = draw(st.sampled_from([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 2e-6, 2.0]))
        top = math.asin(min(1.0, tol * factor))
    else:
        top = math.exp(draw(st.floats(math.log(1e-15), math.log(math.pi / 2))))
    if draw(st.booleans()):
        angles = np.full(m, top)
    else:
        angles = top * np.array(draw(st.lists(st.floats(0.0, 1.0),
                                              min_size=m, max_size=m)))
        angles[:1] = top
    U = Q[:, :m]
    V = (U * np.cos(angles) + Q[:, m:2 * m] * np.sin(angles)) @ R
    return U, V, tol


@settings(derandomize=True, deadline=None, max_examples=400)
@given(pair=_basis_pair())
def test_stopping_test_decides_like_subspace_distance(pair):
    U, V, tol = pair
    U, V = SubspaceBasis(U), SubspaceBasis(V)
    metric, dist = _basis_change(U, V, tol), subspace_distance(U, V)
    assert (metric < tol) == (dist < tol)
    assert metric <= dist * (1 + 1e-6)
