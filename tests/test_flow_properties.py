"""Property tests of the flow on random small pencils."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflow import (
    AccelConfig,
    Pencil,
    SolveStatus,
    ab_run,
    accel_step,
    combine,
    modified_ab_run,
)
from abflow.lab import conditioned_similarity

from util import chain, rel_err, scalar_pencil

# derandomized so that every run of the suite draws the same examples
_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _pencil(values, seed):
    """Pencil (B M, B) with spectrum ``values`` and a random conditioned B."""
    rng = np.random.default_rng(seed)
    n = len(values)
    P = conditioned_similarity(n, 10.0, rng)
    M = np.linalg.solve(P.T, (P @ np.diag(values)).T).T
    B = conditioned_similarity(n, 5.0, rng)
    return Pencil(B @ M, B)


def _disk(max_modulus):
    return st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                     st.floats(0.0, max_modulus), st.floats(0.0, 1.0))


_SEEDS = st.integers(0, 2 ** 32 - 1)
_STABLE = st.lists(_disk(0.9), min_size=1, max_size=6)


@_SETTINGS
@given(values=_STABLE, seed=_SEEDS, i=st.integers(1, 6), j=st.integers(1, 6))
def test_combine_gives_the_sum_element(values, seed, i, j):
    its = chain(_pencil(values, seed), i + j)
    merged = combine(its[i - 1], its[j - 1])
    assert merged.k == i + j
    assert rel_err(merged.A_k, its[i + j - 1].A_k) <= 1e-9
    assert rel_err(merged.B_k, its[i + j - 1].B_k) <= 1e-9


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


@pytest.mark.xfail(strict=True, reason=(
    "lu_factor's pivot cutoff is relative to the sum it factors, so a 1x1 "
    "sum that cancels to rounding error passes as regular"))
def test_scalar_root_of_unity_breaks_down():
    p = scalar_pencil(np.exp(1j * np.pi), 1.0)
    assert ab_run(p, 1e-10, 50).status is SolveStatus.BREAKDOWN
