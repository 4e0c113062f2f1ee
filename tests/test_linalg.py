"""Kernel-level checks: factored solves, null spaces, subspace geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import zgetrf

from abflow import (
    AccelConfig,
    Pencil,
    SubspaceBasis,
    modified_ab_run,
    subspace_distance,
)
from abflow.errors import BreakdownError
from abflow.lab import conditioned_similarity, random_unitary
from abflow.linalg import (EPS, PIVOT_SAFETY, _norm, lu_factor,
                           null_space_basis, smallest_singular_subspace)

from oracles import induced_norm2, lu_perm, lu_solve, matrix_power_sum


def test_lu_solve_scalar_division():
    X = lu_solve(np.array([[2.0 + 0j]]), np.array([[6.0 + 0j]]))
    assert np.allclose(X, [[3.0]], atol=1e-15)


def test_lu_solve_identity_returns_rhs():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    X = lu_solve(np.eye(3, dtype=complex), M)
    assert np.allclose(X, M, atol=1e-15)


def test_lu_solve_back_substitution():
    A = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    X = lu_solve(A, np.array([[3.0], [4.0]], dtype=complex))
    assert np.allclose(X, [[1.0], [2.0]], atol=1e-14)


def test_lu_factor_reconstructs_and_permutes():
    rng = np.random.default_rng(1)
    for n in (2, 5, 16):
        A = conditioned_similarity(n, 50.0, rng)
        f = lu_factor(A)
        L = np.tril(f.lu, -1) + np.eye(n)
        U = np.triu(f.lu)
        perm = lu_perm(f.piv)
        assert sorted(perm.tolist()) == list(range(n))
        assert np.linalg.norm(A[perm] - L @ U, "fro") <= 1e-12 * np.linalg.norm(A, "fro")
        assert f.growth == np.abs(U).max() / np.abs(A).max()


def test_empty_factorization_has_zero_growth():
    f = lu_factor(np.zeros((0, 0), dtype=complex))
    assert f.n == 0 and f.growth == 0.0


def test_lu_solve_backward_accuracy():
    rng = np.random.default_rng(2)
    for n in (2, 8, 16):
        A = conditioned_similarity(n, 100.0, rng)
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        X = lu_solve(A, B)
        assert (np.linalg.norm(A @ X - B, "fro")
                <= 1e-10 * np.linalg.norm(B, "fro"))


def test_lu_solve_transpose_mode():
    rng = np.random.default_rng(3)
    A = conditioned_similarity(5, 20.0, rng)
    B = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    X = lu_factor(A).solve(B, trans=True)
    assert np.linalg.norm(A.T @ X - B, "fro") <= 1e-11 * np.linalg.norm(B, "fro")


def test_lu_factor_rejects_singular():
    # the breakdown signal itself, with no chain index to stamp
    with pytest.raises(BreakdownError) as info:
        lu_factor(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    assert info.value.index is None
    with pytest.raises(BreakdownError):
        lu_factor(np.zeros((3, 3), dtype=complex))
    # a sum that cancels to rounding error of its unit-sized terms
    tiny = np.array([[1e-15]], dtype=complex)
    ones = np.ones((1, 1), dtype=complex)
    assert lu_factor(tiny).n == 1    # regular against its own scale
    with pytest.raises(BreakdownError):
        lu_factor(ones, tiny - ones)
    # a row that cancels on its own scale fails both tests, named in turn
    with pytest.raises(BreakdownError, match=r"^pivot \S+ below cutoff \S+, "
                       r"row-scaled pivot \S+ below \S+$"):
        lu_factor(np.diag([-1.0, 1e14]).astype(complex),
                  np.eye(2, dtype=complex))
    # a row whose largest entry is subnormal: its scale 2**1029 would
    # overflow, so the exponent is floored at -1023 and the scaled test
    # still sees the row cancel
    with pytest.raises(BreakdownError, match="row-scaled pivot"):
        lu_factor(np.array([[1.0, 1.0], [1e-310, 1e-310]], dtype=complex))


@pytest.mark.parametrize("trans", [False, True])
def test_lu_factor_judges_each_row_on_its_own_scale(trans):
    """On a sum whose rows differ in scale by 1e14 the normwise cutoff
    fails and the row-scaled factorization decides; it pivots as zgetrf
    does, so with its exact scales undone the factors kept are those of
    the sum itself, bit for bit, and they solve."""
    rng = np.random.default_rng(4)
    A = np.diag([0.5, 1e14]) + 1e-3 * rng.standard_normal((2, 2)) + 0j
    B = np.eye(2, dtype=complex)
    M = A + B
    f = lu_factor(A, B)
    lu, piv, _ = zgetrf(M)
    assert f.lu.tobytes() == lu.tobytes() and f.piv.tobytes() == piv.tobytes()
    assert f.a_max == np.abs(M).max()
    # the normwise cutoff fails, so the row-scaled pivot decides
    assert np.abs(lu.diagonal()).min() < PIVOT_SAFETY * 2 * EPS * f.a_max
    rhs = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    X = f.solve(rhs, trans=trans)
    expected = np.linalg.solve(M.T if trans else M, rhs)
    assert np.linalg.norm(X - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("trans", [False, True])
def test_lu_factor_keeps_the_row_scaled_pivot_order(trans):
    """zgetrf pivots [[1, 1e20], [0.5, 1]] on its first row, where the 1
    is rounding error of the 1e20, and then loses the second row; the
    row-scaled sum pivots on the second row.  The factors kept are those
    of the sum in that order, and they solve as the row-equilibrated sum
    does, although the sum's normwise condition number is about 1e20."""
    A = np.array([[0.0, 1e20], [0.5, 0.0]], dtype=complex)
    B = np.eye(2, dtype=complex)
    M = A + B
    f = lu_factor(A, B)
    assert zgetrf(M)[1].tolist() == [0, 1] and f.piv.tolist() == [1, 1]
    L, U = np.tril(f.lu, -1) + np.eye(2), np.triu(f.lu)
    assert np.allclose(L @ U, M[lu_perm(f.piv)], rtol=EPS, atol=0.0)
    assert f.a_max == 1e20
    s = np.array([2.0**-67, 0.5])   # each row's largest entry into [0.5, 1)
    E = s[:, None] * M
    rhs = np.array([[1.0, 1e20 + 1.0], [1.5, 0.5j]])
    X = f.solve(rhs, trans=trans)
    expected = (s[:, None] * np.linalg.solve(E.T, rhs) if trans
                else np.linalg.solve(E, s[:, None] * rhs))
    assert np.abs(X - expected).max() <= 1e-14 * np.abs(expected).max()


def test_lu_factor_solves_as_the_row_equilibrated_sum():
    """Seeded sums D (G + I) whose rows span 10^+-15 and whose entries
    span 1e-20..1 within a row, so that zgetrf pivots on entries that
    are rounding error of their rows: where the row-scaled test decides,
    every solve, either way round, matches the row-equilibrated sum's to
    its condition number.  (Where the normwise test passes, zgetrf's
    factors are kept as they are.)"""
    rng = np.random.default_rng(5)
    decided = 0
    for _ in range(40):
        n = int(rng.integers(3, 13))
        d = 10.0 ** rng.uniform(-15, 15, n)
        G = 10.0 ** rng.uniform(-20, 0, (n, n)) * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        A, B = d[:, None] * G, np.diag(d).astype(complex)
        f = lu_factor(A, B)
        lu = zgetrf(A + B)[0]
        if (np.abs(lu.diagonal()).min()
                >= PIVOT_SAFETY * n * EPS * max(np.abs(A).max(), f.a_max)):
            continue
        decided += 1
        rows = np.max([np.abs(T).max(axis=1) for T in (A, B, A + B)], 0)
        s = np.ldexp(1.0, -np.frexp(rows)[1])
        E = s[:, None] * (A + B)
        rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for X, expected in (
                (f.solve(rhs), np.linalg.solve(E, s[:, None] * rhs)),
                (f.solve(rhs, trans=True),
                 s[:, None] * np.linalg.solve(E.T, rhs))):
            assert (np.linalg.norm(X - expected) <= 1e-14 * np.linalg.cond(E)
                    * np.linalg.norm(expected))
    assert decided >= 30, decided


def test_lu_factor_keeps_zgetrf_where_the_scaled_order_overflows():
    """Rows 2**1330 apart: the factors of the sum in the row-scaled pivot
    order would overflow (a multiplier near 2**1330), so zgetrf's are
    kept, and they solve with a small normwise residual."""
    a, b = np.ldexp(0.9, -1000), np.ldexp(0.6, 330)
    M = np.array([[a, a], [b, -b / 2]], dtype=complex)
    lu, piv, _ = zgetrf(M)
    assert piv.tolist() == [1, 1]
    assert zgetrf(np.diag([2.0**1000, 2.0**-330]) @ M)[1].tolist() == [0, 1]
    f = lu_factor(M)
    assert f.lu.tobytes() == lu.tobytes() and f.piv.tobytes() == piv.tobytes()
    rhs = M @ np.array([[1.0], [1.0j]])
    X = f.solve(rhs)
    assert np.all(np.isfinite(X))
    assert np.linalg.norm(M @ X - rhs) <= 1e-14 * b * np.linalg.norm(X)


def test_null_space_full_rank_is_empty():
    basis = null_space_basis(np.eye(2, dtype=complex))
    assert basis.basis.shape == (2, 0)


def test_null_space_exact_zero_row():
    basis = null_space_basis(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    assert basis.dim == 1
    assert abs(abs(basis.basis[1, 0]) - 1.0) <= 1e-14


def test_null_space_rank_one_symmetric():
    basis = null_space_basis(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    expected = np.array([[1.0], [-1.0]], dtype=complex) / np.sqrt(2)
    assert basis.dim == 1
    assert subspace_distance(basis.basis, expected) <= 1e-12


@pytest.mark.parametrize("ref, dim", [(0.0, 1), (1e6, 2), (1e-3, 0)])
def test_null_space_cut_is_relative_to_ref(ref, dim):
    # |r_jj| >= DEFAULT_RANK_TOL * (ref or |r_11|): without ref the cut
    # (1e-8) falls between 1e-3 and 1e-9; ref = 1e6 lifts it above 1e-3,
    # ref = 1e-3 drops it below 1e-9
    A = np.diag([1.0, 1e-3, 1e-9]).astype(complex)
    assert null_space_basis(A, ref).dim == dim


def test_null_space_recovers_constructed_dimension():
    rng = np.random.default_rng(4)
    for n, m in [(3, 0), (5, 1), (8, 2), (6, 2)]:
        Q = random_unitary(n, rng)
        sing = np.concatenate([np.linspace(1.0, 2.0, n - m), np.zeros(m)])
        A = (random_unitary(n, rng) * sing) @ Q.conj().T
        basis = null_space_basis(A)
        assert basis.dim == m
        true = Q[:, n - m:]
        assert subspace_distance(basis, SubspaceBasis(true)) <= 1e-8


def test_subspace_distance_examples():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    diag = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
    assert subspace_distance(e1, e1) == 0.0
    assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)
    assert subspace_distance(e1, diag) == pytest.approx(0.70710678, abs=1e-8)


def test_subspace_distance_of_different_dimensions_is_one():
    """Exactly 1.0: on orthonormal bases of dims 1 and 2 the general
    formula alone reads below 1.0 in 60 of these 150 draws (lowest
    0.9999999999999996)."""
    rng = np.random.default_rng(0)
    for n in (3, 6, 12):
        for _ in range(50):
            U = random_unitary(n, rng)[:, :1]
            V = random_unitary(n, rng)[:, :2]
            assert subspace_distance(U, V) == subspace_distance(V, U) == 1.0


def test_subspace_distance_of_orthogonal_spans_is_at_most_one():
    """On orthogonal 2-dimensional spans the formula alone reads above 1.0
    in 70 of these 150 draws (highest 1 + 7e-16); the distance never does."""
    rng = np.random.default_rng(0)
    for n in (4, 8, 16):
        for _ in range(50):
            Q = random_unitary(n, rng)
            d = subspace_distance(Q[:, :2], Q[:, 2:4])
            assert 1.0 - 1e-15 <= d <= 1.0


def test_subspace_distance_checks_arrays_like_a_basis():
    # 2*e1 spans e1's line but is no orthonormal basis of it
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    for U, V in ((2 * e1, e1), (e1, 2 * e1)):
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_distance(U, V)


def test_subspace_distance_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        mu = int(rng.integers(0, n + 1))
        mv = int(rng.integers(0, n + 1))
        U = np.linalg.qr(rng.standard_normal((n, mu))
                         + 1j * rng.standard_normal((n, mu)))[0] if mu else np.zeros((n, 0), complex)
        V = np.linalg.qr(rng.standard_normal((n, mv))
                         + 1j * rng.standard_normal((n, mv)))[0] if mv else np.zeros((n, 0), complex)
        d_uv = subspace_distance(U, V)
        assert 0.0 <= d_uv <= 1.0
        assert d_uv == subspace_distance(V, U)
        assert subspace_distance(U, U) <= 1e-12
        if mu == mv and mu > 0:
            # same span under a random unitary column mix
            W = U @ random_unitary(mu, rng)
            assert subspace_distance(U, W) <= 1e-12


def _projector_distance(U, V):
    """Oracle: the 2-norm of the projector difference, formed explicitly."""
    return float(np.linalg.norm(U @ U.conj().T - V @ V.conj().T, 2))


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("angle", [1e-14, 1e-10, 1e-6, 1e-3, 0.3, 1.0, np.pi / 2])
def test_subspace_distance_matches_projector_oracle(n, angle):
    rng = np.random.default_rng(int(n * 1000 + angle * 1e3))
    for m in (0, 1, n // 2, n):
        Q = random_unitary(n, rng)
        U = Q[:, :m]
        if 2 * m <= n:
            # principal angles in [0, angle], the largest equal to angle
            theta = angle * np.concatenate([[1.0], rng.random(max(m - 1, 0))])[:m]
            V = U * np.cos(theta) + Q[:, m:2 * m] * np.sin(theta)
            expected = np.sin(angle) if m else 0.0
        else:
            V = random_unitary(n, rng)       # both span all of C^n
            expected = 0.0
        V = V @ random_unitary(m, rng) if m else V
        d = subspace_distance(U, V)
        assert abs(d - _projector_distance(U, V)) <= 1e-14
        assert abs(d - expected) <= 1e-14
        assert d == subspace_distance(V, U)


@pytest.mark.parametrize("n", [0, 1, 5, 64])
@pytest.mark.parametrize("trans", [False, True])
def test_lu_factorization_solve_matches_numpy(n, trans):
    rng = np.random.default_rng(100 + n)
    A = (conditioned_similarity(n, 30.0, rng) if n
         else np.zeros((0, 0), dtype=complex))
    f = lu_factor(A)
    for nrhs in sorted({0, 1, n}):
        B = rng.standard_normal((n, nrhs)) + 1j * rng.standard_normal((n, nrhs))
        X = f.solve(B, trans=trans)
        expected = np.linalg.solve(A.T if trans else A, B) if n else B
        assert X.shape == (n, nrhs) and X.dtype == np.complex128
        assert (np.linalg.norm(X - expected, "fro")
                <= 1e-12 * max(np.linalg.norm(expected, "fro"), 1.0))


def test_subspace_distance_ambient_mismatch():
    with pytest.raises(ValueError, match="ambient dimensions differ: 2 vs 3"):
        subspace_distance(np.zeros((2, 0), dtype=complex),
                          np.zeros((3, 0), dtype=complex))


def test_smallest_singular_subspace_picks_bottom_directions():
    A = np.diag([5.0, 1e-3, 2.0]).astype(complex)
    basis = smallest_singular_subspace(A, 1)
    assert abs(abs(basis.basis[1, 0]) - 1.0) <= 1e-12


def _orthonormality_defect(B):
    return float(np.abs(B.conj().T @ B - np.eye(B.shape[1])).max(initial=0.0))


def _with_singular_values(rows, sing, rng, scatter=False):
    """``rows``-by-n matrix ``U diag(sing) V^H`` and its right factor V.

    With ``scatter`` U is a random selection of unit vectors with random
    phases, so each singular direction is one row, in random order: the
    first rows need not be the dominant ones, and only pivoting finds them.
    """
    n = len(sing)
    if scatter:
        U = np.zeros((rows, n), dtype=complex)
        U[rng.permutation(rows)[:n], np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
    else:
        U = random_unitary(rows, rng)[:, :n]
    V = random_unitary(n, rng)
    return (U * sing) @ V.conj().T, V


@pytest.mark.parametrize("rows_extra", [0, 3])
def test_smallest_singular_subspace_exact_null_space(rows_extra):
    rng = np.random.default_rng(8)
    for n, m in [(1, 1), (4, 1), (7, 3), (12, 6), (20, 19)]:
        sing = np.concatenate([np.linspace(1.0, 3.0, n - m), np.zeros(m)])
        A, V = _with_singular_values(n + rows_extra, sing, rng)
        basis = smallest_singular_subspace(A, m)
        assert basis.basis.shape == (n, m)
        assert subspace_distance(basis, V[:, n - m:]) <= 1e-12
        assert np.linalg.norm(A @ basis.basis) <= 1e-13 * n
        assert _orthonormality_defect(basis.basis) <= 1e-13


@pytest.mark.parametrize("shape,dim", [
    ((0, 0), 0), ((0, 4), 0), ((0, 4), 2), ((0, 4), 4), ((4, 0), 0),
    ((3, 7), 4), ((3, 7), 7), ((7, 3), 1), ((7, 3), 3),
    ((5, 5), 0), ((5, 5), 5), ((3, 7), 2),
])
def test_smallest_singular_subspace_edge_shapes(shape, dim):
    """Both extractions on a random matrix of full rank ``min(shape)``;
    the threshold rule finds that rank, so its basis is the exact null
    space.  At ``(3, 7)`` with ``dim = 2`` the QR has fewer reflectors
    (3) than the 5 leading columns dropped."""
    rng = np.random.default_rng(10)
    A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    null_dim = shape[1] - min(shape)
    for basis, m in ((smallest_singular_subspace(A, dim), dim),
                     (null_space_basis(A), null_dim)):
        assert basis.basis.shape == (shape[1], m)
        assert basis.basis.dtype == np.complex128
        assert _orthonormality_defect(basis.basis) <= 1e-13
        if m <= null_dim:     # inside the exact null space
            assert np.linalg.norm(A @ basis.basis) <= 1e-12


@pytest.mark.parametrize("dim", [0, 1, 3, 4])
def test_smallest_singular_subspace_zero_matrix(dim):
    basis = smallest_singular_subspace(np.zeros((4, 4), dtype=complex), dim)
    assert basis.basis.shape == (4, dim)
    assert _orthonormality_defect(basis.basis) <= 1e-15


def test_smallest_singular_subspace_rejects_bad_dim():
    """The extraction trusts its ``dim``; a run checks ``expected_dim``
    against the pencil where it starts, before element 1 is observed."""
    seen = []
    pencil = Pencil(np.eye(3, dtype=complex), 2 * np.eye(3, dtype=complex))
    with pytest.raises(ValueError,
                       match="^expected_dim must be between 0 and 3, got 4$"):
        modified_ab_run(pencil, AccelConfig(2, 1e-10, 10, expected_dim=4),
                        observer=lambda *x: seen.append(x))
    assert seen == []


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 14), rows_extra=st.integers(0, 3),
       r_frac=st.floats(0.0, 1.0), ratio=st.floats(0.0, 1e-8),
       scatter=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_smallest_singular_subspace_follows_a_wide_gap(n, rows_extra, r_frac,
                                                       ratio, scatter, seed):
    """With sigma_{r+1} / sigma_r <= 1e-8 the pivoted-QR span of dimension
    n - r lies within 1e-6 of the trailing right singular vectors.  With
    the gap widened to 1e-10 around DEFAULT_RANK_TOL (sigma_r >= 0.1
    sigma_max), the threshold rule finds rank r and the same span; for
    r = 0 its relative rule sees rank 0 only in the zero matrix."""
    r = int(round(r_frac * n))
    extractions = [(lambda A: smallest_singular_subspace(A, n - r), 1.0)]
    if r > 0 or ratio == 0.0:
        extractions.append((null_space_basis, 1e-2))
    for extract, widen in extractions:
        rng = np.random.default_rng(seed)
        top = rng.uniform(1.0, 10.0, r)
        low = top.min(initial=1.0) * ratio * widen * rng.random(n - r)
        A, V = _with_singular_values(n + rows_extra, np.concatenate([top, low]),
                                     rng, scatter)
        basis = extract(A)
        assert basis.dim == n - r
        assert subspace_distance(basis, V[:, r:]) <= 1e-6
        assert _orthonormality_defect(basis.basis) <= 1e-13


def test_subspace_basis_holds_a_complex_array():
    B = SubspaceBasis(np.eye(2)).basis
    assert type(B) is np.ndarray and B.dtype == np.complex128


def test_norm_of_the_largest_exponent():
    """frexp puts 1e308 at exponent 1024, whose scale 2**1024 overflows;
    the exponent is clamped at 1023."""
    assert _norm(np.array([[1e308 + 0j]])) == 1e308


def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        SubspaceBasis(np.array([[1.0], [1.0]], dtype=complex))


def test_subspace_basis_rejects_more_columns_than_rows():
    with pytest.raises(ValueError, match="m > n"):
        SubspaceBasis(np.eye(2, 3, dtype=complex))


def test_induced_norm2_examples():
    assert induced_norm2(np.eye(3, dtype=complex)) == pytest.approx(1.0, rel=1e-12)
    assert induced_norm2(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0, rel=1e-12)
    assert induced_norm2(np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)) == pytest.approx(2.0, rel=1e-10)


def test_matrix_power_sum_examples():
    assert np.allclose(matrix_power_sum(np.array([[0.5 + 0j]]), 3), [[1.75]], atol=1e-15)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(matrix_power_sum(A, 1), np.eye(3), atol=1e-15)
    assert np.allclose(matrix_power_sum(np.eye(2, dtype=complex), 4), 4 * np.eye(2), atol=1e-14)


def test_matrix_power_sum_telescopes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A *= 0.9 / max(np.linalg.norm(A, 2), 1e-12)
        k = int(rng.integers(1, 21))
        lhs = matrix_power_sum(A, k) @ (np.eye(n) - A)
        rhs = np.eye(n) - np.linalg.matrix_power(A, k)
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-10
