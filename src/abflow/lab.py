"""Problem generators with known answers and convergence experiments.

Generators build matrices by prescribed spectrum and a conditioned
similarity transform, seeded through numpy's PCG64 generator so the same
spec reproduces the same problem on any platform.  Experiments run a
solver while recording true errors (the ground truth is known by
construction) and emit machine-readable traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpectrumError
from .linalg import SubspaceBasis, subspace_distance
from .pencil import (
    BREAKDOWN_TOL,
    AccelConfig,
    Pencil,
    breakdown_check,
    modified_ab_run,
)
from .sqrtm import SqrtProblem, sqrtm_ab
from .trace import ConvergenceTrace, _order_estimates

__all__ = [
    "SpectrumEntry", "ProblemSpec", "PencilProblem",
    "make_known_sqrt_problem", "make_pencil_problem", "run_experiment",
    "random_unitary", "conditioned_similarity",
]

#: Largest chain index scanned when classifying unit-circle eigenvalues.
_BREAKDOWN_SCAN = 64


@dataclass(frozen=True)
class SpectrumEntry:
    """One requested eigenvalue with multiplicity and Jordan structure."""

    value: complex
    multiplicity: int = 1
    semisimple: bool = True

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        if self.multiplicity < 1:
            raise InvalidSpectrumError("multiplicity must be positive")


@dataclass(frozen=True)
class ProblemSpec:
    """Reproducible problem description: spectrum, conditioning, seed."""

    spectrum: tuple
    cond: float = 10.0
    seed: int = 0

    def __post_init__(self):
        entries = tuple(
            e if isinstance(e, SpectrumEntry) else SpectrumEntry(e)
            for e in self.spectrum)
        if not entries:
            raise InvalidSpectrumError("spectrum must be nonempty")
        object.__setattr__(self, "spectrum", entries)
        if self.cond < 1:
            raise InvalidSpectrumError("cond must be at least 1")

    @property
    def dim(self) -> int:
        """Matrix size: the sum of the multiplicities."""
        return sum(e.multiplicity for e in self.spectrum)


class PencilProblem(NamedTuple):
    pencil: Pencil
    basis: SubspaceBasis
    stable_block: np.ndarray
    expected_breakdown: int | None


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from a complex Ginibre QR with fixed phases."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def conditioned_similarity(n: int, cond: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Random matrix with 2-norm condition number exactly ``cond``."""
    if cond < 1:
        raise ValueError("cond must be at least 1")
    U = random_unitary(n, rng)
    V = random_unitary(n, rng)
    s = np.logspace(0.0, math.log10(cond), n) if n > 1 else np.ones(1)
    return (U * s) @ V.conj().T


def _solve_right(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    return np.linalg.solve(M.T, B.T).T


def _blocks_matrix(entries) -> np.ndarray:
    """Block-diagonal matrix of diagonal runs and Jordan blocks."""
    items = list(entries)
    n = sum(e.multiplicity for e in items)
    D = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for e in items:
        m = e.multiplicity
        D[pos:pos + m, pos:pos + m] = e.value * np.eye(m)
        if not e.semisimple and m > 1:
            D[pos:pos + m - 1, pos + 1:pos + m] += np.eye(m - 1)
        pos += m
    return D


def make_known_sqrt_problem(spec: ProblemSpec):
    """Build ``(S, X_true)`` with ``X_true`` the principal root of S.

    ``X_true = P D P^{-1}`` carries the requested spectrum (strict right
    half-plane, or semisimple zeros) and ``S = X_true ** 2``.

    Raises
    ------
    InvalidSpectrumError
        For eigenvalues with nonpositive real part other than semisimple
        zeros.
    """
    for e in spec.spectrum:
        if e.value == 0:
            if not e.semisimple:
                raise InvalidSpectrumError(
                    "zero eigenvalues must be semisimple")
        elif e.value.real <= 0:
            raise InvalidSpectrumError(
                f"eigenvalue {e.value} lies outside the open right half-plane")
    rng = np.random.default_rng(spec.seed)
    D = _blocks_matrix(spec.spectrum)
    P = conditioned_similarity(spec.dim, spec.cond, rng)
    X = _solve_right(P @ D, P)
    S = X @ X
    return S, X


def _classify(value: complex):
    """'stable', 'anti', or the breakdown index for unit-circle values."""
    r = abs(value)
    if abs(r - 1.0) <= BREAKDOWN_TOL:
        k = breakdown_check([value], _BREAKDOWN_SCAN)
        if k is None:
            raise InvalidSpectrumError(
                f"unit-circle eigenvalue {value} is not a root of unity")
        return k
    return "stable" if r < 1.0 else "anti"


def make_pencil_problem(spec: ProblemSpec, random_b: bool = False) -> PencilProblem:
    """Construct a pencil with a known stable deflating subspace.

    Stable eigenvalues (|lambda| < 1) occupy the leading columns of the
    similarity transform; the returned basis is their orthonormalized
    span and ``stable_block`` the matching coupling block.  Unit-circle
    eigenvalues are accepted only when they sit on a root of unity, in
    which case ``expected_breakdown`` carries the first breaking chain
    step; anything else on the circle is rejected.

    With ``random_b`` the second pencil matrix is a conditioned random
    matrix absorbed into the first (otherwise it is the identity).
    """
    stable, rest, tags = [], [], []
    for e in spec.spectrum:
        cls = _classify(e.value)
        if cls == "stable":
            stable.append(e)
        else:
            rest.append(e)
            if cls != "anti":
                tags.append(cls)
    rng = np.random.default_rng(spec.seed)
    D = _blocks_matrix(stable + rest)
    m = sum(e.multiplicity for e in stable)
    P = conditioned_similarity(spec.dim, spec.cond, rng)
    M = _solve_right(P @ D, P)
    if random_b:
        B = conditioned_similarity(spec.dim, min(spec.cond, 10.0), rng)
        A = B @ M
    else:
        B = np.eye(spec.dim, dtype=np.complex128)
        A = M
    U, R = np.linalg.qr(P[:, :m])
    D_s = D[:m, :m]
    Lam = _solve_right(R @ D_s, R) if m else np.zeros((0, 0), np.complex128)
    basis = SubspaceBasis(U)
    defect = np.linalg.norm(A @ U - B @ U @ Lam, "fro")
    scale = max(1.0, np.linalg.norm(A, "fro"))
    if defect > 1e-11 * scale:
        raise RuntimeError(f"generator self-check failed: defect {defect:.2e}")
    return PencilProblem(Pencil(A, B), basis, Lam,
                         min(tags) if tags else None)


def run_experiment(kind: str, spec: ProblemSpec, *, order: int = 2,
                   gamma: float = 1.0, tol: float = 1e-12,
                   kmax: int = 40) -> ConvergenceTrace:
    """Generate a problem, run a solver, and record true-error decay.

    Parameters
    ----------
    kind : {"sqrt", "pencil"}
    spec : ProblemSpec
    order : int
        Acceleration order; ``order=1`` drives the plain chain.
    gamma : float
        Shift for square-root runs.
    tol, kmax :
        Solver stopping parameters (relative successive difference for
        sqrt, subspace distance for pencil).  Pencil runs use B = I.

    Returns
    -------
    ConvergenceTrace
        Errors are true errors against the constructed answer; order
        estimates use only pre-saturation entries (relative error above
        ``1e2 * eps``).  Deterministic for a fixed ``spec``, apart from
        the wall-time column.
    """
    if kind == "sqrt":
        return _sqrt_experiment(spec, order, gamma, tol, kmax)
    if kind == "pencil":
        return _pencil_experiment(spec, order, tol, kmax)
    raise ValueError(f"unknown experiment kind {kind!r}")


def _sqrt_experiment(spec, order, gamma, tol, kmax):
    S, X = make_known_sqrt_problem(spec)
    xnorm = float(np.linalg.norm(X, "fro")) or 1.0
    errors = []
    prob = SqrtProblem(S, gamma=gamma, order=order, tol=tol, kmax=kmax)
    t = sqrtm_ab(prob, observer=lambda k, Q: errors.append(
        float(np.linalg.norm(Q - X, "fro")) / xnorm)).trace
    # the solver's trace holds every step after gamma*I
    Q1 = gamma * np.eye(S.shape[0], dtype=np.complex128)
    resid1 = float(np.linalg.norm(Q1 @ Q1 - S, "fro")) / (
        float(np.linalg.norm(S, "fro")) or 1.0)
    return ConvergenceTrace((1,) + t.steps, tuple(errors),
                            (resid1,) + t.residuals, _order_estimates(errors),
                            (0.0,) + t.seconds, t.status)


def _pencil_experiment(spec, order, tol, kmax):
    prob = make_pencil_problem(spec)
    target = prob.basis
    A1 = prob.pencil.A
    steps, errors, resids, secs = [], [], [], []
    last = time.perf_counter()

    def record(it, basis):
        nonlocal last
        now = time.perf_counter()
        steps.append(it.k)
        errors.append(subspace_distance(basis, target))
        aknorm = float(np.linalg.norm(it.A_k, "fro")) or 1.0
        resids.append(float(np.linalg.norm(it.A_k @ target.basis, "fro")) / aknorm)
        secs.append(now - last)
        last = now

    cfg = AccelConfig(order, tol, kmax, target.dim)
    result = modified_ab_run(prob.pencil, cfg, observer=record)
    return ConvergenceTrace(tuple(steps), tuple(errors), tuple(resids),
                            _order_estimates(errors), tuple(secs),
                            result.status.value)
