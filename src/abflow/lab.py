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
from functools import partial
from typing import NamedTuple

import numpy as np

from .linalg import EPS, SubspaceBasis, _norm, lu_factor, subspace_distance
from .pencil import (
    BREAKDOWN_TOL,
    AccelConfig,
    Pencil,
    _check_settings,
    _integer,
    _number,
    _real,
    breakdown_check,
    modified_ab_run,
)
from .sqrtm import SqrtProblem, _residual_of, sqrtm_ab
from .trace import ConvergenceTrace

#: Largest chain index scanned when classifying unit-circle eigenvalues.
_BREAKDOWN_SCAN = 64

#: Largest share of a generator's margin by which rounding in ``P D P^{-1}``
#: may move an eigenvalue.  The move is bounded by about
#: ``cond**2 * EPS * max|lambda|`` and measures 50 to 300 times less, so
#: under the bound it stays near 2e-7 of the margin.
_DRIFT = 1e-5


@dataclass(frozen=True)
class SpectrumEntry:
    """One requested eigenvalue with multiplicity and Jordan structure."""

    value: complex
    multiplicity: int = 1
    semisimple: bool = True

    def __post_init__(self):
        object.__setattr__(self, "value", _number(self.value))
        if not np.isfinite(self.value):
            raise ValueError(f"eigenvalue {self.value} is not finite")
        _integer("multiplicity", self.multiplicity, 1)


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
            raise ValueError("spectrum must be nonempty")
        object.__setattr__(self, "spectrum", entries)
        object.__setattr__(self, "cond", _real("cond", self.cond, 1))
        _integer("seed", self.seed, 0)

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
    n = _integer("n", n, 0)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def conditioned_similarity(n: int, cond: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Random matrix with 2-norm condition number exactly ``cond``."""
    cond = _real("cond", cond, 1)
    U = random_unitary(n, rng)
    V = random_unitary(n, rng)
    s = np.logspace(0.0, math.log10(cond), n)
    return (U * s) @ V.conj().T


def _similar_to_blocks(spec: ProblemSpec, entries):
    """``(rng, D, P, P D P^{-1})``: ``D`` holds the diagonal runs and
    Jordan blocks of ``entries`` (``spec.spectrum`` reordered); ``P`` is
    the first draw of ``rng``, seeded with ``spec.seed``."""
    D = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    pos = 0
    for e in entries:
        m = e.multiplicity
        D[pos:pos + m, pos:pos + m] = e.value * np.eye(m)
        if not e.semisimple:
            D[pos:pos + m - 1, pos + 1:pos + m] += np.eye(m - 1)
        pos += m
    rng = np.random.default_rng(spec.seed)
    P = conditioned_similarity(spec.dim, spec.cond, rng)
    return rng, D, P, lu_factor(P.T).solve((P @ D).T).T


def _check_drift(spec: ProblemSpec, what: str, margins) -> None:
    """Raise ``ValueError`` naming ``cond`` once ``cond**2 * EPS *
    max|lambda|`` passes ``_DRIFT`` of the smallest of ``margins``: the
    nonzero real parts for a square root, the distances of the moduli
    off the unit circle from it for a pencil."""
    drift = spec.cond ** 2 * EPS * max(abs(e.value) for e in spec.spectrum)
    margin = min(margins, default=math.inf)
    if drift > _DRIFT * margin:
        raise ValueError(
            f"cond {spec.cond:g} is too large for this spectrum: rounding may "
            f"move an eigenvalue by {drift:.1e}, over {_DRIFT:g} of the "
            f"{what} {margin:g}")


def make_known_sqrt_problem(spec: ProblemSpec):
    """Build ``(S, X_true)`` with ``X_true`` the principal root of S.

    ``X_true = P D P^{-1}`` carries the requested spectrum (strict right
    half-plane, or semisimple zeros) and ``S = X_true ** 2``.

    Raises
    ------
    ValueError
        For eigenvalues with nonpositive real part other than semisimple
        zeros, and when ``cond`` lets rounding move an eigenvalue of
        ``X_true`` by more than 1e-5 of the smallest nonzero real part,
        so that ``X_true`` could lose the requested spectrum.
    BreakdownError
        When ``lu_factor`` finds the similarity ``P`` numerically singular.
    """
    for e in spec.spectrum:
        if e.value == 0 and not e.semisimple:
            raise ValueError("zero eigenvalues must be semisimple")
        if e.value != 0 and e.value.real <= 0:
            raise ValueError(
                f"eigenvalue {e.value} lies outside the open right half-plane")
    *_, X = _similar_to_blocks(spec, spec.spectrum)
    _check_drift(spec, "smallest real part",
                 (e.value.real for e in spec.spectrum if e.value))
    return X @ X, X


def make_pencil_problem(spec: ProblemSpec, random_b: bool = False) -> PencilProblem:
    """Construct a pencil with a known stable deflating subspace.

    Stable eigenvalues (|lambda| < 1) occupy the leading columns of the
    similarity transform; the returned basis is their orthonormalized
    span and ``stable_block`` the matching coupling block.  Unit-circle
    eigenvalues are accepted only when they sit on a root of unity, in
    which case ``expected_breakdown`` carries the first breaking chain
    step; anything else on the circle is rejected.  A numerically
    singular similarity raises ``BreakdownError``, and a ``cond`` whose
    rounding could move the stable count ``ValueError`` (``_check_drift``).

    With ``random_b`` the second pencil matrix is a conditioned random
    matrix absorbed into the first (otherwise it is the identity).
    """
    stable, rest, circle = [], [], []
    for e in spec.spectrum:
        r = abs(e.value)
        on_circle = abs(r - 1.0) <= BREAKDOWN_TOL
        if on_circle:
            if breakdown_check([e.value], _BREAKDOWN_SCAN) is None:
                raise ValueError(
                    f"unit-circle eigenvalue {e.value} is not a root of unity")
            circle.append(e.value)
        (stable if r < 1.0 and not on_circle else rest).append(e)
    rng, D, P, M = _similar_to_blocks(spec, stable + rest)
    _check_drift(spec, "smallest distance of a modulus from the unit circle",
                 (g for e in spec.spectrum
                  if (g := abs(abs(e.value) - 1.0)) > BREAKDOWN_TOL))
    m = sum(e.multiplicity for e in stable)
    B = (conditioned_similarity(spec.dim, min(spec.cond, 10.0), rng)
         if random_b else np.eye(spec.dim, dtype=np.complex128))
    A = B @ M
    U, R = np.linalg.qr(P[:, :m])
    Lam = lu_factor(R.T).solve((R @ D[:m, :m]).T).T
    defect = _norm(A @ U - B @ U @ Lam)
    if defect > 1e-11 * max(1.0, _norm(A)):
        raise RuntimeError(f"generator self-check failed: defect {defect:.2e}")
    return PencilProblem(Pencil(A, B), SubspaceBasis(U), Lam,
                         breakdown_check(circle, _BREAKDOWN_SCAN))


def run_experiment(kind: str, spec: ProblemSpec, *,
                   order: int = SqrtProblem.order,
                   gamma: float = SqrtProblem.gamma,
                   tol: float = SqrtProblem.tol,
                   kmax: int = 40) -> ConvergenceTrace:
    """Generate a problem, run a solver, and record true-error decay.

    Parameters
    ----------
    kind : {"sqrt", "pencil"}
    spec : ProblemSpec
    order : int
        Acceleration order; ``order=1`` drives the plain chain.
    gamma : float
        Shift for square-root runs, checked for either kind.
    tol, kmax :
        Solver stopping parameters (relative successive difference for
        sqrt, subspace distance for pencil).  Pencil runs use B = I.
        All four settings are checked before the problem is generated.

    Returns
    -------
    ConvergenceTrace
        One row per observed element, element 1 included: the observer's
        index (``iterate.k`` for pencil, k for sqrt), the true error
        against the constructed answer, the residual (for sqrt after
        element 1, the solver trace's own), and the solver's wall seconds
        since the previous observation (or its start), this recording
        left out.  Deterministic for a fixed ``spec``, apart from the
        wall-time column.
    """
    _real("gamma", gamma, 0)
    tol = _check_settings(order, tol, kmax)
    if kind == "sqrt":
        S, X = make_known_sqrt_problem(spec)
        xnorm = _norm(X) or 1.0
        residual = _residual_of(S)

        def measure(k, Q):    # later residuals come from the solver's trace
            return k, _norm(Q - X) / xnorm, residual(Q)[0] if k == 1 else None

        solve = partial(sqrtm_ab, SqrtProblem(S, gamma=gamma, order=order,
                                              tol=tol, kmax=kmax))
    elif kind == "pencil":
        prob = make_pencil_problem(spec)
        target = prob.basis

        def measure(it, basis):
            aknorm = _norm(it.A_k) or 1.0
            return (it.k, subspace_distance(basis, target),
                    _norm(it.A_k @ target.basis) / aknorm)

        solve = partial(modified_ab_run, prob.pencil,
                        AccelConfig(order, tol, kmax, target.dim))
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")
    rows = []
    last = time.perf_counter()

    def record(*element):     # times the solver only, not this call
        nonlocal last
        seconds = time.perf_counter() - last
        rows.append((*measure(*element), seconds))
        last = time.perf_counter()

    result = solve(observer=record)
    steps, errors, resids, seconds = zip(*rows)
    if kind == "sqrt":
        resids = resids[:1] + result.trace.residuals
    return ConvergenceTrace(steps, errors, resids, seconds, result.status.value)
