"""Seeded workloads with known answers, driven through abflow's public API.

Every call into abflow goes through a module attribute (``_sqrtm.sqrtm_ab``
and so on), looked up at call time, so the tracer's wrappers see it.  The
answer checks use plain numpy, never abflow code, so they add nothing to
the traced layers.

A *solve* is one public call (or one ``cli.main`` call).  The closed loop
sends *rounds*: a round is a fixed mix of solves, one from each stratum
of the workload's pool, timed together.  Per-solve times on these
families cluster by step count (3 or 5 outer steps at order 8, 6 to 9 at
order 2, a plain chain against an order-2 run), and the median of such
clusters jumps between them from seed to seed; every round has the same
mix, so the per-round figures do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import abflow.accel as _accel
import abflow.cli as _cli
import abflow.lab as _lab
import abflow.pencil as _pencil
import abflow.sqrtm as _sqrtm

#: A converged answer must match the known one to this relative error
#: (sqrt) or subspace distance (pencil).  Fixed before any run: six
#: digits, far above the ~1e-9 that cond <= 300 allows in double precision.
ANSWER_TOL = 1e-6

#: A CLI answer must match the in-process answer for the same input to
#: this relative error: JSON round-trips bit-exactly, so both solve the
#: same matrices.
AGREE_TOL = 1e-10

#: Stopping settings, the CLI defaults; the plain chain needs more steps.
TOL = 1e-12
KMAX = 100
PLAIN_KMAX = 500

SQRT_N = 200
PLAIN_N = 48
ACCEL_N = 128

#: rho bands of F_sqrt.  At order 2 and n=200, problems with rho above
#: about 17 may end in BREAKDOWN or MAX_ITERATIONS (ROADMAP item 5); none
#: of 496 draws with rho <= 12 did, the worst error being 2.5e-9.  The
#: timed CLI loop draws from the converging band, so no operation of it
#: fails, and every traced run measures the converged share of the band
#: above it (``wide_rho_probe``).
CONVERGING_RHO = (2.0, 12.0)
WIDE_RHO = (12.0, 30.0)
WIDE_PROBE = 9

#: Errors below this read as 17 digits.
_ERR_FLOOR = 1e-17

#: Span of each call count that a converged result implies.
_COUNT_SPANS = {
    "lu_factor": "linalg.lu_factor",
    "ab_step": "pencil.ab_step",
    "accel_step": "accel.accel_step",
    "extract": "linalg.extract",
}


@dataclass
class Outcome:
    """Checked result of one round."""

    solves: int = 0
    failed: int = 0
    digits: list = field(default_factory=list)   # per passed solve
    outer_steps: int = 0
    pencil_calls: int = 0
    expect: dict = field(default_factory=dict)   # span -> implied call count
    wrong: list = field(default_factory=list)    # false certificates, disagreements

    def add_counts(self, **counts) -> None:
        for key, value in counts.items():
            span = _COUNT_SPANS[key]
            self.expect[span] = self.expect.get(span, 0) + value


# ----------------------------- problem families -----------------------------

def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _grid(rng, count):
    """Cells of a k-by-k grid, ``count = k*k``, in seeded random order.

    Yields ``(row, u, v)``: the row index and a uniform point in the cell.
    """
    k = math.isqrt(count)
    if k * k != count:
        raise ValueError("pool size must be a square")
    for cell in rng.permutation(count):
        i, j = divmod(int(cell), k)
        yield i, (i + rng.random()) / k, (j + rng.random()) / k


def _rounds(rows_and_items, count, per_round):
    """Group a k-by-k pool into rounds of one item per band of grid rows."""
    k = math.isqrt(count)
    if k % per_round:
        raise ValueError("grid rows must split evenly into bands")
    bands = [[] for _ in range(per_round)]
    for row, item in rows_and_items:
        bands[row * per_round // k].append(item)
    return list(zip(*bands))


@dataclass(frozen=True)
class SqrtCase:
    S: np.ndarray
    X: np.ndarray
    gamma: float


def sqrt_pool(seed: int, count: int, n: int = SQRT_N,
              rho_range=(2.0, 30.0)) -> list:
    """A stratified sample of F_sqrt as ``(grid row, SqrtCase)`` pairs.

    F_sqrt: X eigenvalue magnitudes log-uniform on [a, a*rho] with a
    log-uniform on [0.2, 2] and rho on [2, 30]; arguments uniform on
    +-0.5 rad; similarity cond log-uniform on [10, 300]; gamma from
    ``gamma_heuristic((a, a*rho))``.  The pool holds one problem per cell
    of a k-by-k grid over (log rho, log cond), which set the step count
    and the failures, so every seed draws the same share of each region;
    within its cell each problem is an exact F_sqrt draw.  ``rho_range``
    draws rho from a band of [2, 30] instead; the default is all of it.
    """
    rng = np.random.default_rng([seed, 1, count, *map(int, rho_range)])
    cases = []
    for row, u_rho, u_cond in _grid(rng, count):
        a = _log_uniform(rng.random(), 0.2, 2.0)
        rho = _log_uniform(u_rho, *rho_range)
        cond = _log_uniform(u_cond, 10.0, 300.0)
        mags = a * rho ** rng.random(n)
        args = rng.uniform(-0.5, 0.5, n)
        spec = _lab.ProblemSpec(tuple(mags * np.exp(1j * args)), cond=cond,
                                seed=int(rng.integers(2 ** 32)))
        S, X = _lab.make_known_sqrt_problem(spec)
        cases.append((row, SqrtCase(S, X, _sqrtm.gamma_heuristic((a, a * rho)))))
    return cases


def pencil_case(rng, n: int, u_max: float, u_min: float):
    """One F_pencil problem: cond 10, random B, m = n/2 stable eigenvalues.

    F_pencil: stable moduli 0.9*U(0,1), the rest 1.1 + 2*U(0,1), all
    arguments uniform.  The draw is exact but goes through the extremes
    that set the chain's rate: the largest of m uniforms is
    ``u_max ** (1/m)`` and, given it, the others are uniform below it; the
    smallest of k uniforms is ``1 - (1 - u_min) ** (1/k)`` and the others
    are uniform above it.  Returns the generator's ``PencilProblem``.
    """
    m, k = n // 2, n - n // 2
    top = u_max ** (1.0 / m)
    stable = rng.permutation(np.append(top * rng.random(m - 1), top))
    low = 1.0 - (1.0 - u_min) ** (1.0 / k)
    rest = rng.permutation(np.append(low + (1.0 - low) * rng.random(k - 1), low))
    moduli = np.concatenate([0.9 * stable, 1.1 + 2.0 * rest])
    values = moduli * np.exp(2j * np.pi * rng.random(n))
    spec = _lab.ProblemSpec(tuple(values), cond=10.0,
                            seed=int(rng.integers(2 ** 32)))
    return _lab.make_pencil_problem(spec, random_b=True)


def pencil_pool(seed: int, count: int, n: int, tag: int) -> list:
    """A stratified sample of F_pencil: one problem per cell of a k-by-k
    grid over the quantiles of the largest stable and the smallest
    unstable modulus, so every seed draws the same share of slow and fast
    chains."""
    rng = np.random.default_rng([seed, tag, count, n])
    return [pencil_case(rng, n, u, v) for _, u, v in _grid(rng, count)]


# ----------------------------- answer checks -----------------------------

def rel_err(X, X_true) -> float:
    return float(np.linalg.norm(X - X_true, "fro") / np.linalg.norm(X_true, "fro"))


def subspace_sine(U, V) -> float:
    """``||P_U - P_V||_2`` for orthonormal bases of equal dimension.

    Computed as ``||V - U U^H V||_2``, the sine of the largest principal
    angle, independently of ``abflow.linalg.subspace_distance``.
    """
    if U.shape != V.shape:
        return 1.0
    return float(np.linalg.norm(V - U @ (U.conj().T @ V), 2))


def _accept(out: Outcome, err: float, what: str) -> bool:
    if err > ANSWER_TOL:
        out.failed += 1
        out.wrong.append(f"{what} converged with error {err:.2e}")
        return False
    out.digits.append(-math.log10(max(err, _ERR_FLOOR)))
    return True


def check_sqrt(out: Outcome, case: SqrtCase, X, status, steps: int, order: int):
    out.solves += 1
    out.outer_steps += steps
    if status != "converged":
        out.failed += 1
    elif _accept(out, rel_err(X, case.X), "sqrt"):
        out.add_counts(lu_factor=(order - 1) * steps)


def check_pencil(out: Outcome, prob, U, status, iterations: int, order: int):
    out.solves += 1
    out.outer_steps += iterations
    out.pencil_calls += 1
    if status != "converged":
        out.failed += 1
    elif _accept(out, subspace_sine(prob.basis.basis, U), "pencil"):
        out.add_counts(extract=iterations, lu_factor=iterations - 1)
        if order == 1:
            out.add_counts(ab_step=iterations - 1)
        else:
            out.add_counts(accel_step=iterations - 1)


# ----------------------------- workloads -----------------------------

class Workload:
    """Closed-loop rounds over a seeded pool of problems.

    ``run(i)`` makes the public calls of round ``i`` and is the only part
    that is timed; ``check(i, raw)`` compares the results with the known
    answers.  ``trace_rounds`` is the fixed round count of a traced run,
    so its counts repeat exactly for one seed.
    """

    trace_rounds = 0
    solves_per_round = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rounds = []

    def round(self, i: int):
        return self.rounds[i % len(self.rounds)]

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Work the checks need that is not the system's set-up."""

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> Outcome:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def file_sizes(self, i: int):
        """Bytes read and written through files by round ``i``."""
        return 0, 0

    def sqrt_matrices(self, i: int) -> list:
        """Square-root inputs of round ``i``, for the scipy reference."""
        return []

    def pencils(self, i: int) -> list:
        """Pencils of round ``i``, for the scipy reference."""
        return []


class SqrtWorkload(Workload):
    """``sqrtm_ab`` on an 8x8-stratified F_sqrt pool; a round takes one
    problem from each band of rho."""

    pool_size = 64

    def __init__(self, seed, workdir, order, per_round, trace_rounds):
        super().__init__(seed, workdir)
        self.order = order
        self.solves_per_round = per_round
        self.trace_rounds = trace_rounds

    def setup(self):
        self.rounds = _rounds(sqrt_pool(self.seed, self.pool_size),
                              self.pool_size, self.solves_per_round)

    def run(self, i):
        return [_sqrtm.sqrtm_ab(_sqrtm.SqrtProblem(
                    case.S, gamma=case.gamma, order=self.order, tol=TOL, kmax=KMAX))
                for case in self.round(i)]

    def check(self, i, results):
        out = Outcome()
        for case, res in zip(self.round(i), results):
            check_sqrt(out, case, res.X, res.status.value, len(res.trace.steps),
                       self.order)
        return out

    def describe(self):
        return {"family": "F_sqrt", "n": SQRT_N, "order": self.order,
                "pool": self.pool_size, "solves_per_round": self.solves_per_round,
                "tol": TOL, "kmax": KMAX}

    def sqrt_matrices(self, i):
        return [case.S for case in self.round(i)]


class PencilWorkload(Workload):
    """A round is ``ab_run`` (n=48) then ``modified_ab_run`` (order 2, n=128)."""

    pool_size = 49
    trace_rounds = 12

    def setup(self):
        self.rounds = list(zip(pencil_pool(self.seed, self.pool_size, PLAIN_N, 2),
                               pencil_pool(self.seed, self.pool_size, ACCEL_N, 3)))

    def run(self, i):
        p, q = self.round(i)
        plain = _pencil.ab_run(_pencil.Pencil(p.pencil.A, p.pencil.B), TOL,
                               PLAIN_KMAX, expected_dim=p.basis.dim)
        cfg = _accel.AccelConfig(order=2, tol=TOL, kmax=KMAX,
                                 expected_dim=q.basis.dim)
        accel = _accel.modified_ab_run(_pencil.Pencil(q.pencil.A, q.pencil.B), cfg)
        return plain, accel

    def check(self, i, raw):
        (p, q), (plain, accel) = self.round(i), raw
        out = Outcome()
        check_pencil(out, p, plain.U.basis, plain.status.value, plain.iterations, 1)
        check_pencil(out, q, accel.U.basis, accel.status.value, accel.iterations, 2)
        return out

    def describe(self):
        return {"family": "F_pencil", "pool": self.pool_size, "tol": TOL,
                "plain": {"n": PLAIN_N, "order": 1, "kmax": PLAIN_KMAX},
                "accel": {"n": ACCEL_N, "order": 2, "kmax": KMAX}}

    def pencils(self, i):
        return [prob.pencil for prob in self.round(i)]


def write_matrix(M, path) -> None:
    """The CLI's JSON matrix format, written with the benchmark's own code."""
    M = np.asarray(M, dtype=np.complex128)
    data = np.stack([M.real.ravel(), M.imag.ravel()], axis=1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"rows": M.shape[0], "cols": M.shape[1],
                             "data": data}) + "\n")


def read_matrix(doc, shape) -> np.ndarray:
    """A matrix in the CLI's JSON format; ValueError unless it has ``shape``."""
    data = np.asarray(doc["data"], dtype=float).reshape(-1, 2)
    M = (data[:, 0] + 1j * data[:, 1]).reshape(doc["rows"], doc["cols"])
    if M.shape != shape:
        raise ValueError(f"matrix of shape {M.shape}, expected {shape}")
    return M


def _read_back(reader, shape):
    """``reader(shape)``, or None when a CLI output is missing, malformed
    or holds a matrix of the wrong shape."""
    try:
        return reader(shape)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _unreadable(out: Outcome, what: str, rc: int, ref_status: str) -> None:
    """A CLI solve whose output could not be read back fails; when the
    in-process solve of the same input converged, the CLI also disagrees."""
    out.solves += 1
    out.failed += 1
    if ref_status == "converged":
        out.wrong.append(f"cli {what} exit {rc} without a readable answer; "
                         "the in-process solve converged")


class CliWorkload(Workload):
    """A round is ``cli.main`` on ``sqrt --trace`` (n=200, F_sqrt with rho
    in ``CONVERGING_RHO``, from a 4x4 grid) then on ``pencil --order 2
    --dim m`` (n=128, F_pencil)."""

    pool_size = 16
    trace_rounds = 8
    order = 2

    def setup(self):
        sqrt_cases = [case for _, case in sqrt_pool(self.seed, self.pool_size,
                                                    rho_range=CONVERGING_RHO)]
        pencils = pencil_pool(self.seed, self.pool_size, ACCEL_N, 4)
        self.rounds = []
        for k, (case, prob) in enumerate(zip(sqrt_cases, pencils)):
            paths = [os.path.join(self.workdir, f"{stem}{k}.json")
                     for stem in ("S", "A", "B")]
            for M, path in zip((case.S, prob.pencil.A, prob.pencil.B), paths):
                write_matrix(M, path)
            self.rounds.append((case, prob, paths))
        self.out_x = os.path.join(self.workdir, "X.json")
        self.out_csv = os.path.join(self.workdir, "X.csv")
        self.out_p = os.path.join(self.workdir, "pencil.json")

    def prepare_checks(self):
        """In-process answers for the same inputs, to compare the CLI with."""
        self.ref = []
        for case, prob, _ in self.rounds:
            sq = _sqrtm.sqrtm_ab(_sqrtm.SqrtProblem(
                case.S, gamma=case.gamma, order=self.order, tol=TOL, kmax=KMAX))
            cfg = _accel.AccelConfig(order=2, tol=TOL, kmax=KMAX,
                                     expected_dim=prob.basis.dim)
            pc = _accel.modified_ab_run(prob.pencil, cfg)
            self.ref.append(((sq.X, sq.status.value, len(sq.trace.steps)),
                             (pc.U.basis, pc.status.value, pc.iterations)))

    def argv(self, i):
        case, prob, (s_path, a_path, b_path) = self.round(i)
        sqrt_argv = ["sqrt", "--input", s_path, "--order", str(self.order),
                     "--gamma", repr(case.gamma), "--out", self.out_x,
                     "--trace", self.out_csv]
        pencil_argv = ["pencil", "--a", a_path, "--b", b_path, "--order", "2",
                       "--dim", str(prob.basis.dim), "--out", self.out_p]
        return sqrt_argv, pencil_argv

    def run(self, i):
        sqrt_argv, pencil_argv = self.argv(i)
        for path in (self.out_x, self.out_csv, self.out_p):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()):
            return _cli.main(sqrt_argv), _cli.main(pencil_argv)

    def file_sizes(self, i):
        outputs = [p for p in (self.out_x, self.out_csv, self.out_p)
                   if os.path.exists(p)]
        return (sum(map(os.path.getsize, self.round(i)[2])),
                sum(map(os.path.getsize, outputs)))

    def check(self, i, raw):
        rc_sqrt, rc_pencil = raw
        case, prob, _ = self.round(i)
        (X_ref, sq_status, sq_steps), (U_ref, pc_status, pc_iters) = \
            self.ref[i % len(self.rounds)]
        out = Outcome()

        sqrt_out = _read_back(self._read_sqrt, case.X.shape)
        if sqrt_out is None:
            _unreadable(out, "sqrt", rc_sqrt, sq_status)
        else:
            X, steps = sqrt_out
            status = "converged" if rc_sqrt == 0 else f"exit {rc_sqrt}"
            check_sqrt(out, case, X, status, steps, self.order)
            if ((status == "converged") != (sq_status == "converged")
                    or steps != sq_steps or rel_err(X, X_ref) > AGREE_TOL):
                out.wrong.append("cli sqrt disagrees with the in-process result")

        pencil_out = _read_back(self._read_pencil, prob.basis.basis.shape)
        if pencil_out is None:
            _unreadable(out, "pencil", rc_pencil, pc_status)
        else:
            U, status, iterations = pencil_out
            check_pencil(out, prob, U, status, iterations, 2)
            if (status != pc_status or iterations != pc_iters
                    or subspace_sine(U_ref, U) > AGREE_TOL):
                out.wrong.append("cli pencil disagrees with the in-process result")
            if (rc_pencil == 0) != (status == "converged"):
                out.wrong.append(f"cli pencil exit {rc_pencil} for {status}")
        return out

    def _read_sqrt(self, shape):
        with open(self.out_x, encoding="utf-8") as fh:
            X = read_matrix(json.load(fh), shape)
        with open(self.out_csv, encoding="utf-8") as fh:
            steps = sum(1 for line in fh if line.strip()) - 1
        return X, steps

    def _read_pencil(self, shape):
        with open(self.out_p, encoding="utf-8") as fh:
            doc = json.load(fh)
        status, iterations = doc["status"], doc["iterations"]
        if not isinstance(status, str) or not isinstance(iterations, int):
            raise ValueError("malformed status or iterations")
        return read_matrix(doc["U"], shape), status, iterations

    def describe(self):
        return {"family": "F_sqrt (rho %g-%g) + F_pencil" % CONVERGING_RHO,
                "pool": self.pool_size, "tol": TOL,
                "sqrt": {"n": SQRT_N, "order": self.order, "kmax": KMAX},
                "pencil": {"n": ACCEL_N, "order": 2, "kmax": KMAX}}

    def sqrt_matrices(self, i):
        return [self.round(i)[0].S]

    def pencils(self, i):
        return [self.round(i)[1].pencil]


def wide_rho_probe(seed: int) -> tuple:
    """The converged share of order-2 solves on the rho band of F_sqrt
    that ``cli-roundtrip`` leaves out, and any false certificates found.

    A non-converged status here is the measured defect, not a failed
    operation; a CONVERGED status with a wrong answer is still wrong.
    """
    out = Outcome()
    for _, case in sqrt_pool(seed, WIDE_PROBE, rho_range=WIDE_RHO):
        res = _sqrtm.sqrtm_ab(_sqrtm.SqrtProblem(
            case.S, gamma=case.gamma, order=2, tol=TOL, kmax=KMAX))
        check_sqrt(out, case, res.X, res.status.value, len(res.trace.steps), 2)
    return 1.0 - out.failed / out.solves, out.wrong


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "sqrt-newton":
        return SqrtWorkload(seed, workdir, order=2, per_round=4, trace_rounds=16)
    if name == "sqrt-highorder":
        return SqrtWorkload(seed, workdir, order=8, per_round=2, trace_rounds=16)
    if name == "pencil-subspace":
        return PencilWorkload(seed, workdir)
    if name == "cli-roundtrip":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
