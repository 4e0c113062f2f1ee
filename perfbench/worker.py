"""One measurement process of the benchmark; ``run.py`` starts it.

Modes:
  setup  import abflow, build the workload's problems and files, run one
         warm-up solve, report the seconds that took;
  timed  the same set-up, then the closed loop for ``--seconds``;
  trace  the same set-up, then a fixed number of solves untraced and the
         same solves traced, plus the scipy reference timings.

The report goes to ``--report`` as JSON.  Usage:
  python3 worker.py --mode timed --workload NAME --seed N --seconds S
                    --workdir DIR --report FILE

abflow must be importable from ``src/`` next to this directory (run.py
puts it on PYTHONPATH); the worker refuses to measure any other copy.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--report", required=True)
    return p.parse_args(argv)


class Loop:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.seconds = []          # per solve, one entry per passed round
        self.all_seconds = []      # the same for every round
        self.digits = []
        self.steps = 0
        self.pencil_calls = 0
        self.attempted = 0         # solves
        self.failed = 0
        self.wrong = []
        self.errors = []
        self.bytes_in = 0
        self.bytes_out = 0

    def request(self, i: int) -> None:
        wl = self.wl
        before = self.tracer.calls() if self.tracer else None
        t0 = time.perf_counter()
        try:
            raw = wl.run(i)
        except Exception:
            raw = None
            self._error(i, "run")
        dt = time.perf_counter() - t0
        out = None
        if raw is not None:
            try:
                b_in, b_out = wl.file_sizes(i)
                self.bytes_in += b_in
                self.bytes_out += b_out
                out = wl.check(i, raw)
            except Exception as exc:
                # The system returned but its output could not be checked.
                self.wrong.append(f"round {i}: check raised {exc!r}")
                self._error(i, "check")
        solves = out.solves if out is not None else wl.solves_per_round
        self.attempted += solves
        self.all_seconds.append(dt / solves)
        if out is None:
            self.failed += solves
            return
        self.failed += out.failed
        self.wrong.extend(f"round {i}: {w}" for w in out.wrong)
        self.steps += out.outer_steps
        self.pencil_calls += out.pencil_calls
        self.digits.extend(out.digits)
        if out.failed == 0:
            self.seconds.append(dt / solves)
            if before is not None:
                self._check_counts(i, before, out.expect)

    def _check_counts(self, i, before, expect):
        after = self.tracer.calls()
        for span, want in expect.items():
            got = after[span] - before[span]
            if got != want:
                self.wrong.append(f"round {i}: traced {span} calls {got}, "
                                  f"result implies {want}")

    def _error(self, i, where):
        if len(self.errors) < 5:
            self.errors.append(f"round {i} {where}: "
                               + traceback.format_exc(limit=4))


def _tail(values):
    """The highest percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def timed_phase(wl, seconds):
    loop = Loop(wl)
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < seconds:
        loop.request(i)
        i += 1
    phase = time.perf_counter() - t0
    return loop, phase


def trace_phase(wl):
    import scipy.linalg as sla

    import workloads
    from tracer import Tracer

    count = wl.trace_rounds
    bare = Loop(wl)
    t0 = time.perf_counter()
    for i in range(count):
        bare.request(i)
    untraced = time.perf_counter() - t0

    with Tracer() as gen_tracer:
        wl.setup()
    with Tracer() as tracer:
        loop = Loop(wl, tracer)
        t0 = time.perf_counter()
        for i in range(count):
            loop.request(i)
        traced = time.perf_counter() - t0

    ref_sqrtm, ref_ordqz = [], []
    for i in range(count):
        mats = wl.sqrt_matrices(i)
        if mats:
            t = time.perf_counter()
            for S in mats:
                sla.sqrtm(S)
            ref_sqrtm.append((time.perf_counter() - t) / len(mats))
        pens = wl.pencils(i)
        if pens:
            t = time.perf_counter()
            for p in pens:
                sla.ordqz(p.A, p.B, sort="iuc", output="complex")
            ref_ordqz.append((time.perf_counter() - t) / len(pens))

    st = tracer.stats
    m = {}
    for span in ("linalg.lu_factor", "linalg.lu_solve"):
        m[f"{span}.calls"] = st[span].calls
        m[f"{span}.self_s"] = st[span].self_s
        m[f"{span}.gflops_computed"] = st[span].gflop
    for span in ("linalg.extract", "linalg.subspace_distance", "linalg.as_matrix",
                 "pencil.ab_step", "accel.accel_step", "sqrtm.q_step",
                 "cli.parse_matrix_file"):
        m[f"{span}.calls"] = st[span].calls
        m[f"{span}.self_s"] = st[span].self_s
    for span in ("pencil.ab_run", "accel.inner_chain", "accel.modified_ab_run",
                 "sqrtm.accelerated_step", "sqrtm.sqrtm_ab",
                 "trace.estimate_order", "trace.write", "cli.write_out",
                 "cli.main"):
        m[f"{span}.self_s"] = st[span].self_s
    extractions = st["linalg.extract"].calls
    m["pencil.extract_useful_ratio"] = (loop.pencil_calls / extractions
                                        if extractions else 0.0)
    m["cli.bytes_in"] = loop.bytes_in
    m["cli.bytes_out"] = loop.bytes_out
    m["lab.generate.self_s"] = gen_tracer.stats["lab.generate"].self_s
    m["solver.outer_steps"] = loop.steps / loop.attempted
    m["solver.lu_per_solve"] = st["linalg.lu_factor"].calls / loop.attempted
    m["trace_overhead_frac"] = traced / untraced - 1.0
    m["ref.scipy_sqrtm.solve_s_p50"] = (statistics.median(ref_sqrtm)
                                        if ref_sqrtm else 0.0)
    m["ref.scipy_ordqz.solve_s_p50"] = (statistics.median(ref_ordqz)
                                        if ref_ordqz else 0.0)
    m["sqrtm.wide_rho.converged_frac"], probe_wrong = \
        workloads.wide_rho_probe(wl.seed)
    wrong = bare.wrong + loop.wrong + probe_wrong
    if (bare.failed, bare.steps) != (loop.failed, loop.steps):
        wrong.append("traced and untraced solves differ")
    return {
        "attempted": bare.attempted + loop.attempted,
        "failed": bare.failed + loop.failed,
        "wrong": wrong,
        "errors": bare.errors + loop.errors,
        "metrics": m,
        "trace": {"rounds": count, "untraced_s": untraced, "traced_s": traced,
                  "patched": sorted({f"{mod}.{key}" for mod, key in tracer.patched})},
    }


def environment(np_module, scipy_module):
    try:
        blas = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # numpy builds differ in what they expose
        blas = {"unavailable": repr(exc)}
    return {
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "scipy": scipy_module.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = _parse_args(argv)
    src = os.path.realpath(SRC)
    import numpy
    import scipy

    import abflow
    if not os.path.realpath(abflow.__file__).startswith(src + os.sep):
        print(f"abflow was imported from {abflow.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed, args.workdir)
    wl.setup()
    try:
        wl.run(0)
        warm_up = "ok"
    except Exception:
        warm_up = traceback.format_exc(limit=4)
    setup_s = time.perf_counter() - _T0
    report = {"setup_s": setup_s, "warm_up": warm_up, "workload": wl.describe()}
    if args.mode == "timed":
        wl.prepare_checks()
        loop, phase = timed_phase(wl, args.seconds)
        times = loop.seconds or loop.all_seconds
        tail, pct, beyond = _tail(times)
        report.update({
            "attempted": loop.attempted,
            "failed": loop.failed,
            "wrong": loop.wrong,
            "errors": loop.errors,
            "phase_s": phase,
            "solve_s_p50": statistics.median(times),
            "solve_s_tail": tail,
            "tail_percentile": pct,
            "tail_beyond": beyond,
            "latency_samples": len(times),
            "solves_per_s": (loop.attempted - loop.failed) / phase,
            "acc_digits_min": min(loop.digits) if loop.digits else 0.0,
            "rounds": len(loop.all_seconds),
            "outer_steps_per_solve": loop.steps / loop.attempted,
        })
    elif args.mode == "trace":
        wl.prepare_checks()
        report.update(trace_phase(wl))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment(numpy, scipy)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
