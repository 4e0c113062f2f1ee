"""abflow benchmark: one workload, one seed, one result line.

Usage, from the root of a source checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts three worker processes one after another:
two that only set up, and one that sets up and then runs the closed loop
for S seconds.  ``setup_s`` is the median of the three set-up times.  With
``--trace 1`` one worker sets up and runs the traced solves.  Workers
import abflow from ``src/`` of this checkout, with BLAS pinned to one
thread; no machine setting is touched.  The last line of standard output
is the result as JSON; the lines above it give each metric with its unit
and the run's metadata.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("sqrt-newton", "sqrt-highorder", "pencil-subspace", "cli-roundtrip")

#: Wall-clock allowance for all workers of one run together, on top of
#: ``--seconds``: three set-ups, the checks' reference solves and the
#: traced run.
ALLOWANCE_S = 130.0

SETUP_RUNS = 3

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "pass_frac": "frac",
    "acc_digits_min": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s") or name.endswith(".solve_s_p50"):
        return "s"
    if name.endswith(".gflops_computed"):
        return "Gflop"
    if name.startswith("cli.bytes"):
        return "B"
    return {"pencil.extract_useful_ratio": "ratio",
            "solver.outer_steps": "steps/solve",
            "solver.lu_per_solve": "count/solve",
            "trace_overhead_frac": "frac",
            "sqrtm.wide_rho.converged_frac": "frac"}[name]


class WorkerError(RuntimeError):
    pass


def _pinned_env(workdir: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    env.pop("ABFLOW_OUT_DIR", None)
    return env


def _run_worker(mode, args, workdir, tag, deadline):
    report = os.path.join(workdir, f"report-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir, "--report", report]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget spent before the worker started")
    try:
        proc = subprocess.run(cmd, env=_pinned_env(workdir), cwd=workdir,
                              stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)


def _source_identity() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "abflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _end_to_end(setups, timed):
    return {
        "solve_s_p50": timed["solve_s_p50"],
        "solve_s_tail": timed["solve_s_tail"],
        "solves_per_s": timed["solves_per_s"],
        "pass_frac": 1.0 - timed["failed"] / timed["attempted"],
        "acc_digits_min": timed["acc_digits_min"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def measure(args, workdir):
    deadline = time.monotonic() + args.seconds + ALLOWANCE_S
    if args.trace:
        rep = _run_worker("trace", args, workdir, "trace", deadline)
        values = rep["metrics"]
        units = {k: per_layer_units(k) for k in values}
        extra = {"trace": rep["trace"]}
    else:
        setups = [_run_worker("setup", args, workdir, f"setup{k}", deadline)["setup_s"]
                  for k in range(SETUP_RUNS - 1)]
        rep = _run_worker("timed", args, workdir, "timed", deadline)
        setups.append(rep["setup_s"])
        values = _end_to_end(setups, rep)
        units = END_TO_END_UNITS
        extra = {"setup_s_samples": setups, "phase_s": rep["phase_s"],
                 "rounds": rep["rounds"],
                 "latency_samples": rep["latency_samples"],
                 "tail_percentile": rep["tail_percentile"],
                 "tail_samples_beyond": rep["tail_beyond"],
                 "outer_steps_per_solve": rep["outer_steps_per_solve"]}
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "problem": rep["workload"], "warm_up": rep["warm_up"],
            "wrong": rep["wrong"], "errors": rep["errors"],
            **extra, **_source_identity(), **rep["env"]}
    return rep, values, units, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "abflow", "__init__.py")):
        print(f"no abflow sources under {SRC}", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rep, values, units, meta = measure(args, workdir)
    except (WorkerError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for w in meta["wrong"]:
        print(f"WRONG: {w}", file=sys.stderr)
    for e in meta["errors"]:
        print(f"ERROR: {e}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    passed = rep["attempted"] - rep["failed"]
    result = {
        "correct": not meta["wrong"] and passed > 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
