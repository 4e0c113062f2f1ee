"""The tracer reaches every binding, its counts match what results imply,
and a CLI answer that cannot be read back counts against the CLI.

Run from the repository root:
  PYTHONPATH=src python -m pytest -q perfbench
"""

import os

import numpy as np
import pytest

import abflow.accel as accel
import abflow.cli as cli
import abflow.linalg as linalg
import abflow.pencil as pencil
import abflow.sqrtm as sqrtm
import workloads
from tracer import Tracer
from worker import Loop


def _sqrt_problem(n, order):
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    X = Q @ np.diag(rng.uniform(1.0, 4.0, n)) @ Q.T
    return sqrtm.SqrtProblem(X @ X, gamma=2.0, order=order)


def _pencil_problem(n, seed):
    rng = np.random.default_rng(seed)
    return workloads.pencil_case(rng, n, rng.random(), rng.random())


def test_bindings_are_wrapped_and_restored():
    originals = {mod: mod.lu_factor for mod in (pencil, accel, sqrtm, linalg)}
    main = cli.main
    with Tracer() as tr:
        for mod, fn in originals.items():
            assert mod.lu_factor is not fn, mod.__name__
        assert cli.main is not main
        patched = {f"{mod}.{key}" for mod, key in tr.patched}
        for name in ("abflow.pencil.null_space_basis", "abflow.accel.subspace_distance",
                     "abflow.cli.as_matrix", "abflow.sqrtm.estimate_order",
                     "abflow.cli.write_trace_csv"):
            assert name in patched
    for mod, fn in originals.items():
        assert mod.lu_factor is fn
    assert cli.main is main


@pytest.mark.parametrize("order", [2, 3, 8])
def test_sqrt_lu_count(order):
    with Tracer() as tr:
        res = sqrtm.sqrtm_ab(_sqrt_problem(24, order))
    assert res.status.value == "converged"
    assert tr.stats["linalg.lu_factor"].calls == (order - 1) * len(res.trace.steps)
    assert tr.stats["sqrtm.q_step"].calls == (order - 1) * len(res.trace.steps)


def test_plain_chain_counts():
    prob = _pencil_problem(12, 5)
    with Tracer() as tr:
        res = pencil.ab_run(prob.pencil, 1e-12, 500, expected_dim=prob.basis.dim)
    assert res.status.value == "converged"
    assert tr.stats["pencil.ab_step"].calls == res.iterations - 1
    assert tr.stats["linalg.extract"].calls == res.iterations


def test_order_two_chain_counts():
    prob = _pencil_problem(16, 6)
    cfg = accel.AccelConfig(order=2, tol=1e-12, kmax=100,
                            expected_dim=prob.basis.dim)
    with Tracer() as tr:
        res = accel.modified_ab_run(prob.pencil, cfg)
    assert res.status.value == "converged"
    assert tr.stats["accel.accel_step"].calls == res.iterations - 1
    assert tr.stats["linalg.extract"].calls == res.iterations


def test_self_time_excludes_children():
    with Tracer() as tr:
        sqrtm.sqrtm_ab(_sqrt_problem(24, 4))
    st = tr.stats
    assert 0.0 <= st["sqrtm.sqrtm_ab"].self_s < st["sqrtm.sqrtm_ab"].total_s
    assert st["linalg.lu_factor"].gflop > 0.0


@pytest.mark.parametrize("name", ["sqrt-highorder", "pencil-subspace"])
def test_workload_rounds_pass_the_count_check(name, tmp_path):
    wl = workloads.make(name, 0, str(tmp_path))
    wl.setup()
    with Tracer() as tr:
        loop = Loop(wl, tr)
        for i in range(2):
            loop.request(i)
    assert loop.attempted == 2 * wl.solves_per_round
    assert loop.errors == []
    assert loop.wrong == []
    assert tr.stats["linalg.lu_factor"].calls > 0


def test_cli_output_that_cannot_be_read_back_is_a_disagreement(tmp_path):
    wl = workloads.make("cli-roundtrip", 0, str(tmp_path))
    wl.pool_size = 4
    wl.setup()
    wl.prepare_checks()
    (_, sq_status, _), (_, pc_status, _) = wl.ref[0]
    assert (sq_status, pc_status) == ("converged", "converged")
    raw = wl.run(0)
    out = wl.check(0, raw)
    assert (out.solves, out.failed, out.wrong) == (2, 0, [])

    with open(wl.out_p, "w", encoding="utf-8") as fh:
        fh.write('{"status": "converged", "iterations": 3, "U": {"rows": 1')
    out = wl.check(0, raw)
    assert (out.solves, out.failed) == (2, 1)
    assert len(out.wrong) == 1 and out.wrong[0].startswith("cli pencil")

    os.remove(wl.out_x)
    out = wl.check(0, (1, raw[1]))
    assert (out.solves, out.failed) == (2, 2)
    assert out.wrong[0].startswith("cli sqrt exit 1")

    wl.run = lambda i: (1, raw[1])      # the outputs stay as they are now
    loop = Loop(wl)
    loop.request(0)
    assert (loop.attempted, loop.failed, loop.errors) == (2, 2, [])
    assert loop.wrong[0].startswith("round 0: cli sqrt exit 1")


def test_wide_rho_probe_reports_a_share_and_no_false_certificate():
    frac, wrong = workloads.wide_rho_probe(3)
    assert wrong == []
    assert 0.0 <= frac <= 1.0
