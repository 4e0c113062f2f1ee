"""Fingerprint the solver outputs of one source tree.

Usage, from anywhere:

    python scripts/fingerprint.py TREE > out.txt

where TREE is a checkout of this repository (its ``src/`` and
``perfbench/`` are put first on the path).  Each output line names one
run and hashes what it returned: status, iteration count, U, Lambda and
residual of the subspace runs plus every observed chain element; X,
residual and trace columns of the square-root runs; the traces and
written trace files of ``run_experiment`` (wall seconds zeroed).  Two
trees whose outputs agree on a line computed that run bit for bit.  The
subspace lines also print ``sin=``, the distance of U to the problem's
known basis in clear text, so a diff of two trees tells a change of bits
from a change of accuracy.

The runs: 18 F_pencil problems (n = 6..20) through ``ab_run`` with and
without ``expected_dim``, ``modified_ab_run`` at r = 2, 3, 4, 7 and,
without ``expected_dim`` (threshold mode), at r = 2;
8 F_sqrt problems (n = 24) at r = 2, 3, 5; ``run_experiment`` at orders
1-4; then breakdown runs (an eigenvalue at a primitive 2nd, 3rd or 6th
root of unity, plus two pencils whose sums cancel to rounding error) and
``expected_dim=0`` runs, which report status and iteration count only;
last, ``run_experiment`` at r = 2 on a Jordan block of each kind, and a
square root of a spread spectrum (n = 8, r = 3) that the floor rule's
tenfold jump stops.

``scripts/status_baseline.txt`` keeps each line's name tokens with its
``status=`` and ``dim=`` fields, which unlike the hashes are meant to
hold across BLAS builds.  ``tests/test_fingerprint.py`` runs this script
twice in the tier-1 tests and holds its output to that file, to the
sine rule and to itself (two runs, one output).  The trace files go to
a temporary directory that is removed at the end of the run.
"""

import dataclasses
import hashlib
import os
import sys
import tempfile

tree = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(tree, "src"))
sys.path.insert(0, os.path.join(tree, "perfbench"))

import numpy as np  # noqa: E402

import abflow  # noqa: E402
from abflow import lab, pencil, sqrtm, trace  # noqa: E402
import workloads  # noqa: E402

if not abflow.__file__.startswith(tree):
    sys.exit(f"imported abflow from {abflow.__file__}, not from {tree}")


def h(*arrs):
    d = hashlib.sha256()
    for a in arrs:
        d.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return d.hexdigest()[:16]


def file_bytes(path):
    with open(path, "rb") as fh:
        return np.frombuffer(fh.read(), np.uint8)


out = []
rng = np.random.default_rng(2024)
pencils = [workloads.pencil_case(rng, n, rng.random(), rng.random())
           for n in (6, 8, 10, 12, 16, 20) for _ in range(3)]
for i, prob in enumerate(pencils):
    P, m = prob.pencil, prob.basis.dim
    runs = [("plain-dim", lambda obs: pencil.ab_run(
                P, 1e-12, 500, expected_dim=m, observer=obs)),
            ("plain-thr", lambda obs: pencil.ab_run(P, 1e-10, 500, observer=obs))]
    for r in (2, 3, 4, 7):
        cfg = pencil.AccelConfig(order=r, tol=1e-12, kmax=60, expected_dim=m)
        runs.append((f"r{r}", lambda obs, cfg=cfg: pencil.modified_ab_run(
            P, cfg, observer=obs)))
    cfg = pencil.AccelConfig(order=2, tol=1e-10, kmax=60)
    runs.append(("r2-thr", lambda obs, cfg=cfg: pencil.modified_ab_run(
        P, cfg, observer=obs)))
    for tag, run in runs:
        seen = []
        res = run(lambda it, b: seen.extend([it.A_k, it.B_k, [it.k], b.basis]))
        sin = abflow.subspace_distance(res.U, prob.basis)
        out.append(f"pencil{i} {tag} status={res.status.value} "
                   f"it={res.iterations} dim={res.U.dim} U={h(res.U.basis)} "
                   f"sin={sin:.1e} L={h(res.Lambda)} res={res.residual!r} "
                   f"obs={h(*seen)}")

for i, (_, case) in enumerate(workloads.sqrt_pool(5, 9, n=24)[:8]):
    for r in (2, 3, 5):
        prob = sqrtm.SqrtProblem(case.S, gamma=case.gamma, order=r)
        seen = []
        res = sqrtm.sqrtm_ab(prob, observer=lambda k, Q: seen.extend([[k], Q]))
        t = res.trace
        out.append(f"sqrt{i} r{r} status={res.status.value} X={h(res.X)} "
                   f"res={res.residual!r} steps={t.steps} err={h(t.errors)} "
                   f"resid={h(t.residuals)} ord={h(t.orders)} obs={h(*seen)}")

specs = [("pencil", lab.ProblemSpec(spectrum=(0.3, 0.6, 1.5, 2.5, 0.8 + 0.1j), seed=4)),
         ("sqrt", lab.ProblemSpec(spectrum=(0.3, 0.6, 1.5, 2.5, 0.8 + 0.1j), seed=4)),
         ("sqrt", lab.ProblemSpec(spectrum=(2.0, 3.0, 0.5 + 0.2j, 7.0), seed=9))]
with tempfile.TemporaryDirectory() as tmp:
    for s_i, (kind, spec) in enumerate(specs):
        for r in (1, 2, 3, 4):
            t = lab.run_experiment(kind, spec, order=r, kmax=40)
            t0 = dataclasses.replace(t, seconds=[0.0] * len(t.steps))
            csv_p, json_p = os.path.join(tmp, "t.csv"), os.path.join(tmp, "t.json")
            trace.write_trace_csv(t0, csv_p)
            trace.write_trace_json(t0, json_p, header={"r": r})
            out.append(f"exp{s_i} {kind} r{r} status={t.status} steps={t.steps} "
                       f"err={h(t.errors)} resid={h(t.residuals)} ord={t.orders} "
                       f"files={h(file_bytes(csv_p), file_bytes(json_p))}")

Qm = lab.random_unitary(4, np.random.default_rng(1))
breakdowns = []
for name, lam in [("minus1", -1.0), ("cube", np.exp(2j * np.pi / 3)),
                  ("sixth", np.exp(2j * np.pi / 6))]:
    A = Qm @ np.diag([lam, 0.3, 0.5 + 0.1j, 2.0]) @ Qm.conj().T
    breakdowns.append((name, pencil.Pencil(A, np.eye(4, dtype=complex))))
# sums that cancel to rounding error: the scalar lambda = -1 and a 3x3
# pencil whose eigenvalues are all the same cube root of unity
Bm = lab.conditioned_similarity(3, 5.0, np.random.default_rng(2))
breakdowns += [("scalar-minus1", pencil.Pencil([[2 * np.exp(1j * np.pi)]], [[2.0]])),
               ("cube-x3", pencil.Pencil(np.exp(2j * np.pi / 3) * Bm, Bm))]
for name, P in breakdowns:
    res = pencil.ab_run(P, 1e-10, 50)
    out.append(f"brk {name} plain status={res.status.value} it={res.iterations}")
    for r in (2, 3, 4, 5):
        cfg = pencil.AccelConfig(order=r, tol=1e-10, kmax=20)
        res = pencil.modified_ab_run(P, cfg)
        out.append(f"brk {name} r{r} status={res.status.value} it={res.iterations}")

P = pencil.Pencil(np.diag([2.0 + 0j, 3.0]), np.eye(2, dtype=complex))
res = pencil.ab_run(P, 1e-12, 100, expected_dim=0)
out.append(f"dim0 plain status={res.status.value} it={res.iterations}")
cfg = pencil.AccelConfig(order=2, tol=1e-12, kmax=100, expected_dim=0)
res = pencil.modified_ab_run(P, cfg)
out.append(f"dim0 r2 status={res.status.value} it={res.iterations}")

# Jordan blocks through the generators, and a square root that only the
# floor rule's tenfold jump stops (at step 7, after one rise)
jordan = [("sqrt", lab.ProblemSpec(
              (lab.SpectrumEntry(2.0, 2, semisimple=False), 3.0), seed=2)),
          ("pencil", lab.ProblemSpec(
              (lab.SpectrumEntry(0.5, 2, semisimple=False), 2.0), seed=3))]
for kind, spec in jordan:
    t = lab.run_experiment(kind, spec, order=2, kmax=40)
    out.append(f"jordan {kind} r2 status={t.status} steps={t.steps} "
               f"err={h(t.errors)} resid={h(t.residuals)} ord={t.orders}")
rng = np.random.default_rng(0)
moduli, args = 50.0 ** rng.random(8), rng.uniform(-0.5, 0.5, 8)
S, _ = lab.make_known_sqrt_problem(
    lab.ProblemSpec(moduli * np.exp(1j * args), cond=10.0, seed=0))
res = sqrtm.sqrtm_ab(sqrtm.SqrtProblem(
    S, gamma=sqrtm.gamma_heuristic((1.0, 50.0)), order=3))
t = res.trace
out.append(f"tenfold sqrt r3 status={res.status.value} X={h(res.X)} "
           f"res={res.residual!r} steps={t.steps} err={h(t.errors)} "
           f"resid={h(t.residuals)}")
print("\n".join(out))
