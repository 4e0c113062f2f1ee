"""The fingerprint gates: ``scripts/fingerprint.py`` holds its rules.

The script runs twice on this checkout, each time in a child process
with one BLAS thread and RuntimeWarnings as errors.  Then:

- **One output.** The two runs print the same lines.
- **Statuses and dimensions.** Each line, cut to its name tokens (those
  before the first ``key=value`` token) plus its ``status=`` and ``dim=``
  fields, equals the matching line of ``scripts/status_baseline.txt``.
  These fields, unlike the hashes, are meant to hold across BLAS builds;
  ``it=`` and ``steps=`` join once two CI legs are seen to agree on them.
- **Converged sines.** Every line with ``status=converged`` and a
  ``sin=`` field has a sine of at most 1e-8, except ``plain-thr``, whose
  false stops at sin=1 are ROADMAP item 6 and join the gate once it lands.
"""

import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts/fingerprint.py"
BASELINE = ROOT / "scripts/status_baseline.txt"

#: Largest sine of a converged subspace run.
SIN_LIMIT = 1e-8

#: The run kind whose false stops are exempt from the sine rule.
EXEMPT = "plain-thr"


def status_line(line: str) -> str:
    """The name tokens of a fingerprint line, then its status and dim."""
    kept = re.sub(r" [^ ]+=.*", "", line, count=1)
    for key in ("status", "dim"):
        field = re.search(rf" {key}=[^ ]+", line)
        if field:
            kept += field.group()
    return kept


def inaccurate(line: str) -> bool:
    """Whether a converged line outside ``EXEMPT`` has a sine above the
    limit (or one that is no number)."""
    field = re.search(r" sin=([^ ]+)", line)
    if " status=converged " not in line or field is None:
        return False
    if line.split()[1:2] == [EXEMPT]:
        return False
    try:
        return not float(field.group(1)) <= SIN_LIMIT
    except ValueError:
        return True


def status_diff(lines) -> list:
    """The unified diff of the baseline against the status lines of
    ``lines``; empty when they agree."""
    baseline = BASELINE.read_text(encoding="utf-8").splitlines()
    return list(difflib.unified_diff(
        baseline, [status_line(s) for s in lines], str(BASELINE),
        "fingerprint (status and dim)", lineterm=""))


def _fingerprint() -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPT), str(ROOT)],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture(scope="module")
def outputs():
    return [_fingerprint(), _fingerprint()]


def test_two_runs_print_the_same_lines(outputs):
    first, second = (out.splitlines() for out in outputs)
    assert first == second, "\n".join(difflib.unified_diff(
        first, second, "run 1", "run 2", lineterm=""))


def test_statuses_and_dimensions_match_the_baseline(outputs):
    diff = status_diff(outputs[0].splitlines())
    assert not diff, "\n".join(diff)


def test_converged_sines_are_within_the_limit(outputs):
    bad = [s for s in outputs[0].splitlines() if inaccurate(s)]
    assert not bad, f"sin above {SIN_LIMIT:g}:\n" + "\n".join(bad)


LINE = ("pencil0 r2 status=converged it=9 dim=3 U=3a2cdf0e6c1dee9a "
        "sin=7.0e-15 L=468c2dc6b563f2e7 res=2.5e-14 obs=db75fdf7008be6d7")


def test_status_line_keeps_names_status_and_dim():
    assert status_line(LINE) == "pencil0 r2 status=converged dim=3"
    assert status_line("cube r4 status=breakdown it=3") == \
        "cube r4 status=breakdown"


def test_sine_rule():
    assert not inaccurate(LINE)
    raised = LINE.replace("sin=7.0e-15", "sin=1.0e-06")
    assert inaccurate(raised)
    assert not inaccurate(raised.replace(" r2 ", " plain-thr "))
    assert not inaccurate(raised.replace("converged", "max_iterations"))
    assert inaccurate(LINE.replace("sin=7.0e-15", "sin=nan"))


def test_the_baseline_passes_and_one_edit_fails():
    """Each baseline line is its own status line, so the baseline itself
    passes; one moved status shows in the diff, and one raised sine
    breaks the sine rule."""
    lines = BASELINE.read_text(encoding="utf-8").splitlines()
    assert status_diff(lines) == []
    assert not any(inaccurate(s) for s in lines)
    first = lines[0]
    assert first == "pencil0 plain-dim status=converged dim=3"
    moved = first.replace("status=converged", "status=breakdown")
    diff = status_diff([moved] + lines[1:])
    assert "-" + first in diff and "+" + moved in diff
    assert inaccurate(first + " sin=1.0e-06")
