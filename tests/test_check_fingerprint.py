"""The fingerprint gates of ``scripts/check_fingerprint.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts/check_fingerprint.py"
_spec = importlib.util.spec_from_file_location("check_fingerprint", SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

LINE = ("pencil0 r2 status=converged it=9 dim=3 U=3a2cdf0e6c1dee9a "
        "sin=7.0e-15 L=468c2dc6b563f2e7 res=2.5e-14 obs=db75fdf7008be6d7")


def test_status_line_keeps_names_status_and_dim():
    assert check.status_line(LINE) == "pencil0 r2 status=converged dim=3"
    assert check.status_line("cube r4 status=breakdown it=3") == \
        "cube r4 status=breakdown"


def test_sine_rule():
    assert not check.inaccurate(LINE)
    raised = LINE.replace("sin=7.0e-15", "sin=1.0e-06")
    assert check.inaccurate(raised)
    assert not check.inaccurate(raised.replace(" r2 ", " plain-thr "))
    assert not check.inaccurate(raised.replace("converged", "max_iterations"))
    assert check.inaccurate(LINE.replace("sin=7.0e-15", "sin=nan"))


def test_the_baseline_passes_and_one_edit_fails(tmp_path, capsys):
    """Each baseline line is its own status line, so the baseline itself
    passes; one moved status or one raised sine fails."""
    lines = check.BASELINE.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "fp.txt"
    path.write_text("\n".join(lines) + "\n")
    assert check.main(["check", str(path)]) == 0
    first = lines[0]
    assert first == "pencil0 plain-dim status=converged dim=3"
    for edited in (first.replace("status=converged", "status=breakdown"),
                   first + " sin=1.0e-06"):
        path.write_text("\n".join([edited] + lines[1:]) + "\n")
        assert check.main(["check", str(path)]) == 1
    assert "sin above 1e-08" in capsys.readouterr().out
