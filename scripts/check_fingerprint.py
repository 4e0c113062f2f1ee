"""Check a fingerprint against the two rules CI holds it to.

Usage, from the root of a checkout:

    python -W error::RuntimeWarning scripts/fingerprint.py . > fingerprint_1.txt
    python scripts/check_fingerprint.py fingerprint_1.txt

The rules:

- **Statuses and dimensions.** Each line, cut to its name tokens (those
  before the first ``key=value`` token) plus its ``status=`` and ``dim=``
  fields, must equal the matching line of ``scripts/status_baseline.txt``.
  These fields, unlike the hashes, are meant to hold across BLAS builds;
  ``it=`` and ``steps=`` join once two CI legs are seen to agree on them.
- **Converged sines.** Every line with ``status=converged`` and a
  ``sin=`` field has a sine of at most 1e-8, except ``plain-thr``, whose
  false stops at sin=1 are ROADMAP item 6 and join the gate once it lands.

Prints every breach and exits 1 if there is one, else exits 0.
"""

import difflib
import re
import sys
from pathlib import Path

BASELINE = Path(__file__).with_name("status_baseline.txt")

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


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/check_fingerprint.py FILE",
              file=sys.stderr)
        return 2
    lines = Path(argv[1]).read_text(encoding="utf-8").splitlines()
    baseline = BASELINE.read_text(encoding="utf-8").splitlines()
    diff = list(difflib.unified_diff(
        baseline, [status_line(s) for s in lines], str(BASELINE),
        f"{argv[1]} (status and dim)", lineterm=""))
    bad = [s for s in lines if inaccurate(s)]
    for s in diff:
        print(s)
    for s in bad:
        print(f"sin above {SIN_LIMIT:g}: {s}")
    return 1 if diff or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
