"""The public API: ``abflow.__all__`` is the list the README documents."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import abflow
from abflow import (
    AccelConfig,
    ConvergenceTrace,
    Pencil,
    ProblemSpec,
    SpectrumEntry,
    SubspaceBasis,
    gamma_heuristic,
    modified_ab_run,
    subspace_distance,
)

README = Path(__file__).resolve().parent.parent / "README.md"

#: Test oracles, internal chain and linalg kernels, the errors only they
#: raise, and the error classes folded into ValueError and ParseError:
#: none of them is exported.
REMOVED = (
    "INFINITY", "closed_form_iterate", "eigenvalue_map",
    "matrix_power_sum", "lu_solve", "solve_right", "induced_norm2",
    "embed_pencil", "binomial_step", "newton_step", "cayley_factor",
    "cayley_residual", "PoleEncounteredError",
    "ABIterate", "first_iterate", "ab_step", "combine", "accel_step",
    "inner_chain", "q_step", "accelerated_step",
    "as_matrix", "lu_factor", "LUFactorization", "null_space_basis",
    "smallest_singular_subspace", "BreakdownError",
    "DimensionMismatchError", "InvalidBoundsError", "InvalidSpectrumError",
    "InsufficientDataError", "ShapeError",
)


def _readme_api():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    # the bulleted list, continuation lines included
    items = [line for line in section.splitlines()
             if line.startswith(("- ", "  "))]
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", "\n".join(items))


def test_all_is_the_readme_list():
    names = _readme_api()
    assert len(names) == len(set(names)) == 29
    assert sorted(abflow.__all__) == sorted(names)
    assert len(abflow.__all__) == len(set(abflow.__all__))


def test_every_public_name_resolves():
    for name in abflow.__all__:
        assert getattr(abflow, name) is not None


def test_removed_names_are_not_exported():
    assert len(set(REMOVED)) == 32
    for name in REMOVED:
        assert not hasattr(abflow, name), name


def test_package_never_imports_the_oracles():
    src = Path(abflow.__file__).resolve().parent
    for path in src.glob("*.py"):
        assert "oracles" not in path.read_text(encoding="utf-8"), path.name


@pytest.mark.parametrize("call, message", [
    (lambda: Pencil(np.ones((2, 3)), np.ones((2, 3))),
     r"A must be square, got \(2, 3\)"),
    (lambda: ProblemSpec((2.0,), cond=0.5), "cond must be at least 1"),
    (lambda: ProblemSpec((2.0,), seed=-1), "^seed must be at least 0, got -1$"),
    (lambda: SpectrumEntry(2, multiplicity=0),
     "^multiplicity must be at least 1, got 0$"),
    (lambda: SpectrumEntry(math.inf), r"eigenvalue \(inf\+0j\) is not finite"),
    (lambda: gamma_heuristic((2, 1)), r"need 0 < a <= b, got \(2, 1\)"),
    # too few errors give no order estimate, not an error; a negative
    # error is the bad order data left
    (lambda: ConvergenceTrace((1, 2, 3), (0.1, -0.5, 1e-3), (0, 0, 0),
                              (0, 0, 0)), "^errors must be nonnegative$"),
    (lambda: SubspaceBasis(np.ones((2, 3))), "basis is 2x3 with m > n"),
    (lambda: subspace_distance(np.eye(2)[:, :1], np.eye(3)[:, :1]),
     "ambient dimensions differ: 2 vs 3"),
    (lambda: modified_ab_run(Pencil(np.eye(2), 2 * np.eye(2)),
                             AccelConfig(1, 1e-10, 10, expected_dim=3)),
     "^expected_dim must be between 0 and 2, got 3$"),
], ids=["pencil-shape", "cond", "seed", "multiplicity", "eigenvalue",
        "gamma-bounds", "order-data", "basis-shape", "ambient-dimension",
        "expected-dim"])
def test_bad_input_raises_plain_value_error(call, message):
    """Bad input raises ``ValueError`` itself, naming the input."""
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError


def test_readme_library_example_runs():
    """The README's Python block runs as written, and both of its solves
    converge."""
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    assert ns["res"].status is ns["out"].status is abflow.SolveStatus.CONVERGED
