"""The public API: ``abflow.__all__`` is the list the README documents."""

import re
from pathlib import Path

import abflow

README = Path(__file__).resolve().parent.parent / "README.md"

#: Test oracles, internal chain and linalg kernels and the errors only they
#: raise, which the package no longer exports.
REMOVED = (
    "INFINITY", "closed_form_iterate", "eigenvalue_map",
    "matrix_power_sum", "lu_solve", "solve_right", "induced_norm2",
    "embed_pencil", "binomial_step", "newton_step", "cayley_factor",
    "cayley_residual", "PoleEncounteredError",
    "ABIterate", "first_iterate", "ab_step", "combine", "accel_step",
    "inner_chain", "q_step", "accelerated_step",
    "as_matrix", "lu_factor", "LUFactorization", "null_space_basis",
    "smallest_singular_subspace", "BreakdownError",
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
    assert len(names) == len(set(names)) == 34
    assert sorted(abflow.__all__) == sorted(names)
    assert len(abflow.__all__) == len(set(abflow.__all__))


def test_every_public_name_resolves():
    for name in abflow.__all__:
        assert getattr(abflow, name) is not None


def test_removed_names_are_not_exported():
    assert len(set(REMOVED)) == 27
    for name in REMOVED:
        assert not hasattr(abflow, name), name


def test_package_never_imports_the_oracles():
    src = Path(abflow.__file__).resolve().parent
    for path in src.glob("*.py"):
        assert "oracles" not in path.read_text(encoding="utf-8"), path.name
