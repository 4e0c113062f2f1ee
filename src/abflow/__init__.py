"""Stable deflating subspaces of matrix pencils and matrix square roots.

The package centers on an alternating pencil iteration whose chain obeys
a discrete flow property (element i+j is a rational combination of
elements i and j).  That property yields an accelerated variant of any
integer convergence order and, through a Cayley-transformed embedding, a
principal matrix square-root solver.

``__all__`` is the public API: solvers, inputs, results, generators,
traces and errors.  Input is validated once, where it enters (``Pencil``,
``SqrtProblem``, ``AccelConfig``, ``SubspaceBasis``, ``subspace_distance``,
``ProblemSpec`` and the CLI parser).  The ``linalg`` and chain kernels
(``lu_factor``, ``null_space_basis``, ``combine``, ``q_step`` and the
like) are internal and trust their callers; each chain element is
checked once, where ``combine`` or ``q_step`` makes it.

Bad input raises ``ValueError`` naming the input; an unreadable matrix
file raises ``ParseError`` with its position; a singular sum raises the
internal ``BreakdownError``.  ``ABFlowError`` is the base of the last two.
"""

from .errors import ABFlowError, ParseError
from .lab import (
    PencilProblem,
    ProblemSpec,
    SpectrumEntry,
    conditioned_similarity,
    make_known_sqrt_problem,
    make_pencil_problem,
    random_unitary,
    run_experiment,
)
from .linalg import DEFAULT_RANK_TOL, SubspaceBasis, subspace_distance
from .pencil import (
    BREAKDOWN_TOL,
    AccelConfig,
    Pencil,
    SolveStatus,
    SubspaceResult,
    ab_run,
    breakdown_check,
    modified_ab_run,
)
from .sqrtm import SqrtProblem, SqrtResult, gamma_heuristic, sqrtm_ab
from .trace import (
    ConvergenceTrace,
    estimate_order,
    write_trace_csv,
    write_trace_json,
)

__version__ = "0.1.0"

__all__ = [
    "ABFlowError", "AccelConfig", "BREAKDOWN_TOL", "ConvergenceTrace",
    "DEFAULT_RANK_TOL", "ParseError", "Pencil", "PencilProblem",
    "ProblemSpec", "SolveStatus", "SpectrumEntry", "SqrtProblem",
    "SqrtResult", "SubspaceBasis", "SubspaceResult",
    "ab_run", "breakdown_check", "conditioned_similarity",
    "estimate_order", "gamma_heuristic", "make_known_sqrt_problem",
    "make_pencil_problem", "modified_ab_run", "random_unitary",
    "run_experiment", "sqrtm_ab", "subspace_distance",
    "write_trace_csv", "write_trace_json",
]
