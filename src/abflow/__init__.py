"""Stable deflating subspaces of matrix pencils and matrix square roots.

The package centers on an alternating pencil iteration whose chain obeys
a discrete flow property (element i+j is a rational combination of
elements i and j).  That property yields an accelerated variant of any
integer convergence order and, through a Cayley-transformed embedding, a
principal matrix square-root solver.

``__all__`` is the public API: the solvers, their inputs and results,
the problem generators and the ``linalg`` kernels.  These validate what
they are given.  The chain kernels inside the modules (``combine``,
``q_step`` and the steps built from them) are internal and trust their
callers, which pass arrays built from already validated inputs.
"""

from .accel import AccelConfig, modified_ab_run
from .errors import (
    ABFlowError,
    BreakdownError,
    DimensionMismatchError,
    InsufficientDataError,
    InvalidBoundsError,
    InvalidSpectrumError,
    ParseError,
    ShapeError,
    SingularMatrixError,
)
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
from .linalg import (
    DEFAULT_RANK_TOL,
    LUFactorization,
    SubspaceBasis,
    as_matrix,
    lu_factor,
    null_space_basis,
    smallest_singular_subspace,
    subspace_distance,
)
from .pencil import (
    BREAKDOWN_TOL,
    Pencil,
    SolveStatus,
    SubspaceResult,
    ab_run,
    breakdown_check,
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
    "ABFlowError", "AccelConfig", "BreakdownError", "BREAKDOWN_TOL",
    "ConvergenceTrace", "DEFAULT_RANK_TOL", "DimensionMismatchError",
    "InsufficientDataError", "InvalidBoundsError", "InvalidSpectrumError",
    "LUFactorization", "ParseError", "Pencil", "PencilProblem",
    "ProblemSpec", "ShapeError", "SingularMatrixError", "SolveStatus",
    "SpectrumEntry", "SqrtProblem", "SqrtResult", "SubspaceBasis",
    "SubspaceResult",
    "ab_run", "as_matrix", "breakdown_check", "conditioned_similarity",
    "estimate_order", "gamma_heuristic", "lu_factor",
    "make_known_sqrt_problem", "make_pencil_problem", "modified_ab_run",
    "null_space_basis", "random_unitary", "run_experiment",
    "smallest_singular_subspace", "sqrtm_ab", "subspace_distance",
    "write_trace_csv", "write_trace_json",
]
