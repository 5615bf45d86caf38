"""strata_opt: moment relaxations for polynomial optimization, applied to
distances from constitutive tensors to closed isotropy strata.

The package layers as follows: ``poly`` (polynomials and graded index sets,
both exponent arrays) feeds ``moment`` (moment/localizing matrices, LMI
assembly), solved by ``sdp`` (dense primal-dual interior point) and driven
by ``hierarchy`` (relaxation loop, rank certification, atom extraction).
``mech`` holds the constitutive-tensor algebra and reduces stratum distances
to small polynomial problems; ``pipeline.distance`` runs one stratum distance
on top of both, and ``pipeline.pop_solve`` one parsed problem file, each
returning its report.  ``datasets``, ``popfile``, ``reports``
and ``cli`` provide the data and user-facing plumbing.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless they are already set.  The SDPs solved here are
small, so a BLAS thread pool costs more than it saves; a value set by the
user wins.  The setting takes effect only when the package is imported
before numpy, as the command line does.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .hierarchy import (  # noqa: E402
    HierarchyOptions,
    HierarchyResult,
    add_ball_constraint,
    check_rank_condition,
    extract_minimizers,
    numerical_rank,
    run_hierarchy,
)
from .moment import (  # noqa: E402
    EQ,
    GE,
    MomentVector,
    RelaxationProblem,
    assemble_relaxation,
    minimal_order,
    moment_matrix,
    shift_vector,
)
from .pipeline import distance, pop_solve  # noqa: E402
from .poly import Polynomial, lambda_set  # noqa: E402
from .sdp import SdpSolution, SolverOptions, solve_sdp  # noqa: E402

__all__ = [
    "EQ",
    "GE",
    "HierarchyOptions",
    "HierarchyResult",
    "MomentVector",
    "Polynomial",
    "RelaxationProblem",
    "SdpSolution",
    "SolverOptions",
    "add_ball_constraint",
    "assemble_relaxation",
    "check_rank_condition",
    "distance",
    "extract_minimizers",
    "lambda_set",
    "minimal_order",
    "moment_matrix",
    "numerical_rank",
    "pop_solve",
    "run_hierarchy",
    "shift_vector",
    "solve_sdp",
]

__version__ = "0.1.0"
