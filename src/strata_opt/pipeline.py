"""One stratum-distance run: the tensor's reduced problem, the ball c - f >= 0,
the relaxation hierarchy and the report of its outcome."""

from __future__ import annotations

import time

import numpy as np

from .hierarchy import HierarchyOptions, add_ball_constraint, order_limit, run_hierarchy
from .mech import (ElasticityTensor, PiezoTensor, Sym2Tensor, build_distance_problem_ela,
                   build_distance_problem_piezo, build_distance_problem_sym2, check_finite)
from .moment import minimal_order
from .reports import Report, diagnostics_to_plain, environment
from .sdp import SolverOptions

# tensor type -> (stratum, kind, builder of its distance problem)
STRATA = {Sym2Tensor: ("O2", "sym2", build_distance_problem_sym2),
          ElasticityTensor: ("cubic-ela", "elasticity", build_distance_problem_ela),
          PiezoTensor: ("cubic-piezo", "piezo", build_distance_problem_piezo)}


def distance(tensor, c="auto", d_max=None, solver=None, rank_eps=1e-6) -> Report:
    """The certified distance from a tensor to its closed isotropy stratum.

    The stratum follows from the tensor's type (``STRATA``).  ``c`` is the
    ball constant, or "auto" for 1.5 f(x_ref) at the problem's normal-form
    point x_ref (1e-6 (1 + f(0)) when the input is already on the stratum).
    ``d_max`` is the highest relaxation order: d0 + 1 by default, and
    raised to d0 when below.  The report's ``problem["input"]`` is None for
    the caller to label.

    Raises ValueError when an entry of the tensor is not finite, the squared
    distance does not fit a double, c does not dominate f(x_ref) or a
    tolerance is invalid, and hierarchy.RelaxationTooLarge when an order
    needs too much memory.
    """
    try:
        stratum, kind, build = STRATA[type(tensor)]
    except KeyError:
        raise TypeError(f"no stratum for a {type(tensor).__name__}") from None
    check_finite(tensor.mat if isinstance(tensor, Sym2Tensor) else tensor.voigt)
    problem = build(tensor)
    f = problem.objective
    if c == "auto":
        f_ref = f.evaluate(problem.x_ref)
        c = 1.5 * f_ref
        if c <= f_ref:  # input already on the stratum: any small margin works
            c = 1e-6 * (1.0 + f.evaluate(np.zeros(problem.n)))
    else:
        c = float(c)
    constraints = add_ball_constraint(f, problem.constraints, c, problem.x_ref)
    solver = solver or SolverOptions()
    opts = HierarchyOptions(d_max=order_limit(d_max, minimal_order(f, constraints)),
                            rank_eps=rank_eps, solver=solver,
                            coordinate_scale=problem.natural_scale)
    t0 = time.perf_counter()
    result = run_hierarchy(f, constraints, opts)
    seconds = time.perf_counter() - t0

    dist = relative = None
    minimizers_voigt, residuals = [], {}
    norm_ref = tensor.norm()
    if result.status_xi >= 0 and np.isfinite(result.bound):
        dist = problem.total_distance(result.bound)
        relative = dist / norm_ref if norm_ref > 0 else None
    if result.minimizers:
        minimizers_voigt = [problem.minimizer_voigt(x) for x in result.minimizers]
        direct = problem.tensor_distance(result.minimizers[0])
        residuals["distance_consistency"] = (abs(dist - direct) / (norm_ref or 1.0)
                                             if dist is not None else None)
        last = result.diagnostics[-1]
        residuals["max_constraint_violation"] = last.max_constraint_violation
        residuals["max_objective_mismatch"] = last.max_objective_mismatch

    return Report(
        problem=dict(command="distance", input=None, stratum=stratum, kind=kind, c=c,
                     d_max=opts.d_max, gap_tol=solver.gap_tol, feas_tol=solver.feas_tol,
                     rank_eps=rank_eps, offset=problem.offset,
                     coordinate_scale=opts.coordinate_scale, voigt=problem.reference),
        diagnostics=diagnostics_to_plain(result.diagnostics),
        status_xi=result.status_xi,
        bound=None if not np.isfinite(result.bound) else result.bound,
        distance=dist,
        relative_distance=relative,
        minimizers_voigt=minimizers_voigt,
        residuals=residuals,
        seconds=seconds,
        environment=environment(),
    )
