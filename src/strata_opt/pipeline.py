"""The library's runs: a stratum distance (the tensor's reduced problem, the
ball c - f >= 0, the relaxation hierarchy) and a polynomial optimization
problem, each returning the report of its outcome."""

from __future__ import annotations

import time

import numpy as np

from .hierarchy import (RANK_EPS, HierarchyOptions, HierarchyResult, add_ball_constraint,
                        order_limit, run_hierarchy)
from .mech import (ElasticityTensor, PiezoTensor, Sym2Tensor, build_distance_problem_ela,
                   build_distance_problem_piezo, build_distance_problem_sym2)
from .moment import minimal_order
from .reports import Report, diagnostics_to_plain, environment
from .sdp import FEAS_TOL, GAP_TOL

# tensor type -> (stratum, kind, builder of its distance problem)
STRATA = {Sym2Tensor: ("O2", "sym2", build_distance_problem_sym2),
          ElasticityTensor: ("cubic-ela", "elasticity", build_distance_problem_ela),
          PiezoTensor: ("cubic-piezo", "piezo", build_distance_problem_piezo)}


def _run(f, constraints, d_max, coordinate_scale=1.0, known=None):
    """min f over the constraints by the hierarchy from d0 to d_max (d0 + 1
    unless given, raised to d0 when below), or the ``known`` result without
    a solve: the result, the settings a report records and its solve fields."""
    opts = HierarchyOptions(d_max=order_limit(d_max, minimal_order(f, constraints)),
                            coordinate_scale=coordinate_scale)
    t0 = time.perf_counter()
    result = known or run_hierarchy(f, constraints, opts)
    seconds = time.perf_counter() - t0
    settings = dict(d_max=opts.d_max, gap_tol=GAP_TOL, feas_tol=FEAS_TOL, rank_eps=RANK_EPS)
    return result, settings, dict(
        diagnostics=diagnostics_to_plain(result.diagnostics), status_xi=result.status_xi,
        bound=result.bound if np.isfinite(result.bound) else None, seconds=seconds,
        environment=environment())


def distance(tensor, c="auto", d_max=None) -> Report:
    """The certified distance from a tensor to its closed isotropy stratum.

    The stratum follows from the tensor's type (``STRATA``).  ``c`` is the
    ball constant, or "auto" for 1.5 f(x_ref) at the problem's normal-form
    point x_ref.  ``d_max`` is the highest relaxation order: d0 + 1 by
    default, and raised to d0 when below.  The report's ``problem["input"]``
    is None for the caller to label.

    Under "auto" an input with f(x_ref) <= 0 lies on its stratum: x_ref is
    feasible and f = |x - x0|_Q^2 >= 0, so min f = 0 there.  It is certified
    exactly, with no relaxation: bound 0, the distance sqrt(offset), the
    candidate at x_ref, c None and no diagnostics.

    Raises ValueError when the squared distance does not fit a double or c
    does not dominate f(x_ref), and
    hierarchy.RelaxationTooLarge when an order needs too much memory.
    """
    try:
        stratum, kind, build = STRATA[type(tensor)]
    except KeyError:
        raise TypeError(f"no stratum for a {type(tensor).__name__}") from None
    problem = build(tensor)
    f, x_ref = problem.objective, problem.x_ref
    f_ref, known = f.evaluate(x_ref), None
    if c == "auto" and f_ref <= 0.0:
        c, constraints = None, problem.constraints
        known = HierarchyResult(status_xi=1, bound=0.0, order_reached=0, minimizers=[x_ref])
    else:
        c = 1.5 * f_ref if c == "auto" else float(c)
        constraints = add_ball_constraint(f, problem.constraints, c, x_ref)
    result, settings, fields = _run(f, constraints, d_max, problem.natural_scale, known)

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
    if result.diagnostics and result.minimizers:
        last = result.diagnostics[-1]
        residuals["max_constraint_violation"] = last.max_constraint_violation
        residuals["max_objective_mismatch"] = last.max_objective_mismatch
    return Report(
        problem=dict(command="distance", input=None, stratum=stratum, kind=kind, c=c, **settings,
                     offset=problem.offset, coordinate_scale=problem.natural_scale,
                     voigt=problem.reference),
        distance=dist, relative_distance=relative, minimizers_voigt=minimizers_voigt,
        residuals=residuals, **fields)


def pop_solve(problem, d_max=None) -> Report:
    """Solve a parsed problem file (``popfile.PopProblem``) by the hierarchy,
    with its ball c - f >= 0 when it has one, under the order rule of
    ``distance``.  The report's ``problem["file"]`` is None for the caller
    to label, and its distance is the root of a nonnegative bound.

    Raises ValueError when the ball constant is invalid, and
    hierarchy.RelaxationTooLarge when an order needs too much memory.
    """
    f, constraints = problem.objective, list(problem.constraints)
    if problem.ball is not None:
        constraints = add_ball_constraint(f, constraints, problem.ball)
    result, settings, fields = _run(f, constraints, d_max)
    bound = fields["bound"]
    return Report(
        problem=dict(command="pop-solve", file=None, var_names=list(problem.var_names),
                     ball=problem.ball, **settings, offset=0.0),
        distance=None if bound is None else float(np.sqrt(max(0.0, bound))),
        minimizers_voigt=[list(map(float, x)) for x in result.minimizers], **fields)
