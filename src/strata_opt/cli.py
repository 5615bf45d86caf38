"""Command-line interface: distance, decompose, classify, pop-solve, datasets.

Exit codes: 0 when every requested run certified (status +1), 2 when some
run stopped uncertified (status 0), 3 when a run failed every relaxation
(status -1), and 1 for usage, parse or input errors and for a relaxation
whose estimated memory exceeds the budget (hierarchy.RelaxationTooLarge).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import hierarchy
from .datasets import get_dataset, list_datasets
from .hierarchy import HierarchyOptions, RelaxationTooLarge, add_ball_constraint, run_hierarchy
from .moment import minimal_order
from .mech import (
    ElasticityTensor,
    PiezoTensor,
    Sym2Tensor,
    build_distance_problem_ela,
    build_distance_problem_piezo,
    build_distance_problem_sym2,
    classify_sym2,
    d2prime_ela,
    d2prime_piezo,
    harmonic_decompose_ela,
    piezo_harmonic_part,
)
from .reports import Report, diagnostics_to_plain, environment
from .sdp import SolverOptions

STRATA = {"O2": "sym2", "cubic-ela": "elasticity", "cubic-piezo": "piezo"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6f}"


def _print_matrix(m: np.ndarray, indent: str = "  ") -> None:
    for row in np.atleast_2d(m):
        print(indent + "  ".join(f"{v:12.6f}" for v in row))


def _tensor(kind: str, voigt):
    """The tensor of the given kind from its Voigt (or 3x3) matrix;
    asymmetry is an error, not silently averaged away, and so is an entry
    that is not finite."""
    try:
        voigt = np.array(voigt, dtype=float)
    except TypeError as exc:  # e.g. a JSON object
        raise ValueError(f"voigt must be a matrix of numbers ({exc})") from None
    bad = np.argwhere(~np.isfinite(voigt)) if voigt.ndim else ()
    if len(bad):
        raise ValueError("tensor entries must be finite, got "
                         + ", ".join(f"{voigt[tuple(i)]} at {tuple(i.tolist())}" for i in bad))
    if kind == "sym2":
        return Sym2Tensor.from_matrix(voigt)
    if kind == "elasticity":
        return ElasticityTensor.from_voigt(voigt)
    if kind == "piezo":
        return PiezoTensor(voigt=voigt)
    raise ValueError(f"unknown tensor kind {kind!r}")


def _load_input(path: str):
    """Read a tensor file {kind, units, voigt}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object {{kind, units, voigt}}, "
                         f"got {type(data).__name__}")
    kind = data.get("kind")
    return kind, _tensor(kind, data.get("voigt")), data.get("units", "")


BUILDERS = {"sym2": build_distance_problem_sym2, "elasticity": build_distance_problem_ela,
            "piezo": build_distance_problem_piezo}


def _resolve_ball_constant(c_arg: str, problem):
    """The ball constant and the feasible point it must dominate: "auto"
    takes 1.5 f(x_ref) at the problem's normal-form point x_ref."""
    f, x_ref = problem.objective, problem.x_ref
    if c_arg != "auto":
        return float(c_arg), x_ref
    f_ref = f.evaluate(x_ref)
    c = 1.5 * f_ref
    if c <= f_ref:  # input already on the stratum: any small margin works
        c = 1e-6 * (1.0 + f.evaluate(np.zeros(problem.n)))
    return c, x_ref


def _hierarchy_options(args, d0: int, coordinate_scale: float = 1.0) -> HierarchyOptions:
    try:
        seed = int(os.environ.get("STRATA_OPT_SEED", "0"))
    except ValueError:
        print("warning: ignoring non-integer STRATA_OPT_SEED", file=sys.stderr)
        seed = 0
    d_max = args.dmax if args.dmax is not None else d0 + 1
    if args.dmax is not None and args.dmax < d0:
        print(f"note: raising --dmax to the minimal admissible order {d0}", file=sys.stderr)
    return HierarchyOptions(
        d_max=max(d_max, d0),
        rank_eps=args.rank_eps,
        seed=seed,
        solver=SolverOptions(gap_tol=args.gap_tol, feas_tol=args.feas_tol),
        coordinate_scale=coordinate_scale,
    )


def _distance_single(job) -> Report:
    label, kind, voigt, c_arg, args_dict = job
    args = argparse.Namespace(**args_dict)
    tensor = _tensor(kind, voigt)
    problem = BUILDERS[kind](tensor)
    c, x_ref = _resolve_ball_constant(c_arg, problem)
    constraints = add_ball_constraint(problem.objective, problem.constraints, c, x_ref)
    d0 = minimal_order(problem.objective, constraints)
    opts = _hierarchy_options(args, d0, coordinate_scale=problem.natural_scale)
    t0 = time.perf_counter()
    result = run_hierarchy(problem.objective, constraints, opts)
    seconds = time.perf_counter() - t0

    distance = relative = None
    minimizers_voigt = []
    residuals = {}
    if result.status_xi >= 0 and np.isfinite(result.bound):
        distance = problem.total_distance(result.bound)
        norm_ref = tensor.norm()
        relative = distance / norm_ref if norm_ref > 0 else None
    if result.minimizers:
        minimizers_voigt = [problem.minimizer_voigt(x) for x in result.minimizers]
        direct = problem.tensor_distance(result.minimizers[0])
        residuals["distance_consistency"] = abs(distance - direct) if distance is not None else None
        last = result.diagnostics[-1]
        residuals["max_constraint_violation"] = last.max_constraint_violation
        residuals["max_objective_mismatch"] = last.max_objective_mismatch

    report = Report(
        problem={
            "command": "distance",
            "input": label,
            "stratum": args.stratum,
            "kind": kind,
            "c": c,
            "d_max": opts.d_max,
            "gap_tol": args.gap_tol,
            "feas_tol": args.feas_tol,
            "rank_eps": args.rank_eps,
            "seed": opts.seed,
            "offset": problem.offset,
            "coordinate_scale": opts.coordinate_scale,
            "voigt": voigt,
        },
        diagnostics=diagnostics_to_plain(result.diagnostics),
        status_xi=result.status_xi,
        bound=None if not np.isfinite(result.bound) else result.bound,
        distance=distance,
        relative_distance=relative,
        minimizers_voigt=minimizers_voigt,
        residuals=residuals,
        seconds=seconds,
        environment=environment(),
    )
    return report


def _share_memory(workers: int) -> None:
    """Process-pool initializer: workers that solve at the same time split
    the memory budget of run_hierarchy, so together they stay within it."""
    hierarchy.MEMORY_FRACTION /= workers


def cmd_distance(args) -> int:
    stratum_kind = STRATA.get(args.stratum)
    if stratum_kind is None:
        print(f"unknown stratum {args.stratum!r}", file=sys.stderr)
        return 1
    jobs = []
    try:
        if args.dataset:
            for ds_id in args.dataset:
                ds = get_dataset(ds_id)
                if ds.kind != stratum_kind:
                    raise ValueError(
                        f"dataset {ds_id} has kind {ds.kind}, incompatible with stratum {args.stratum}"
                    )
                jobs.append((ds_id, ds.kind, ds.voigt.tolist(), args.c, vars(args)))
        else:
            kind, tensor, _units = _load_input(args.input)
            if kind != stratum_kind:
                raise ValueError(
                    f"input kind {kind} is incompatible with stratum {args.stratum}"
                )
            voigt = tensor.mat if kind == "sym2" else tensor.voigt
            jobs.append((args.input, kind, voigt.tolist(), args.c, vars(args)))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.jobs > 1 and len(jobs) > 1:
            # imported here: the process-pool machinery is a cost of --jobs only
            from concurrent.futures import ProcessPoolExecutor

            workers = min(args.jobs, len(jobs))
            with ProcessPoolExecutor(max_workers=workers, initializer=_share_memory,
                                     initargs=(workers,)) as pool:
                reports = list(pool.map(_distance_single, jobs))
        else:
            reports = [_distance_single(job) for job in jobs]
    except (ValueError, RelaxationTooLarge) as exc:  # e.g. a ball constant below f(x_ref)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for report in reports:
        p = report.problem
        print(f"== distance: {p['input']} -> stratum {p['stratum']} (c = {p['c']:g})")
        print(f"  status xi        : {report.status_xi:+d}")
        if report.bound is not None:
            print(f"  certified bound  : {_fmt(report.bound)}")
            print(f"  distance         : {_fmt(report.distance)}")
            print(f"  relative distance: {_fmt(report.relative_distance)}")
        for mv in report.minimizers_voigt:
            print("  closest tensor (Voigt):")
            _print_matrix(np.array(mv), indent="    ")
        print(f"  wall time        : {report.seconds:.2f} s")

    if args.json:
        payload = reports[0].to_json() if len(reports) == 1 else (
            "[" + ",\n".join(r.to_json() for r in reports) + "]"
        )
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")

    xis = [r.status_xi for r in reports]
    if all(x == 1 for x in xis):
        return 0
    return 3 if any(x == -1 for x in xis) else 2


def _get_tensor(args):
    if args.dataset:
        if len(args.dataset) != 1:
            raise ValueError("decompose/classify take a single dataset")
        ds = get_dataset(args.dataset[0])
        return ds.id, ds.kind, _tensor(ds.kind, ds.voigt)
    kind, tensor, _units = _load_input(args.input)
    return args.input, kind, tensor


def cmd_decompose(args) -> int:
    try:
        label, kind, tensor = _get_tensor(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"== harmonic decomposition: {label} ({kind})")
    if kind == "elasticity":
        h = harmonic_decompose_ela(tensor)
        print(f"  alpha = {_fmt(h.alpha)}   beta = {_fmt(h.beta)}")
        print("  d' =")
        _print_matrix(h.dprime.mat)
        print("  v' =")
        _print_matrix(h.vprime.mat)
        print("  [H] =")
        _print_matrix(h.h4.to_voigt())
    elif kind == "piezo":
        split = piezo_harmonic_part(tensor)
        print(f"  |g|^2 = {_fmt(split.g.norm2())}   |h|^2 = {_fmt(split.h.norm2())}")
        print("  h components (h111 h112 h122 h123 h222 h223 h333):")
        print("   " + "  ".join(_fmt(v) for v in split.h.as_array()))
        print("  residual g (Voigt):")
        _print_matrix(split.g.voigt)
    else:
        tr = tensor.trace()
        print(f"  trace = {_fmt(tr)}")
        print("  deviatoric part:")
        _print_matrix(tensor.mat - tr / 3.0 * np.eye(3))
    return 0


def cmd_classify(args) -> int:
    try:
        label, kind, tensor = _get_tensor(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"== classify: {label} ({kind}, tol = {args.tol:g})")
    # the residuals are scale-invariant but the norms of a tensor near the
    # largest double overflow: divide exactly by a power of two above its entries
    m = tensor.mat if kind == "sym2" else tensor.voigt
    tensor = type(tensor)(np.ldexp(m, -np.frexp(np.max(np.abs(m)))[1]))
    if kind == "sym2":
        cls = classify_sym2(tensor, tol=args.tol)
        print(f"  class: {cls.label}")
        print(f"  |a'| / |a|        = {cls.isotropy_residual:.3e}")
        print(f"  |a^2 x a| / |a|^3 = {cls.transverse_residual:.3e}")
        if len(cls.chain) > 1:
            print("  closed-stratum membership chain: " + " -> ".join(cls.chain))
    elif kind == "elasticity":
        h = harmonic_decompose_ela(tensor)
        nE = tensor.norm()
        r_d = h.dprime.norm() / nE if nE > 0 else 0.0
        r_v = h.vprime.norm() / nE if nE > 0 else 0.0
        nH2 = h.h4.norm2()
        r_d2 = d2prime_ela(h.h4).norm() / nH2 if nH2 > 0 else 0.0
        cubic = r_d <= args.tol and r_v <= args.tol and r_d2 <= args.tol
        strict = cubic and np.sqrt(nH2) > args.tol * nE
        label_out = "at-least-cubic" + (" (strictly cubic)" if strict else "") if cubic else "not cubic"
        print(f"  class: {label_out}")
        print(f"  |d'| / |E|     = {r_d:.3e}")
        print(f"  |v'| / |E|     = {r_v:.3e}")
        print(f"  |d2'| / |H|^2  = {r_d2:.3e}")
    else:
        split = piezo_harmonic_part(tensor)
        ne = tensor.norm()
        r_g = split.g.norm() / ne if ne > 0 else 0.0
        nh2 = split.h.norm2()
        r_d2 = d2prime_piezo(split.h).norm() / nh2 if nh2 > 0 else 0.0
        cubic = r_g <= args.tol and r_d2 <= args.tol
        strict = cubic and np.sqrt(nh2) > args.tol * ne
        label_out = "at-least-cubic" + (" (strictly cubic)" if strict else "") if cubic else "not cubic"
        print(f"  class: {label_out}")
        print(f"  |g| / |e|      = {r_g:.3e}")
        print(f"  |d2'| / |h|^2  = {r_d2:.3e}")
    return 0


def cmd_pop_solve(args) -> int:
    # imported here: without a bytecode cache every other command would compile it
    from .popfile import PopFormatError, parse_pop

    try:
        with open(args.file) as fh:
            problem = parse_pop(fh.read())
    except (OSError, PopFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    f = problem.objective
    constraints = list(problem.constraints)
    if problem.ball is not None:
        try:
            constraints = add_ball_constraint(f, constraints, problem.ball)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        print("warning: no ball statement; convergence is only guaranteed for "
              "Archimedean constraints", file=sys.stderr)
    d0 = minimal_order(f, constraints)
    opts = _hierarchy_options(args, d0)
    t0 = time.perf_counter()
    try:
        result = run_hierarchy(f, constraints, opts)
    except (ValueError, RelaxationTooLarge) as exc:  # e.g. a tolerance that is not positive
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seconds = time.perf_counter() - t0

    print(f"== pop-solve: {args.file}")
    print(f"  status xi : {result.status_xi:+d}")
    if np.isfinite(result.bound):
        print(f"  bound     : {_fmt(result.bound)}")
    for x in result.minimizers:
        print("  minimizer : (" + ", ".join(_fmt(v) for v in x) + ")")
    print(f"  wall time : {seconds:.2f} s")

    if args.json:
        bound = None if not np.isfinite(result.bound) else result.bound
        report = Report(
            problem={
                "command": "pop-solve",
                "file": args.file,
                "var_names": list(problem.var_names),
                "ball": problem.ball,
                "d_max": opts.d_max,
                "gap_tol": args.gap_tol,
                "feas_tol": args.feas_tol,
                "rank_eps": args.rank_eps,
                "seed": opts.seed,
                "offset": 0.0,
            },
            diagnostics=diagnostics_to_plain(result.diagnostics),
            status_xi=result.status_xi,
            bound=bound,
            distance=None if bound is None else float(np.sqrt(max(0.0, bound))),
            relative_distance=None,
            minimizers_voigt=[list(map(float, x)) for x in result.minimizers],
            residuals={},
            seconds=seconds,
            environment=environment(),
        )
        report.write(args.json)

    return {1: 0, 0: 2, -1: 3}[result.status_xi]


def cmd_datasets(args) -> int:
    if args.action == "show":
        if not args.id:
            print("error: datasets show needs an id", file=sys.stderr)
            return 1
        try:
            ds = get_dataset(args.id)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"== {ds.id} ({ds.kind}, units {ds.units})")
        print(f"  source: {ds.source}")
        _print_matrix(ds.voigt)
        return 0
    print(f"{'id':<10} {'kind':<12} {'units':<8} source")
    for ds in list_datasets():
        print(f"{ds.id:<10} {ds.kind:<12} {ds.units:<8} {ds.source}")
    return 0


def _add_common_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dmax", type=int, default=None, help="maximal relaxation order")
    p.add_argument("--gap-tol", type=float, default=1e-8)
    p.add_argument("--feas-tol", type=float, default=1e-8)
    p.add_argument("--rank-eps", type=float, default=1e-6)
    p.add_argument("--json", type=str, default=None, help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strata-opt",
                     description="Distances from constitutive tensors to isotropy strata "
                                 "via moment relaxations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance to a closed isotropy stratum")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", type=lambda s: s.split(","), help="embedded dataset id(s), comma separated")
    src.add_argument("--input", type=str, help="tensor JSON file")
    p.add_argument("--stratum", required=True, choices=sorted(STRATA))
    p.add_argument("--c", type=str, default="auto", help="ball constant or 'auto'")
    p.add_argument("--jobs", type=int, default=1, help="parallel batch runs")
    _add_common_solver_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("decompose", help="print harmonic components")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", type=lambda s: s.split(","))
    src.add_argument("--input", type=str)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="detect the isotropy class")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", type=lambda s: s.split(","))
    src.add_argument("--input", type=str)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pop-solve", help="solve a polynomial optimization problem file")
    p.add_argument("file", type=str)
    _add_common_solver_flags(p)
    p.set_defaults(func=cmd_pop_solve)

    p = sub.add_parser("datasets", help="list or show embedded datasets")
    p.add_argument("action", nargs="?", choices=["show"], default=None)
    p.add_argument("id", nargs="?", default=None)
    p.set_defaults(func=cmd_datasets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
