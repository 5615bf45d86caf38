"""Command-line interface: distance, decompose, classify, pop-solve, datasets.

Exit codes: 0 when every requested run certified (status +1), 2 when some
run stopped uncertified (status 0), 3 when a run failed every relaxation
(status -1), and 1 for usage, parse or input errors and for a relaxation
whose estimated memory exceeds the budget (hierarchy.RelaxationTooLarge).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import pipeline
from .datasets import get_dataset, list_datasets
from .hierarchy import RelaxationTooLarge
from .mech import (classify_ela, classify_piezo, classify_sym2, h3_coordinates,
                   harmonic_decompose_ela, piezo_harmonic_part, traceless)
from .reports import write_reports
from .sdp import SolverOptions

STRATA = {stratum: kind for stratum, kind, _build in pipeline.STRATA.values()}
TENSOR_TYPES = {kind: cls for cls, (_stratum, kind, _build) in pipeline.STRATA.items()}
EXIT_CODES = {1: 0, 0: 2, -1: 3}  # by status_xi; a batch exits with its largest


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
    """The tensor of the given kind from its Voigt (or 3x3) matrix; the type
    refuses an entry that is not finite and an asymmetric matrix."""
    try:
        voigt = np.array(voigt, dtype=float)
    except TypeError as exc:  # e.g. a JSON object
        raise ValueError(f"voigt must be a matrix of numbers ({exc})") from None
    if kind not in TENSOR_TYPES:
        raise ValueError(f"unknown tensor kind {kind!r}")
    return TENSOR_TYPES[kind](voigt)


def _load_input(path: str):
    """Read a tensor file {kind, units, voigt}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object {{kind, units, voigt}}, "
                         f"got {type(data).__name__}")
    kind = data.get("kind")
    return kind, _tensor(kind, data.get("voigt"))


def _inputs(args) -> list:
    """(label, kind, tensor) of each --dataset id, or of the --input file."""
    if args.input:
        return [(args.input, *_load_input(args.input))]
    return [(ds.id, ds.kind, _tensor(ds.kind, ds.voigt)) for ds in map(get_dataset, args.dataset)]


def _note_raised_order(requested: int | None, used: int) -> None:
    if requested is not None and requested < used:
        print(f"note: raising --dmax to the minimal admissible order {used}", file=sys.stderr)


def _write_json(path: str, reports) -> int:
    """Write one report, or a list as a JSON array; 1 when path cannot be written."""
    try:
        write_reports(path, reports)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return 0


def _solver_options(args) -> dict:
    """The order and tolerance flags as keyword arguments of a pipeline run."""
    return dict(d_max=args.dmax, rank_eps=args.rank_eps,
                solver=SolverOptions(gap_tol=args.gap_tol, feas_tol=args.feas_tol))


def cmd_distance(args) -> int:
    c = args.c if args.c == "auto" else float(args.c)
    labels, kinds, tensors = zip(*_inputs(args))
    for label, kind in zip(labels, kinds):
        if kind != STRATA[args.stratum]:
            raise ValueError(f"{label} has kind {kind}, incompatible with stratum {args.stratum}")
    opts = _solver_options(args)
    reports = [pipeline.distance(tensor, c=c, **opts) for tensor in tensors]

    for label, report in zip(labels, reports):
        p = report.problem
        p["input"] = label
        _note_raised_order(args.dmax, p["d_max"])
        print(f"== distance: {label} -> stratum {p['stratum']} "
              f"(c = {'n/a' if p['c'] is None else format(p['c'], 'g')})")
        print(f"  status xi        : {report.status_xi:+d}")
        if report.bound is not None:
            print(f"  certified bound  : {_fmt(report.bound)}")
            print(f"  distance         : {_fmt(report.distance)}")
            print(f"  relative distance: {_fmt(report.relative_distance)}")
        for mv in report.minimizers_voigt:
            print("  closest tensor (Voigt):")
            _print_matrix(np.array(mv), indent="    ")
        print(f"  wall time        : {report.seconds:.2f} s")

    if args.json and _write_json(args.json, reports[0] if len(reports) == 1 else reports):
        return 1
    return max(EXIT_CODES[r.status_xi] for r in reports)


def _get_tensor(args):
    if args.dataset and len(args.dataset) != 1:
        raise ValueError("decompose/classify take a single dataset")
    return _inputs(args)[0]


def cmd_decompose(args) -> int:
    label, kind, tensor = _get_tensor(args)
    print(f"== harmonic decomposition: {label} ({kind})")
    if kind == "elasticity":
        h = harmonic_decompose_ela(tensor)
        print(f"  alpha = {_fmt(h.alpha)}   beta = {_fmt(h.beta)}")
        print("  d' =")
        _print_matrix(h.dprime.mat)
        print("  v' =")
        _print_matrix(h.vprime.mat)
        print("  [H] =")
        _print_matrix(h.h4.voigt)
    elif kind == "piezo":
        split = piezo_harmonic_part(tensor)
        print(f"  |g|^2 = {_fmt(split.g.norm2())}   |h|^2 = {_fmt(split.h.norm2())}")
        print("  h components (h111 h112 h122 h123 h222 h223 h333):")
        print("   " + "  ".join(_fmt(v) for v in h3_coordinates(split.h.full())))
        print("  residual g (Voigt):")
        _print_matrix(split.g.voigt)
    else:
        print(f"  trace = {_fmt(tensor.trace())}")
        print("  deviatoric part:")
        _print_matrix(traceless(tensor).mat)
    return 0


def cmd_classify(args) -> int:
    label, kind, tensor = _get_tensor(args)
    print(f"== classify: {label} ({kind}, tol = {args.tol:g})")
    if kind == "sym2":
        cls = classify_sym2(tensor, tol=args.tol)
        print(f"  class: {cls.label}")
        print(f"  |a'| / |a|        = {cls.isotropy_residual:.3e}")
        print(f"  |a^2 x a| / |a|^3 = {cls.transverse_residual:.3e}")
        if len(cls.chain) > 1:
            print("  closed-stratum membership chain: " + " -> ".join(cls.chain))
        return 0
    cls = (classify_ela if kind == "elasticity" else classify_piezo)(tensor, tol=args.tol)
    print(f"  class: {cls.label}")
    for name, residual in cls.residuals.items():
        print(f"  {name:<15}= {residual:.3e}")
    return 0


def cmd_pop_solve(args) -> int:
    # imported here: without a bytecode cache every other command would compile it
    from .popfile import parse_pop

    with open(args.file) as fh:
        problem = parse_pop(fh.read())
    if problem.ball is None:
        print("warning: no ball statement; convergence is only guaranteed for "
              "Archimedean constraints", file=sys.stderr)
    report = pipeline.pop_solve(problem, **_solver_options(args))
    report.problem["file"] = args.file
    _note_raised_order(args.dmax, report.problem["d_max"])

    print(f"== pop-solve: {args.file}")
    print(f"  status xi : {report.status_xi:+d}")
    if report.bound is not None:
        print(f"  bound     : {_fmt(report.bound)}")
    for x in report.minimizers_voigt:
        print("  minimizer : (" + ", ".join(map(_fmt, x)) + ")")
    print(f"  wall time : {report.seconds:.2f} s")

    if args.json and _write_json(args.json, report):
        return 1
    return EXIT_CODES[report.status_xi]


def cmd_datasets(args) -> int:
    if args.action == "show":
        if not args.id:
            print("error: datasets show needs an id", file=sys.stderr)
            return 1
        ds = get_dataset(args.id)
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
    # --jobs is accepted and ignored: a batch runs in this process, and the
    # benchmark's cli op still passes it
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
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
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RelaxationTooLarge) as exc:
        # an input, parse or run error (a bad file, a ball constant below
        # f(x_ref), a tolerance that is not positive): one line, exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
