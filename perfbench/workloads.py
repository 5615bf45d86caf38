"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations come in rounds with a fixed
mix.  A run is a fixed quota of rounds, sized from ``--seconds``
(``rounds_per_pass``), made ``PASSES`` times over: each pass poses every
input of the quota again in a fresh, equivalent form (another rotation of
the same scaled tensor, another signed permutation of the variables of the
same problem).  So the same seed gives the same operations, and the same
failures, however fast the machine runs; and every input is timed at
moments spread over the whole run, never twice on the same data.

Inputs are drawn from ``numpy.random.default_rng``: the input itself from
``(seed, round)``, its form in a pass from ``(seed, round, pass)``.
Expected values follow from pinned reference distances by rotation
invariance and linear scaling, so no operation's result is taken from the
program under test.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

# Pinned distances at unit scale.  The sweep values are those of
# tests/test_sweep_regression.py; a0 is pinned by its bound 18 (offset 0),
# E0 by its distance 74.131148 (tests/test_acceptance.py).
SWEEP = {
    "aln": 1.214679,
    "cr0.035": 1.267516,
    "cr0.07": 1.356271,
    "cr0.10": 1.535066,
    "cr0.13": 1.534077,
    "cr0.16": 1.658717,
    "cr0.19": 1.846029,
    "cr0.225": 1.868767,
    "cr0.255": 1.934046,
}
A0_BOUND = 18.0
E0_DISTANCE = 74.131148

# Tolerances, none looser than the tests': 5e-5 absolute on sweep distances,
# 1e-3 absolute on the a0 bound, 2e-5 relative on E0 (the tests allow 0.05).
SWEEP_ABS_TOL = 5e-5
A0_BOUND_TOL = 1e-3
E0_REL_TOL = 2e-5
# The program's own acceptance test for extracted atoms (hierarchy defaults).
ATOM_FEAS_TOL = 1e-6
ATOM_OBJ_REL_TOL = 1e-4

# An op either passes (None) or fails with a message.  A failure whose
# message starts with WRONG returned a certified result that is wrong; the
# others (not certified, solver trouble, exceptions, exit codes) returned no
# certified result at all.
WRONG = "wrong: "

STRATUM = {"sym2": "O2", "elasticity": "cubic-ela", "piezo": "cubic-piezo"}
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
CLI_ENTRY = "import sys; from strata_opt.cli import main; sys.exit(main())"


class Case:
    """One generated operation input and what a correct answer is."""

    def __init__(self, label, kind, voigt=None, scale=1.0, pop=None):
        self.label = label          # dataset id, or "pop-n<k>"
        self.kind = kind            # sym2 | elasticity | piezo | pop
        self.voigt = voigt          # rotated (and scaled) tensor, nested lists
        self.scale = scale          # factor applied to the pinned tensor
        self.pop = pop              # PopInstance for kind == "pop"
        self.expected_scale = 1.0   # perturbs the expected value (gate self-test)


# -- tensor inputs -----------------------------------------------------------

def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_voigt(kind: str, voigt, g: np.ndarray) -> np.ndarray:
    v = np.asarray(voigt, dtype=float)
    if kind == "sym2":
        out = g @ v @ g.T
        return 0.5 * (out + out.T)
    if kind == "elasticity":
        full = np.empty((3, 3, 3, 3))
        for i, (a, b) in enumerate(VOIGT_PAIRS):
            for j, (c, d) in enumerate(VOIGT_PAIRS):
                for p, q in ((a, b), (b, a)):
                    for r, s in ((c, d), (d, c)):
                        full[p, q, r, s] = v[i, j]
        rot = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, full)
        out = np.array([[rot[a, b, c, d] for (c, d) in VOIGT_PAIRS] for (a, b) in VOIGT_PAIRS])
        return 0.5 * (out + out.T)
    full = np.empty((3, 3, 3))
    for i in range(3):
        for j, (c, d) in enumerate(VOIGT_PAIRS):
            full[i, c, d] = full[i, d, c] = v[i, j]
    rot = np.einsum("ia,jb,kc,abc->ijk", g, g, g, full)
    return np.array([[rot[i, c, d] for (c, d) in VOIGT_PAIRS] for i in range(3)])


def tensor_case(ds, rng, orient, log_scale_range=0.0) -> Case:
    """The pinned tensor scaled by a factor drawn from rng, rotated by a
    rotation drawn from orient."""
    scale = 10.0 ** rng.uniform(-log_scale_range, log_scale_range) if log_scale_range else 1.0
    voigt = scale * rotate_voigt(ds.kind, ds.voigt, random_rotation(orient))
    return Case(ds.id, ds.kind, voigt.tolist(), scale)


# -- dense convex quartic problems with box and ball inequalities ----------

def _pmul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _padd(p, q, w=1.0):
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, 0.0) + w * c
    return out


def _affine(n, coeffs, const):
    p = {(0,) * n: float(const)}
    for i, c in enumerate(coeffs):
        e = [0] * n
        e[i] = 1
        p[tuple(e)] = float(c)
    return p


def peval(p, x) -> float:
    return float(sum(c * math.prod(xi**a for xi, a in zip(x, alpha)) for alpha, c in p.items()))


def _pformat(p, names) -> str:
    parts = []
    for alpha, c in sorted(p.items(), key=lambda t: (-sum(t[0]), t[0])):
        if c == 0.0:
            continue
        factors = [f"{v}^{a}" if a > 1 else v for v, a in zip(names, alpha) if a]
        parts.append(("-" if c < 0 else "+", "*".join([repr(abs(float(c)))] + factors)))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return head + "".join(f" {s} {b}" for s, b in parts[1:])


class PopInstance:
    """min sum_k (l_k.x + b_k)^4 + (x - a)^T Q (x - a) over the box
    |x_i| <= 1 and the ball |x|^2 <= 3n/4.

    The objective is a sum of fourth powers of affine forms plus a positive
    definite quadratic: SOS-convex, with a dense support and a unique
    minimizer.  The centre a lies partly outside the feasible set, so some
    inequalities are active at the optimum.
    """

    def __init__(self, n, rng, orient):
        """The problem is drawn from rng; orient draws the signed permutation
        of the variables it is posed in, which keeps the box and the ball."""
        self.n = n
        names = [f"x{i + 1}" for i in range(n)]
        forms = [(rng.standard_normal(n) / math.sqrt(n), 0.5 * rng.standard_normal())
                 for _ in range(n)]
        b = rng.standard_normal((n, n)) / math.sqrt(n)
        q = 0.5 * np.eye(n) + 0.5 * b @ b.T
        a = rng.uniform(-1.5, 1.5, n)
        # x = m^T y: l.x = (m l).y and (x - a)^T Q (x - a) = (y - m a)^T m Q m^T (y - m a)
        m = np.eye(n)[orient.permutation(n)] * orient.choice((-1.0, 1.0), n)[:, None]
        q, a = m @ q @ m.T, m @ a
        f = {}
        for coeffs, const in forms:
            lin = _affine(n, m @ coeffs, const)
            sq = _pmul(lin, lin)
            f = _padd(f, _pmul(sq, sq))
        for i in range(n):
            for j in range(n):
                f = _padd(f, _pmul(_affine(n, np.eye(n)[i], -a[i]), _affine(n, np.eye(n)[j], -a[j])), q[i, j])
        self.objective = f
        self.constraints = []
        for i in range(n):
            g = {(0,) * n: 1.0}
            e = [0] * n
            e[i] = 2
            g[tuple(e)] = -1.0
            self.constraints.append(g)
        ball = {(0,) * n: 0.75 * n}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            ball[tuple(e)] = -1.0
        self.constraints.append(ball)
        lines = ["var " + " ".join(names), "min " + _pformat(f, names)]
        lines += ["ge " + _pformat(g, names) for g in self.constraints]
        self.text = "\n".join(lines) + "\n"

    def check_atoms(self, atoms, bound) -> str | None:
        """None when every atom is feasible and attains the bound."""
        if not atoms:
            return WRONG + "certified without atoms"
        for x in atoms:
            for g in self.constraints:
                if peval(g, x) < -ATOM_FEAS_TOL * (1.0 + sum(abs(c) for c in g.values())):
                    return WRONG + f"atom {list(x)} infeasible"
            gap = abs(peval(self.objective, x) - bound)
            if gap > ATOM_OBJ_REL_TOL * (1.0 + abs(bound)):
                return WRONG + f"f(atom) - bound = {gap:.3e}"
        return None


def pop_case(n, rng, orient) -> Case:
    return Case(f"pop-n{n}", "pop", pop=PopInstance(n, rng, orient))


# -- expected values ---------------------------------------------------------

def check_distance(case: Case, distance, bound) -> str | None:
    """None when the certified result matches the pinned value."""
    if distance is None or bound is None:
        return "no certified distance"
    s = case.scale
    k = case.expected_scale
    if case.label == "a0":
        want, got, tol = k * A0_BOUND * s * s, bound, A0_BOUND_TOL * s * s
    elif case.label == "E0":
        want, got, tol = k * E0_DISTANCE * s, distance, E0_REL_TOL * E0_DISTANCE * s
    else:
        want, got, tol = k * SWEEP[case.label] * s, distance, SWEEP_ABS_TOL * s
    if not abs(got - want) <= tol:
        return WRONG + f"{case.label}: got {got!r}, expected {want!r} +- {tol:.1e}"
    return None


# -- library operations ------------------------------------------------------

class Library:
    """The program's public functions, resolved at their module attributes
    on each call so that the traced run's wrappers are seen."""

    def __init__(self):
        import strata_opt.hierarchy as hierarchy
        import strata_opt.mech as mech
        import strata_opt.moment as moment
        import strata_opt.popfile as popfile
        import strata_opt.sdp as sdp

        self.hierarchy, self.mech, self.moment = hierarchy, mech, moment
        self.popfile, self.sdp = popfile, sdp

    def tensor(self, case: Case):
        v = np.array(case.voigt)
        if case.kind == "sym2":
            return self.mech.Sym2Tensor.from_matrix(v, tol=1e-9)
        if case.kind == "elasticity":
            return self.mech.ElasticityTensor.from_voigt(v, tol=1e-9)
        return self.mech.PiezoTensor(voigt=v)

    def build(self, case: Case):
        builder = {
            "sym2": self.mech.build_distance_problem_sym2,
            "elasticity": self.mech.build_distance_problem_ela,
            "piezo": self.mech.build_distance_problem_piezo,
        }[case.kind]
        problem = builder(self.tensor(case))
        f = problem.objective
        zero = np.zeros(problem.n)
        constraints = self.hierarchy.add_ball_constraint(
            f, problem.constraints, 1.5 * f.evaluate(zero), zero)
        return problem, constraints

    def certify(self, case: Case) -> str | None:
        """Certify one tensor end to end with d_max = d0 + 1."""
        problem, constraints = self.build(case)
        d0 = self.moment.minimal_order(problem.objective, constraints)
        opts = self.hierarchy.HierarchyOptions(d_max=d0 + 1, coordinate_scale=problem.natural_scale)
        res = self.hierarchy.run_hierarchy(problem.objective, constraints, opts)
        if res.status_xi != 1:
            return f"{case.label}: status {res.status_xi}"
        return check_distance(case, problem.total_distance(res.bound), res.bound)

    def lift(self, case: Case) -> str | None:
        """One relaxation at order d0 + 1, solved, rank-tested and extracted."""
        problem, constraints = self.build(case)
        f = problem.objective
        r = problem.natural_scale
        d = self.moment.minimal_order(f, constraints) + 1
        relax = self.moment.assemble_relaxation(
            f.dilate(r), [(g.dilate(r), kind) for g, kind in constraints], d)
        sol = self.sdp.solve_sdp(relax)
        if sol.status != "optimal":
            return f"{case.label}: solver status {sol.status}"
        flat, s, _low = self.hierarchy.check_rank_condition(sol.y, d, relax.v_max, 1e-6)
        if not flat:
            return f"{case.label}: rank condition fails at d={d}"
        points, _w = self.hierarchy.extract_minimizers(sol.y, d, s, rng=np.random.default_rng(0))
        for x in points:
            gap = abs(f.evaluate(r * x) - sol.objective)
            if gap > ATOM_OBJ_REL_TOL * (1.0 + abs(sol.objective)):
                return WRONG + f"{case.label}: f(atom) - bound = {gap:.3e}"
        return check_distance(case, problem.total_distance(sol.objective), sol.objective)

    def pop(self, case: Case) -> str | None:
        """Parse a problem file and run the hierarchy up to d = 3."""
        problem = self.popfile.parse_pop(case.pop.text)
        res = self.hierarchy.run_hierarchy(
            problem.objective, problem.constraints, self.hierarchy.HierarchyOptions(d_max=3))
        if res.status_xi != 1:
            return f"{case.label}: status {res.status_xi}"
        return case.pop.check_atoms(res.minimizers, res.bound / case.expected_scale)


# -- command-line operations -------------------------------------------------

class CliOp:
    """One ``strata-opt`` invocation and the check of its JSON report."""

    def __init__(self, name, argv, cases, report_path):
        self.name = name
        self.argv = argv
        self.cases = cases
        self.report_path = report_path

    def check(self, returncode) -> str | None:
        if returncode != 0:
            return f"{self.name}: exit code {returncode}"
        with open(self.report_path) as fh:
            data = json.load(fh)
        reports = data if isinstance(data, list) else [data]
        if len(reports) != len(self.cases):
            return f"{self.name}: {len(reports)} reports for {len(self.cases)} inputs"
        for case, rep in zip(self.cases, reports):
            if rep["status_xi"] != 1:
                return f"{self.name}: {case.label} status {rep['status_xi']}"
            if case.kind == "pop":
                err = case.pop.check_atoms(rep["minimizers_voigt"], rep["bound"] / case.expected_scale)
            else:
                err = check_distance(case, rep["distance"], rep["bound"])
            if err:
                return f"{err} ({self.name})"
        return None

    def solve_seconds(self) -> float:
        with open(self.report_path) as fh:
            data = json.load(fh)
        return sum(r["seconds"] for r in (data if isinstance(data, list) else [data]))


def cli_command(argv, importtime=False):
    return [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", CLI_ENTRY] + argv


def run_cli(op: CliOp, env, importtime=False):
    """Run one invocation; returns (wall seconds, child CPU seconds, error, stderr)."""
    if os.path.exists(op.report_path):
        os.remove(op.report_path)
    before = os.times()
    t0 = time.perf_counter()
    proc = subprocess.run(cli_command(op.argv, importtime), env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - t0
    after = os.times()
    cpu = (after.children_user - before.children_user) + (after.children_system - before.children_system)
    try:
        err = op.check(proc.returncode)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed report
        err = f"{op.name}: {type(exc).__name__}: {exc}"
    return wall, cpu, err, proc.stderr


# -- rounds ------------------------------------------------------------------

WORKLOADS = ("certify", "lift", "pop-ineq", "cli")
# cubic-piezo d=2, 4x cubic-ela d=2, O2 d=3: the median falls among the E0
# inputs, and with one round per pass the tail is the a0 input
LIFT_CASES = ("aln", "E0", "E0", "E0", "E0", "a0")
POP_SIZES = (4, 5, 6)

# Each input is made once per pass; its time is the best of its passes.
PASSES = 3
# Seconds one untraced round takes on the reference machine (2 vCPU,
# OpenBLAS 0.3.31, Python 3.11): they turn --seconds into a fixed quota of
# rounds, so that a run does the same operations on a slow machine as on a
# fast one.  Do not re-measure them when the program changes speed.
ROUND_SECONDS = {"certify": 0.3, "lift": 6.0, "pop-ineq": 0.4, "cli": 3.5}


def rounds_per_pass(workload, seconds, traced=False):
    """Rounds in each pass, so that a run does about ``seconds`` of work on
    the reference machine.  The traced run makes every op twice, once
    plain and once traced, so it does half as many rounds."""
    per_pass = seconds / PASSES / ROUND_SECONDS[workload] / (2 if traced else 1)
    return max(1, round(per_pass))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def cli_round(rng, orient, k, workdir, perturb=1.0, traced=False):
    """The invocations of one ``cli`` round; input files go to workdir.

    The sweep with ``--jobs 2`` runs in the traced run only.  Under the
    default BLAS threads, two workers with two threads each on two cores
    take 0.9 to 3 s from one run to the next, which left no bound that the
    untraced metrics could hold; ``cli.sweep_jobs2_ms`` reports it."""
    from strata_opt.datasets import CR_SWEEP, DATASETS

    ops = []
    piezo_id = CR_SWEEP[k % len(CR_SWEEP)]
    for ds_id in ("a0", "E0", piezo_id):
        case = tensor_case(DATASETS[ds_id], rng, orient)
        tensor_file = _write(os.path.join(workdir, f"{ds_id}.json"),
                             json.dumps({"kind": case.kind, "voigt": case.voigt}))
        report = os.path.join(workdir, f"{ds_id}.report.json")
        argv = ["distance", "--input", tensor_file, "--stratum", STRATUM[case.kind], "--json", report]
        ops.append(CliOp(f"distance-{case.kind}", argv, [case], report))
    sweep = [Case(ds_id, "piezo") for ds_id in CR_SWEEP]
    for jobs in (1, 2) if traced else (1,):
        report = os.path.join(workdir, f"sweep{jobs}.report.json")
        argv = ["distance", "--dataset", ",".join(CR_SWEEP), "--stratum", "cubic-piezo",
                "--jobs", str(jobs), "--json", report]
        ops.append(CliOp(f"sweep-jobs{jobs}", argv, sweep, report))
    case = pop_case(5, rng, orient)
    pop_file = _write(os.path.join(workdir, "problem.pop"), case.pop.text)
    report = os.path.join(workdir, "pop.report.json")
    ops.append(CliOp("pop-solve", ["pop-solve", pop_file, "--json", report], [case], report))
    for op in ops:
        for c in op.cases:
            c.expected_scale = perturb
    return ops


def make_round(workload, seed, k, p=0, workdir=None, perturb=1.0, traced=False):
    """Inputs of round k in pass p: Cases for the library workloads, CliOps
    for cli.  Every pass makes the same inputs, each in another form."""
    from strata_opt.datasets import CR_SWEEP, DATASETS

    rng = np.random.default_rng([seed, k])
    orient = np.random.default_rng([seed, k, p])
    if workload == "cli":
        return cli_round(rng, orient, k, workdir, perturb, traced)
    if workload == "certify":
        cases = [tensor_case(DATASETS[i], rng, orient, 3.0) for i in ("a0", "E0") + CR_SWEEP]
    elif workload == "lift":
        cases = [tensor_case(DATASETS[i], rng, orient) for i in LIFT_CASES]
    else:
        cases = [pop_case(n, rng, orient) for n in POP_SIZES]
    for c in cases:
        c.expected_scale = perturb
    return cases


def warmup_op(workload, workdir):
    """The untimed operation that ends set-up: the cheapest op of the mix."""
    from strata_opt.datasets import DATASETS

    if workload == "cli":
        report = os.path.join(workdir, "warmup.report.json")
        argv = ["distance", "--dataset", "aln", "--stratum", "cubic-piezo", "--json", report]
        return CliOp("warmup", argv, [Case("aln", "piezo")], report)
    rng = np.random.default_rng(0)
    if workload == "pop-ineq":
        return pop_case(POP_SIZES[0], rng, rng)
    return tensor_case(DATASETS["aln"], rng, rng)
