"""Process-level behaviour, checked in fresh interpreters: what importing and
running the command line loads (no scipy, no process pool, no problem-file
parser), the BLAS thread default, and bounds that do not depend on the BLAS
thread count."""

import json
import os
import subprocess
import sys

import strata_opt
from strata_opt.sdp import SolverOptions

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(strata_opt.__file__)))


def _python(args, **env_set):
    """Run the interpreter with the thread variables unset unless given."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_set)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def _values_after_import(**env_set):
    code = ("import json, os, strata_opt; "
            f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))")
    proc = _python(["-c", code], **env_set)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy():
    code = ("import sys, strata_opt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BATCH_WITH_JOBS = """
import json, sys
from strata_opt.cli import main
runs = []
for jobs in ("2", "1"):
    code = main(["distance", "--dataset", "aln,cr0.10", "--stratum", "cubic-piezo",
                 "--jobs", jobs, "--json", sys.argv[1] + jobs + ".json"])
    with open(sys.argv[1] + jobs + ".json") as fh:
        reports = json.load(fh)
    for report in reports:  # timings: the report's and each order's phases
        del report["seconds"]
        for order in report["diagnostics"]:
            del order["seconds"]
    runs.append((code, reports))
print(json.dumps({"pool": "concurrent.futures.process" in sys.modules,
                  "same": runs[0] == runs[1], "codes": [code for code, _ in runs]}))
"""


def test_cli_import_loads_no_process_pool(tmp_path):
    # a batch runs in the command's own process: --jobs is accepted and
    # ignored, and the reports are those of --jobs 1 apart from the timings
    code = "import sys, strata_opt.cli; print('concurrent.futures.process' in sys.modules)"
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    proc = _python(["-c", BATCH_WITH_JOBS, str(tmp_path / "jobs")])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"pool": False, "same": True,
                                                        "codes": [0, 0]}


def test_cli_import_loads_no_problem_file_parser():
    # popfile is imported by pop-solve only: where no bytecode is cached,
    # every other command would compile it
    code = "import sys, strata_opt.cli; print('strata_opt.popfile' in sys.modules)"
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


RUN_AND_LIST_MODULES = """
import sys
from strata_opt.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in ("numpy.random", "secrets", "_hashlib") if m in sys.modules))
sys.exit(code)
"""


def test_cli_runs_load_no_random_number_modules(tmp_path):
    # the extraction's combination is fixed: a run never imports numpy.random,
    # and with it secrets, hmac and _hashlib
    pop = tmp_path / "p.pop"
    pop.write_text("var x\nmin (x^2 - 1)^2\nball 3\n")
    for argv in (["distance", "--dataset", "aln", "--stratum", "cubic-piezo"],
                 ["pop-solve", str(pop), "--dmax", "4"]):
        proc = _python(["-c", RUN_AND_LIST_MODULES, *argv])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", argv


def test_blas_threads_default_to_one():
    assert _values_after_import() == ["1", "1", "1"]


def test_user_thread_setting_wins():
    assert _values_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


def _agree_within_gap_tol(b1, b2):
    return abs(b1 - b2) <= SolverOptions().gap_tol * (1.0 + abs(b1) + abs(b2))


def test_cli_bound_agrees_across_blas_thread_counts(tmp_path):
    entry = "import sys; from strata_opt.cli import main; sys.exit(main())"
    bounds = []
    for threads in ("1", "2"):
        report = tmp_path / f"threads{threads}.json"
        proc = _python(["-c", entry, "distance", "--dataset", "E0", "--stratum", "cubic-ela",
                        "--json", str(report)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        bounds.append(json.loads(report.read_text())["bound"])
    assert _agree_within_gap_tol(*bounds)


ORDER_TWO = """
import sys
import numpy as np
from strata_opt import add_ball_constraint, assemble_relaxation, solve_sdp
from strata_opt.cli import _tensor
from strata_opt.datasets import get_dataset
from strata_opt.mech import (build_distance_problem_ela, build_distance_problem_piezo,
                             build_distance_problem_sym2)

ds, d = get_dataset(sys.argv[1]), int(sys.argv[2])
build = {"elasticity": build_distance_problem_ela, "piezo": build_distance_problem_piezo,
         "sym2": build_distance_problem_sym2}[ds.kind]
p = build(_tensor(ds.kind, ds.voigt))
f, zero, r = p.objective, np.zeros(p.n), p.natural_scale
cons = add_ball_constraint(f, p.constraints, 1.5 * f.evaluate(zero), zero)
sol = solve_sdp(assemble_relaxation(f.dilate(r), [(g.dilate(r), k) for g, k in cons], d))
print(sol.status, sol.iterations, repr(sol.objective))
"""


def test_order_two_value_agrees_across_blas_thread_counts():
    # the CLI certifies at d0, whose matrices are too small for a second
    # BLAS thread to start; at d0 + 1, as the lift benchmark poses it (E0
    # with 715 moments), the threaded kernels change the summation order
    # and the value moves, but not the status or the iteration count
    for name, d in (("E0", 2), ("aln", 2), ("a0", 3)):
        runs = []
        for threads in ("1", "2"):
            proc = _python(["-c", ORDER_TWO, name, str(d)], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            status, iterations, value = proc.stdout.split()
            runs.append((status, int(iterations), float(value)))
        (s1, i1, v1), (s2, i2, v2) = runs
        assert s1 == s2 == "optimal" and i1 == i2, (name, runs)
        assert _agree_within_gap_tol(v1, v2), (name, runs)
