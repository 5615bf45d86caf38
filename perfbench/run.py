"""strata-opt benchmark: four workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The program is used straight from ``src/``; nothing is installed.  Each run
starts fresh interpreters (perfbench/worker.py): several that only set up,
for the median set-up time, and one that also measures.  The last line of
standard output is the result; the line before it holds the environment
record and the details behind the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from envinfo import THREAD_VARIABLE_PREFIXES, git_commit  # noqa: E402
from speed import factor, mean_kernel_ms  # noqa: E402
from workloads import WORKLOADS, WRONG  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017   # confirm claims on this seed, never tune on it
SETUP_SAMPLES = 5
KERNEL_REPEATS = 5         # kernel timings before and after each set-up sample
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "mech.build_ms": "ms",
    "popfile.parse_ms": "ms",
    "moment.assemble_ms": "ms",
    "moment.num_moments": "count",
    "moment.assemble_peak_mb": "MB",
    "sdp.solve_ms": "ms",
    "sdp.iters": "count",
    "sdp.ms_per_iter": "ms",
    "sdp.solve_peak_mb": "MB",
    "sdp.optimal_ratio": "ratio",
    "hierarchy.self_ms": "ms",
    "hierarchy.rank_ms": "ms",
    "hierarchy.extract_ms": "ms",
    "hierarchy.orders_per_op": "count",
    "hierarchy.extract_attempts": "count",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.child_cpu_ms": "ms",
    "cli.sweep_jobs1_ms": "ms",
    "cli.sweep_jobs2_ms": "ms",
    "bench.unattributed_ms": "ms",
    "bench.traced_op_ms": "ms",
    "bench.trace_overhead_ms": "ms",
}


def worker_env(workload: str) -> dict:
    """The library workloads pin BLAS to one thread before numpy loads; cli
    gets a user's environment with no BLAS thread variable, because the
    CLI's own thread policy is under test there."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(THREAD_VARIABLE_PREFIXES)}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONSTARTUP", None)
    if workload != "cli":
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def start_worker(cfg: dict, env: dict):
    """Start a worker and wait for its ``ready`` line; returns (proc, set-up s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def run_workers(cfg: dict) -> tuple[list, list, dict]:
    """SETUP_SAMPLES set-up-only workers, each between two timings of the
    reference kernel, then the measuring worker.  Returns the set-up
    seconds, the kernel ms around each, and the measuring worker's result."""
    env = worker_env(cfg["workload"])
    setups, kernels = [], []
    for _ in range(SETUP_SAMPLES):
        before = mean_kernel_ms(KERNEL_REPEATS)
        proc, setup = start_worker(dict(cfg, mode="setup"), env)
        try:
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up worker exited with {proc.returncode}")
        setups.append(setup)
        kernels.append(0.5 * (before + mean_kernel_ms(KERNEL_REPEATS)))
    proc, _ = start_worker(dict(cfg, mode="measure"), env)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measuring worker exited with {proc.returncode}")
    return setups, kernels, json.loads(out.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with at least 10 samples beyond it (the maximum
    when there are 10 samples or fewer): (value, percentile, beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 10
    return ordered[k - 1], 100.0 * k / n, 10


def op_metrics(samples: dict, f: float) -> tuple[dict, dict]:
    """Time metrics of the inputs, each at its best pass, with every time
    multiplied by f; and the best times by input label."""
    best = {}
    for w, c, kind, key in zip(samples["wall_ms"], samples["cpu_ms"], samples["kinds"],
                               samples["inputs"]):
        bw, bc, _ = best.get(key, (w * f, c * f, kind))
        best[key] = (min(bw, w * f), min(bc, c * f), kind)
    best_wall = [b[0] for b in best.values()]
    by_kind = {}
    for w, _, kind in best.values():
        by_kind.setdefault(kind, []).append(w)
    tail_ms, pct, beyond = tail(best_wall)
    metrics = {
        "ops_per_s": len(best) / (sum(best_wall) / 1e3),
        "op_p50_ms": statistics.median(best_wall),
        "op_tail_ms": tail_ms,
        "cpu_per_op_ms": statistics.fmean(b[1] for b in best.values()),
    }
    p50_by_kind = {k: statistics.median(w) for k, w in sorted(by_kind.items())}
    return metrics, dict(op_tail={"percentile": pct, "samples": len(best), "beyond": beyond},
                         p50_ms_by_input=p50_by_kind)


def summarize(samples: dict, kernel_ms: list):
    """End-to-end metrics of one sample set, and the details behind them.

    Every input is made once per pass, and its time (and CPU time) is the
    best of its passes.  The passes lie seconds apart, so a slow spell of
    the shared machine seldom covers all of them.  Times are scaled towards
    the reference speed by the run's mean kernel time (speed.py); the raw
    ones are in the details.  ok_ratio counts every op made."""
    errors = samples["errors"]
    n = len(errors)
    failed = sum(e is not None for e in errors)
    wrong = sum(e is not None and e.startswith(WRONG) for e in errors)
    kernel = statistics.fmean(kernel_ms)
    metrics, details = op_metrics(samples, factor(kernel))
    metrics["ok_ratio"] = (n - failed) / n
    raw, raw_details = op_metrics(samples, 1.0)
    details.update(ops=n, inputs=details["op_tail"]["samples"], failed=failed, wrong=wrong,
                   fail_ratio=failed / n, raw=raw, raw_p50_ms_by_input=raw_details["p50_ms_by_input"],
                   kernel_ms_mean=kernel, kernel_samples=len(kernel_ms),
                   first_errors=[e for e in errors if e is not None][:5])
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="work per run, as seconds on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-expected", type=float, default=1.0,
                        help="scale every expected value (self-test of the correctness gate)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "strata_opt", "__init__.py")):
        print(f"error: no strata_opt sources under {src}", file=sys.stderr)
        return 1
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "perturb": args.perturb_expected, "workdir": workdir, "src": src}
    try:
        setups, kernels, result = run_workers(cfg)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, details = summarize(result["samples"], result["kernel_ms"])
    attempted, failed, wrong = details["ops"], details["failed"], details["wrong"]
    env = dict(result["environment"], git_commit=git_commit(ROOT), seed=args.seed,
               workload=args.workload)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, capped=result["capped"], setup_samples_s=setups,
                   setup_kernel_ms=kernels, environment=env)
    if args.trace:
        _, traced = summarize(result["traced"], result["kernel_ms"])
        attempted += traced["ops"]
        failed += traced["failed"]
        wrong += traced["wrong"]
        details["traced_first_errors"] = traced["first_errors"]
        layers = result["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        e2e["setup_s"] = statistics.median(s * factor(k) for s, k in zip(setups, kernels))
        e2e["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps(details))
    # correct: no op returned a wrong certified result; ops that returned
    # no certified result at all count in failed (and ok_ratio) only
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
