"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload it makes a smoke-sized run (one round per pass)
untraced and traced, and checks that every metric is printed with its
unit, that the layers which run in that workload read non-zero, and that
the per-layer self times add up to the traced op time.  It then scales
every expected value by 1.001 and checks that the correctness gate fails
ops.  It checks that two runs of a seed make the same ops with the same
failures, and that a copy holding only BENCHMARK.json and perfbench/ exits
non-zero without a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LIBRARY_LAYERS = {
    "mech.build_ms", "moment.assemble_ms", "moment.num_moments", "moment.assemble_peak_mb",
    "sdp.solve_ms", "sdp.iters", "sdp.ms_per_iter", "sdp.solve_peak_mb", "sdp.optimal_ratio",
    "hierarchy.self_ms", "hierarchy.rank_ms", "hierarchy.extract_ms",
    "hierarchy.orders_per_op", "hierarchy.extract_attempts",
    "cli.import_ms", "cli.import_numpy_ms", "cli.import_scipy_ms", "bench.traced_op_ms",
}
RUNNING = {
    "certify": LIBRARY_LAYERS,
    "lift": LIBRARY_LAYERS - {"hierarchy.self_ms"},
    "pop-ineq": LIBRARY_LAYERS - {"mech.build_ms"} | {"popfile.parse_ms"},
    "cli": {"cli.import_ms", "cli.import_numpy_ms", "cli.import_scipy_ms", "cli.overhead_ms",
            "cli.child_cpu_ms", "cli.sweep_jobs1_ms", "cli.sweep_jobs2_ms",
            "bench.traced_op_ms", "bench.unattributed_ms"},
}
SELF_TIMES = ("mech.build_ms", "popfile.parse_ms", "moment.assemble_ms", "sdp.solve_ms",
              "hierarchy.self_ms", "hierarchy.rank_ms", "hierarchy.extract_ms",
              "bench.unattributed_ms")


class Failed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise Failed(message)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc, label):
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    check(result["attempted"] >= 1, f"{label}: nothing attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{label}: metrics/units {got} != {expected}")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end != run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer != run.PER_LAYER")


def check_workload(workload):
    plain = result_of(run(workload, 0), f"{workload} untraced")
    check_metrics(plain, END_TO_END, f"{workload} untraced")
    check(plain["correct"], f"{workload}: wrong results at the pinned values")

    traced = result_of(run(workload, 1), f"{workload} traced")
    check_metrics(traced, PER_LAYER, f"{workload} traced")
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    for name in sorted(RUNNING[workload]):
        check(values[name] != 0.0, f"{workload}: layer metric {name} reads 0")
    if workload == "cli":
        parts = values["cli.import_ms"] + values["bench.unattributed_ms"]
    else:
        parts = sum(values[k] for k in SELF_TIMES)
    total = values["bench.traced_op_ms"]
    check(abs(parts - total) <= 1e-6 * total,
          f"{workload}: self times add up to {parts}, traced op is {total}")

    gated = result_of(run(workload, 0, "--perturb-expected", "1.001"), f"{workload} gate")
    ok_ratio = gated["metrics"]["ok_ratio"]["value"]
    check(gated["failed"] > 0 and ok_ratio < 1.0 and not gated["correct"],
          f"{workload}: a wrong expected value did not fail any op")


def check_repeatable():
    first, second = (result_of(run("certify", 0), "certify repeat") for _ in range(2))
    check((first["attempted"], first["failed"]) == (second["attempted"], second["failed"]),
          f"one seed, two runs: {first['attempted']}/{first['failed']} then "
          f"{second['attempted']}/{second['failed']} ops/failed")


def check_without_sources():
    tmp = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("certify", 0, cwd=tmp)
        check(proc.returncode != 0, "a copy without src/ exited 0")
        check('"metrics"' not in proc.stdout, "a copy without src/ printed a result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    try:
        check_benchmark_json()
        check_without_sources()
        check_repeatable()
        for workload in WORKLOADS:
            check_workload(workload)
            print(f"ok: {workload}", flush=True)
    except Failed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("ok: BENCHMARK.json, no-sources refusal, repeatability, all workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
