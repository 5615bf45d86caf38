"""The measured process of one benchmark run.

Started by run.py in a fresh interpreter with a JSON configuration as its
only argument.  It imports what the workload needs, runs one untimed
warm-up operation and prints ``ready``: run.py times set-up up to that
line.  In ``setup`` mode it then exits; in ``measure`` mode it runs the
passes over its quota of rounds and prints one JSON line with the raw
samples (and, with tracing, the per-layer breakdown).
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import SpeedLog
from workloads import PASSES, ROUND_SECONDS, make_round, rounds_per_pass, run_cli, warmup_op

LAYER_OF_SPAN = {
    "mech.build": "mech.build_ms",
    "popfile.parse": "popfile.parse_ms",
    "moment.assemble": "moment.assemble_ms",
    "sdp.solve": "sdp.solve_ms",
    "hierarchy.run": "hierarchy.self_ms",
    "hierarchy.rank": "hierarchy.rank_ms",
    "hierarchy.extract": "hierarchy.extract_ms",
    "op": "bench.unattributed_ms",
}
IMPORT_PROBES = 3
# A run stops after the round in which CAP_FACTOR times its quota's time on
# the reference machine (at most CAP_S) has passed, so that a program many
# times slower than the reference still ends in time.
CAP_FACTOR = 3
CAP_S = 120


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in ms of the outermost strata_opt, numpy and
    scipy modules, from the output of ``python -X importtime``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _self, cumulative, raw = line[len("import time:"):].split("|", 2)
        entries.append((len(raw) - len(raw.lstrip(" ")), raw.strip(), int(cumulative)))
    out = {}
    for key, prefix in (("cli.import_ms", "strata_opt"), ("cli.import_numpy_ms", "numpy"),
                        ("cli.import_scipy_ms", "scipy")):
        total, ancestors = 0, []
        # children are printed before their parent: walk backwards so that
        # every entry is preceded by its ancestors
        for indent, name, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= indent:
                ancestors.pop()
            match = name == prefix or name.startswith(prefix + ".")
            if match and not any(a[1] for a in ancestors):
                total += cumulative
            ancestors.append((indent, match))
        out[key] = total / 1e3
    return out


def import_probe() -> dict:
    """Median import times of the CLI module in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import strata_opt.cli"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Samples:
    """One entry per op: wall and CPU time, error (None when it passed),
    input label, and the input it made ("round.index", the same in every
    pass)."""

    def __init__(self):
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []
        self.errors: list[str | None] = []
        self.kinds: list[str] = []
        self.inputs: list[str] = []

    def add(self, wall_s, cpu_s, err, kind, key):
        self.wall_ms.append(wall_s * 1e3)
        self.cpu_ms.append(cpu_s * 1e3)
        self.errors.append(err)
        self.kinds.append(kind)
        self.inputs.append(key)


class LibraryRunner:
    """certify, lift and pop-ineq: calls into the library in this process."""

    def __init__(self, cfg):
        from workloads import Library

        self.lib = Library()
        self.fn = {"certify": self.lib.certify, "lift": self.lib.lift,
                   "pop-ineq": self.lib.pop}[cfg["workload"]]
        self.fn(warmup_op(cfg["workload"], cfg["workdir"]))

    def run(self, case, samples, key, tracer=None):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            err = tracer.op(self.fn, case) if tracer else self.fn(case)
        except Exception as exc:  # a failed op is counted, never retried
            err = _error(exc)
        samples.add(time.perf_counter() - t0, time.process_time() - c0, err, case.label, key)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def measure(self, cfg):
        samples = Samples()
        speed, rss, capped = for_each_round(cfg, lambda case, i, key: self.run(case, samples, key),
                                            self.peak_rss_mb)
        return {"samples": samples.__dict__, "kernel_ms": speed.ms, "peak_rss_mb": rss,
                "capped": capped}

    def traced(self, cfg):
        from tracing import Tracer
        import tracemalloc

        plain, traced = Samples(), Samples()
        tracer = Tracer()

        def run_traced(case, key):
            tracer.install()
            try:
                self.run(case, traced, key, tracer)
            finally:
                tracer.uninstall()

        def both(case, i, key):
            if i % 2:
                run_traced(case, key)
                self.run(case, plain, key)
            else:
                self.run(case, plain, key)
                run_traced(case, key)

        speed, _, capped = for_each_round(cfg, both)

        # memory pass: one round with tracemalloc, timings discarded
        mem = Tracer()
        mem.track_memory = True
        tracemalloc.start()
        mem.install()
        try:
            for case in make_round(cfg["workload"], cfg["seed"], 0, 0, cfg["workdir"]):
                self.run(case, Samples(), "0.0", mem)
        finally:
            mem.uninstall()
            tracemalloc.stop()

        layers = layer_metrics(tracer.ops)
        for name in ("moment.assemble", "sdp.solve"):
            peaks = [s.peak_bytes for op in mem.ops for s in op if s.name == name]
            layers[f"{name}_peak_mb"] = max(peaks, default=0) / 2**20
        layers.update(import_probe())
        layers["bench.trace_overhead_ms"] = (statistics.median(traced.wall_ms)
                                             - statistics.median(plain.wall_ms))
        return {"samples": plain.__dict__, "traced": traced.__dict__, "kernel_ms": speed.ms,
                "layers": layers, "capped": capped}


def layer_metrics(ops) -> dict:
    """Per-op means of each layer's self time, plus counts and ratios."""
    n = len(ops)
    out = {name: 0.0 for name in LAYER_OF_SPAN.values()}
    solves = iters = optimal = moments = assembles = extracts = 0
    for spans in ops:
        for s in spans:
            out[LAYER_OF_SPAN[s.name]] += s.self_s * 1e3 / n
            if s.name == "moment.assemble" and s.attrs:
                assembles += 1
                moments += s.attrs["num_moments"]
            elif s.name == "sdp.solve" and s.attrs:
                solves += 1
                iters += s.attrs["iters"]
                optimal += s.attrs["optimal"]
            elif s.name == "hierarchy.extract":
                extracts += 1
    out["bench.traced_op_ms"] = sum(s.end - s.start for spans in ops for s in spans
                                    if s.name == "op") * 1e3 / n
    out["moment.num_moments"] = moments / assembles if assembles else 0.0
    out["sdp.iters"] = iters / solves if solves else 0.0
    out["sdp.ms_per_iter"] = out["sdp.solve_ms"] * n / iters if iters else 0.0
    out["sdp.optimal_ratio"] = optimal / solves if solves else 0.0
    out["hierarchy.orders_per_op"] = solves / n
    out["hierarchy.extract_attempts"] = extracts / n
    return out


class CliRunner:
    """cli: one ``strata-opt`` subprocess per op, in the caller's environment."""

    def __init__(self, cfg):
        self.env = dict(os.environ)
        err = run_cli(warmup_op("cli", cfg["workdir"]), self.env)[2]
        if err:
            raise SystemExit(f"cli warm-up failed: {err}")

    def run(self, op, samples, key, importtime=False):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            wall, child_cpu, err, stderr = run_cli(op, self.env, importtime)
        except Exception as exc:  # e.g. a timeout: counted, never retried
            wall, child_cpu, err, stderr = time.perf_counter() - t0, 0.0, _error(exc), ""
        samples.add(wall, child_cpu + time.process_time() - c0, err, op.name, key)
        return stderr

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def measure(self, cfg):
        samples = Samples()
        speed, rss, capped = for_each_round(cfg, lambda op, i, key: self.run(op, samples, key),
                                            self.peak_rss_mb)
        return {"samples": samples.__dict__, "kernel_ms": speed.ms, "peak_rss_mb": rss,
                "capped": capped}

    def traced(self, cfg):
        plain, traced = Samples(), Samples()
        imports, overhead, child_cpu = [], [], []
        sweep = {"sweep-jobs1": [], "sweep-jobs2": []}

        def run_plain(op, key):
            before = os.times()
            self.run(op, plain, key)
            after = os.times()
            child_cpu.append((after.children_user - before.children_user
                              + after.children_system - before.children_system) * 1e3)
            if plain.errors[-1] is None:
                if op.name in sweep:
                    sweep[op.name].append(plain.wall_ms[-1])
                else:
                    overhead.append(plain.wall_ms[-1] - op.solve_seconds() * 1e3)

        def run_traced(op, key):
            stderr = self.run(op, traced, key, importtime=True)
            if traced.errors[-1] is None:
                imports.append(parse_importtime(stderr))

        def both(op, i, key):
            if i % 2:
                run_traced(op, key)
                run_plain(op, key)
            else:
                run_plain(op, key)
                run_traced(op, key)

        speed, _, capped = for_each_round(cfg, both)
        # per-op means, so that import + unattributed = traced op time
        layers = {key: statistics.fmean(s[key] for s in imports) if imports else 0.0
                  for key in ("cli.import_ms", "cli.import_numpy_ms", "cli.import_scipy_ms")}
        layers["bench.traced_op_ms"] = statistics.fmean(traced.wall_ms)
        layers["bench.unattributed_ms"] = layers["bench.traced_op_ms"] - layers["cli.import_ms"]
        layers["cli.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
        layers["cli.child_cpu_ms"] = statistics.fmean(child_cpu)
        layers["cli.sweep_jobs1_ms"] = statistics.median(sweep["sweep-jobs1"] or [0.0])
        layers["cli.sweep_jobs2_ms"] = statistics.median(sweep["sweep-jobs2"] or [0.0])
        layers["bench.trace_overhead_ms"] = (statistics.median(traced.wall_ms)
                                             - statistics.median(plain.wall_ms))
        return {"samples": plain.__dict__, "traced": traced.__dict__, "kernel_ms": speed.ms,
                "layers": layers, "capped": capped}


def for_each_round(cfg, run_op, peak_rss_mb=None):
    """Make PASSES passes over the run's quota of rounds.

    run_op(item, i, key) gets the op, its running number and the key of
    its input.  The reference kernel is timed between ops (speed.py).
    Returns (the SpeedLog, peak_rss_mb() as read after the first round,
    whether the time cap ended the run early).  The peak is that of a
    fresh process through set-up and one round of the mix.  Read at the end
    instead, it would jump whenever any one op of a long run escalates to a
    higher relaxation order."""
    rounds = rounds_per_pass(cfg["workload"], cfg["seconds"], cfg["trace"])
    quota_s = PASSES * rounds * ROUND_SECONDS[cfg["workload"]] * (2 if cfg["trace"] else 1)
    t_cap = time.perf_counter() + min(CAP_FACTOR * quota_s, CAP_S)
    speed = SpeedLog()
    i = 0
    rss = None
    for p in range(PASSES):
        for k in range(rounds):
            items = make_round(cfg["workload"], cfg["seed"], k, p, cfg["workdir"], cfg["perturb"],
                               cfg["trace"])
            for j, item in enumerate(items):
                speed.catch_up()
                run_op(item, i, f"{k}.{j}")
                i += 1
            if rss is None and peak_rss_mb is not None:
                rss = peak_rss_mb()
            if time.perf_counter() >= t_cap:
                return speed, rss, True
    return speed, rss, False


def main() -> int:
    cfg = json.loads(sys.argv[1])
    spec = importlib.util.find_spec("strata_opt")
    origin = os.path.abspath(spec.origin) if spec and spec.origin else None
    if origin is None or not origin.startswith(cfg["src"] + os.sep):
        print(f"strata_opt resolves to {origin}, not to the sources in {cfg['src']}",
              file=sys.stderr)
        return 1
    runner = (CliRunner if cfg["workload"] == "cli" else LibraryRunner)(cfg)
    print("ready", flush=True)
    if cfg["mode"] == "setup":
        return 0
    result = runner.traced(cfg) if cfg["trace"] else runner.measure(cfg)
    from envinfo import environment

    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
