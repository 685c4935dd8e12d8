"""Benchmark runner: rounds, timing, checks and metrics.

One process, closed loop: one operation at a time.  A run repeats whole
rounds of its workload (``workloads.py``) until the operations have been busy
for ``--seconds`` seconds and at least ``MIN_SAMPLES`` operations have run,
checks every output after its timed interval, prints each metric by name and
unit, then one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays the
seed's first round untraced and traced, alternately, and reports per-layer
metrics per round, averaged over the replays.

Timing.  Operations are timed in CPU time (user + system) of the process that
does the work: this one, or the child for a CLI operation; wall time on a
shared virtual machine also counts time the hypervisor gives to other
guests.  CPU time still follows the machine's own speed, which drifts by tens
of per cent within minutes.  So a fixed probe loop that does not touch
unicanon (``SpeedProbe``) runs between operations, about every
``PROBE_EVERY_S`` seconds of work, and every reported time is scaled to the
reference speed at which the probe takes ``REFERENCE_PROBE_S``:
``t * REFERENCE_PROBE_S / probe``, with the mean of the probes before and
after.  The unscaled CPU times are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from importlib import metadata
from time import perf_counter

import numpy as np

import workloads
from tracer import LAYERS, Tracer, clock
from workloads import ChildRun

WORKLOADS = (*workloads.ROUNDS, "cli-json")
MIN_SAMPLES = 100  # so that the 90th percentile has ten samples beyond it
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
WALL_CAP_S = 140.0  # stop starting rounds, to end well within 180 s
WARMUP_ROUND = 10**6  # rng stream of the warm-up input, apart from real rounds
PROBE_EVERY_S = 0.5
REFERENCE_PROBE_S = 0.02  # defines the time unit; about the probe's median where the benchmark was built

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "numcore.self_s": "s",
    "numcore.calls": "count",
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.flops_est": "flop",
    "mbm.self_s": "s",
    "mbm.steps": "count",
    "mbm.step_ms": "ms",
    "mbm.zones": "count",
    "mbm.tie_classes": "count",
    "mbm.canonicalize_per_op": "ratio",
    "scheme.self_s": "s",
    "scheme.calls": "count",
    "quiverrep.self_s": "s",
    "quiverrep.rep_canonical_calls": "count",
    "dims.self_s": "s",
    "dims.construct_attempts_per_success": "ratio",
    "euclid.self_s": "s",
    "euclid.canonicalize_per_call": "ratio",
    "wildness.self_s": "s",
    "cli.self_s": "s",
    "cli.wall_ms": "ms",
    "cli.import_ms": "ms",
    "cli.dispatch_ms": "ms",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_pct": "%",
    "trace.self_sum_s": "s",
    "trace.untraced_s": "s",
    "trace.spans": "count",
}


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


class SpeedProbe:
    """A fixed Python and numpy loop, independent of unicanon, timed in CPU
    time; it measures how fast the machine is at the moment."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((24, 24))
        self.samples = []

    def __call__(self):
        t0 = clock()
        counts = {}
        for k in range(70000):
            counts[k % 97] = counts.get(k % 97, 0) + k
        for _ in range(70):
            np.linalg.svd(self.matrix)
        self.samples.append(clock() - t0)
        return self.samples[-1]

    def scale(self, before, after):
        """Factor from CPU time to reference time between two probes."""
        return REFERENCE_PROBE_S / (0.5 * (before + after))


class ScaledTimes:
    """Operation times scaled to the reference speed, probing the machine
    about every ``PROBE_EVERY_S`` seconds of work."""

    def __init__(self, probe):
        self.probe = probe
        self.raw, self.scaled, self.pending = [], [], []
        self.last = probe()

    def add(self, dt):
        self.raw.append(dt)
        self.pending.append(dt)
        if sum(self.pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        now = self.probe()
        factor = self.probe.scale(self.last, now)
        self.scaled += [dt * factor for dt in self.pending]
        self.pending, self.last = [], now


def run_ops(ops, after_each=None):
    """Time each operation; keep its result or exception for checking.  An
    operation that runs a child process is timed by the child's CPU time.
    ``after_each(dt)`` runs between operations, outside the timed interval."""
    out = []
    for op in ops:
        t0 = clock()
        try:
            res, exc = op.call(), None
        except Exception as e:  # an operation that raises is a failed operation
            res, exc = None, e
        dt = res.cpu_s if isinstance(res, ChildRun) else clock() - t0
        out.append((dt, res, exc))
        if after_each is not None:
            after_each(dt)
    return out


def percentile_ms(times, q):
    return float(np.percentile(times, q)) * 1e3


class Bench:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.runner = workloads.CliRunner(str(workdir), dict(os.environ))
        self.probe = SpeedProbe()
        self.failures = {}  # case label -> [count, first message]
        self.attempted = 0
        self.failed = 0

    def build_round(self, r):
        rng = np.random.default_rng([self.args.seed, r])
        if self.args.workload == "cli-json":
            return workloads.cli_json(rng, str(self.workdir), self.runner, tag=f"r{r}")
        return workloads.ROUNDS[self.args.workload](rng)

    def execute(self, ops, results=None, after_each=None):
        """Run (unless ``results`` are given) and check ``ops``; returns the
        results."""
        results = results if results is not None else run_ops(ops, after_each)
        for op, (_, res, exc) in zip(ops, results):
            self.attempted += 1
            if exc is None:
                try:
                    op.check(res)
                except Exception as e:  # a check that cannot read the output fails it too
                    exc = e
            if exc is not None:
                self.failed += 1
                entry = self.failures.setdefault(op.label, [0, f"{type(exc).__name__}: {exc}"[:160]])
                entry[0] += 1
        return results

    def child(self, argv):
        child = workloads.run_child(argv, str(self.workdir), dict(os.environ))
        if child.code != 0:
            raise SystemExit(f"perfbench: {' '.join(argv[:4])} ... failed: {child.stderr[-300:]}")
        return child

    def scaled_children(self, argv, repeats, value):
        """Medians of ``value(child)`` over fresh child processes: raw, and
        scaled to reference time, each value by the probes just before and
        after its child."""
        raw, scaled = [], []
        before = self.probe()
        for _ in range(repeats):
            v = value(self.child(argv))
            after = self.probe()
            raw.append(v)
            scaled.append(v * self.probe.scale(before, after))
            before = after
        return statistics.median(raw), statistics.median(scaled)

    def setup_seconds(self):
        """Median CPU time of a fresh process that imports unicanon and
        completes one warm-up operation (the CLI itself for cli-json, else
        this script in probe mode): raw and scaled."""
        if self.args.workload == "cli-json":
            rng = np.random.default_rng([self.args.seed, WARMUP_ROUND])
            path = self.workdir / "warmup-matrix.json"
            with open(path, "w") as fh:
                json.dump(workloads.matrix_json(workloads.square_matrix("complex", 12, rng)), fh)
            argv = [sys.executable, "-m", "unicanon.cli", "canon-matrix", "--mode", "simil", str(path)]
        else:
            argv = [sys.executable, os.path.abspath(sys.argv[0]), "--probe", "--workload", self.args.workload,
                    "--seed", str(self.args.seed)]
        return self.scaled_children(argv, SETUP_REPEATS, lambda child: child.cpu_s)

    def import_ms(self):
        code = "import time; t = time.process_time(); import unicanon.cli; print(time.process_time() - t)"
        _, scaled = self.scaled_children([sys.executable, "-c", code], IMPORT_REPEATS, lambda c: float(c.stdout))
        return scaled * 1e3

    # -- runs ------------------------------------------------------------
    def end_to_end(self):
        setup_raw, setup_s = self.setup_seconds()
        times = ScaledTimes(self.probe)
        busy, rounds = 0.0, 0
        t_start = perf_counter()
        while True:
            t_round = perf_counter()
            dts = [dt for dt, _, _ in self.execute(self.build_round(rounds), after_each=times.add)]
            rounds += 1
            busy += sum(dts)
            if busy + 0.5 * sum(dts) >= self.args.seconds and len(times.raw) >= MIN_SAMPLES:
                break
            if perf_counter() - t_start + (perf_counter() - t_round) > WALL_CAP_S:
                break
        times.flush()
        if self.args.workload == "cli-json":
            rss_kb = self.runner.peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        n = len(times.scaled)
        metrics = {
            "ops_per_s": n / sum(times.scaled),
            "latency_p50_ms": percentile_ms(times.scaled, 50),
            "latency_p90_ms": percentile_ms(times.scaled, 90),
            "pass_rate": (self.attempted - self.failed) / self.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        raw = times.raw
        note = (f"{n} latency samples in {rounds} rounds, {busy:.2f} s busy; "
                f"p90 has {n - 1 - int(0.9 * (n - 1))} samples beyond it\n"
                f"# unscaled CPU time: ops_per_s {n / busy:.6g}, latency_p50_ms {percentile_ms(raw, 50):.6g}, "
                f"latency_p90_ms {percentile_ms(raw, 90):.6g}, setup_s {setup_raw:.6g}")
        return metrics, END_TO_END_UNITS, note

    def traced(self):
        tracer = Tracer()
        ops = self.build_round(0)
        cli_json = self.args.workload == "cli-json"
        if cli_json:
            # the same argv through cli.dispatch in this process
            base = [
                workloads.Op(op.label, (lambda argv=op.argv: workloads.dispatch_in_process(argv)), op.text_check)
                for op in ops
            ]
        else:
            base = ops
        reps = []
        t_start = perf_counter()
        while True:
            t_rep = perf_counter()
            rep = {"cli.wall_ms": 0.0, "cli.import_ms": 0.0, "cli.dispatch_ms": 0.0}
            if cli_json:
                before = self.probe()
                walls = [res.wall_s for _, res, _ in self.execute(ops) if res]
                rep["cli.wall_ms"] = statistics.median(walls) * 1e3 * self.probe.scale(before, self.probe())
                rep["cli.import_ms"] = self.import_ms()
            untraced = ScaledTimes(self.probe)
            self.execute(base, after_each=untraced.add)
            untraced.flush()
            traced = ScaledTimes(self.probe)
            tracer.reset()
            with tracer.installed():  # the probe's svd calls record no span: no unicanon caller
                results = run_ops(base, traced.add)
            traced.flush()
            self.execute(base, results)
            if cli_json:
                rep["cli.dispatch_ms"] = statistics.median(untraced.scaled) * 1e3
            rep.update(layer_metrics(tracer.summary(), len(base), sum(traced.scaled) / sum(traced.raw)))
            rep["trace.overhead_pct"] = (sum(traced.scaled) / sum(untraced.scaled) - 1.0) * 100.0
            rep["trace.untraced_s"] = sum(untraced.scaled)
            reps.append(rep)
            wall_rep = perf_counter() - t_rep
            elapsed = perf_counter() - t_start
            if elapsed + 0.5 * wall_rep >= self.args.seconds or elapsed + wall_rep > WALL_CAP_S:
                break
        metrics = {name: statistics.fmean(r[name] for r in reps) for name in LAYER_UNITS}
        note = (f"{len(reps)} untraced/traced replays of round 0 ({len(base)} operations); "
                f"values are per round, averaged over the replays")
        return metrics, LAYER_UNITS, note


def layer_metrics(s, ops, factor):
    """Per-layer metrics of one traced round from ``Tracer.summary``; times
    are scaled to reference time by the round's mean ``factor``."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s["self_s"][layer] * factor
        out[f"{layer}.errors"] = s["errors"][layer]
    for layer in ("numcore", "linalg", "scheme"):
        out[f"{layer}.calls"] = s["calls"][layer]
    out["linalg.flops_est"] = s["flops"]
    out["mbm.steps"] = s["derive_calls"]
    out["mbm.step_ms"] = s["derive_s"] / s["derive_calls"] * 1e3 * factor if s["derive_calls"] else 0.0
    out["mbm.zones"] = s["zones_mean"]
    out["mbm.tie_classes"] = s["tie_classes_mean"]
    out["mbm.canonicalize_per_op"] = s["canonicalize_calls"] / ops
    out["quiverrep.rep_canonical_calls"] = s["rep_canonical_calls"]
    out["dims.construct_attempts_per_success"] = (
        s["construct_attempts"] / s["construct_successes"] if s["construct_successes"] else 0.0
    )
    out["euclid.canonicalize_per_call"] = (
        s["euclid_canonicalize"] / s["euclid_top_calls"] if s["euclid_top_calls"] else 0.0
    )
    out["trace.self_sum_s"] = sum(s["self_s"].values()) * factor
    out["trace.spans"] = s["spans"]
    return out


def probe(args):
    """Set-up probe: this fresh process runs one warm-up operation."""
    rng = np.random.default_rng([args.seed, WARMUP_ROUND])
    workloads.warmup_op(args.workload, rng).call()


def main(root):
    ap = argparse.ArgumentParser(description="Benchmark for unicanon; see perfbench/README.md.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="busy time to measure (required unless --probe)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.probe:
        probe(args)
        return
    if args.seconds is None or args.seconds <= 0:
        ap.error("--seconds must be given and positive")
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        bench = Bench(args, workdir)
        metrics, units, note = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    samples = bench.probe.samples
    env["speed_probe_ms"] = {
        "reference": REFERENCE_PROBE_S * 1e3,
        "median": round(statistics.median(samples) * 1e3, 3),
        "min": round(min(samples) * 1e3, 3),
        "max": round(max(samples) * 1e3, 3),
        "count": len(samples),
    }
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {note}")
    for label, (count, message) in sorted(bench.failures.items()):
        print(f"# failed {count}x {label}: {message}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
