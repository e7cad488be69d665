"""sphemb benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 bench/run.py --workload oracle-verify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the first pass untraced, traced and untraced again, and reports the
per-layer metrics.  The last line of standard output is the JSON result; the
line before it is a JSON report with the workload's full detail (error rate,
sample counts, output digest, Python version, platform and nproc).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "sphemb"
MODULES = ("cli", "divisor_model", "families", "lattice", "laurent", "oracle", "rootdata")
SETUP_ROUNDS = 3
SETUP_MIN_SECONDS = 0.5
MIN_PASSES = 4
# Op time between two samples of the host-speed reference; the samples on
# each side of an op that scale its time; the samples taken just before and
# just after each round of set-ups.
HOST_SAMPLE_EVERY_S = 0.1
HOST_WINDOW = 3
HOST_SAMPLES_AROUND_SETUP = 3

sys.path.insert(0, str(BENCH_DIR))
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def fresh_import() -> SimpleNamespace:
    """Import sphemb from this checkout's ``src`` with no module state left over."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def host_samples(n: int) -> list[float]:
    """Time ``n`` runs of the host-speed reference."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        hostspeed.reference()
        times.append(time.perf_counter() - t0)
    return times


def host_scale(reference_times) -> float:
    """The factor that turns a timing taken at the sampled host speed into one at the nominal speed."""
    return hostspeed.NOMINAL_S / statistics.median(reference_times)


def timed_setups(workload, seed: int, setups: list, raw_setups: list):
    """Set up at least once and for ``SETUP_MIN_SECONDS``; keeps the last state.

    A set-up of a few milliseconds sees the host at one instant, so short
    ones are repeated.  Every repetition's time goes to ``raw_setups`` and,
    scaled by the host speed sampled just before and after the round, to
    ``setups``.
    """
    before = host_samples(HOST_SAMPLES_AROUND_SETUP)
    times = []
    while sum(times) < SETUP_MIN_SECONDS:
        sp = state = None  # let the previous set-up's models go first
        sp, state, dt = timed_setup(workload, seed)
        times.append(dt)
    scale = host_scale(before + host_samples(HOST_SAMPLES_AROUND_SETUP))
    raw_setups.extend(times)
    setups.extend(dt * scale for dt in times)
    return sp, state


def timed_setup(workload, seed: int, tracer=None):
    """Fresh import plus the workload's set-up; returns (sp, state, seconds)."""
    t0 = time.perf_counter()
    sp = fresh_import()
    if tracer is not None:
        tracer.install(sp)
        tracer.enabled = True
        try:
            state = tracer.wrap(workload.setup, tracing.SETUP_ROOT)(sp, seed)
        finally:
            tracer.enabled = False
    else:
        state = workload.setup(sp, seed)
    return sp, state, time.perf_counter() - t0


class Results:
    """Op latencies, host-speed samples, failures and the first pass's digest."""

    def __init__(self):
        self.times: list[float] = []
        self.host_times: list[float] = []
        # For each op, the number of host samples taken before it ended.
        self.host_index: list[int] = []
        self._since_host_sample = HOST_SAMPLE_EVERY_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.op_seconds = 0.0


def run_pass(ops, results: Results, digest: bool, tracer=None, sample_host=False):
    for op in ops:
        results.attempted += 1
        run = op.run
        if tracer is not None:
            tracer.op_id = results.attempted
            tracer.enabled = True
            run = tracer.wrap(op.run, tracing.OP_ROOT)
        error = None
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # one failed op must not end the run
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                if not op.check(out):
                    error = "check failed"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            results.failed += 1
            if len(results.failures) < 20:
                results.failures.append(f"{op.label}: {error}")
        results.times.append(dt)
        results.host_index.append(len(results.host_times))
        results.op_seconds += dt
        results._since_host_sample += dt
        if sample_host and results._since_host_sample >= HOST_SAMPLE_EVERY_S:
            results._since_host_sample = 0.0
            results.host_times += host_samples(1)
        if digest:
            results.digest.update(op.digest(out).encode() if error is None else b"<failed>")
            results.digest.update(b"\n")


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the ``q`` percentile among ``n`` sorted samples."""
    return max(1, math.ceil(q * n))


def summarize(setups, pass_rates, times) -> dict:
    """The timed end-to-end metrics of a run."""
    samples = sorted(times)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(pass_rates),
        "latency_p50_ms": samples[nearest_rank(len(samples), 0.50) - 1] * 1e3,
        "latency_p90_ms": samples[nearest_rank(len(samples), 0.90) - 1] * 1e3,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def measure(workload, seed: int, seconds: float):
    """End-to-end metrics: set-up median, then whole passes for ``seconds``.

    The set-ups are spread over the run: before the first pass and once a
    third and two thirds of ``seconds`` have passed.  Every pass has the same
    mix, so ``ops_per_s`` is the median of the passes' rates (at least
    ``MIN_PASSES`` passes), and the latency percentiles are taken over every op of
    the run.  Medians over the whole run, not the fastest sample: the speed
    of a shared host's fast moments changes more from run to run than its
    typical speed does.

    Every timing is scaled to the nominal host speed by the host-speed
    reference sampled around it: an op's time by the ``HOST_WINDOW`` samples
    on each side of it, a set-up's by those taken around its round.  The
    unscaled metrics stay in the report.
    """
    setups: list[float] = []
    raw_setups: list[float] = []
    sp, state = timed_setups(workload, seed, setups, raw_setups)
    rounds = 1
    results = Results()
    passes = []  # (first op, end op) of each pass
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        index = len(passes)
        elapsed = time.perf_counter() - t_start
        if rounds < SETUP_ROUNDS and elapsed >= seconds * rounds / SETUP_ROUNDS:
            sp = state = None
            sp, state = timed_setups(workload, seed, setups, raw_setups)
            rounds += 1
        elif workload.fresh_import_per_pass and index:
            sp = fresh_import()
        gc.collect()  # start every pass with the previous passes' garbage gone
        first_op = len(results.times)
        run_pass(workload.pass_ops(sp, state, seed, index), results, digest=index == 0, sample_host=True)
        results.host_times += host_samples(1)  # every op has a sample after it
        passes.append((first_op, len(results.times)))
    wall = time.perf_counter() - t_start
    while rounds < SETUP_ROUNDS:
        sp = state = None
        timed_setups(workload, seed, setups, raw_setups)
        rounds += 1

    host = results.host_times
    op_scales = [host_scale(host[max(0, b - HOST_WINDOW):b + HOST_WINDOW]) for b in results.host_index]
    scaled_times = [t * k for t, k in zip(results.times, op_scales)]
    untimed = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": results.failed / results.attempted,
    }
    raw_rates = [(end - first) / sum(results.times[first:end]) for first, end in passes]
    raw = dict(summarize(raw_setups, raw_rates, results.times), **untimed)
    rates = [(end - first) / sum(scaled_times[first:end]) for first, end in passes]
    metrics = dict(summarize(setups, rates, scaled_times), **untimed)
    report = {
        "passes": len(passes),
        "samples": len(scaled_times),
        "samples_beyond_p90": len(scaled_times) - nearest_rank(len(scaled_times), 0.90),
        "pass_op_s": [sum(results.times[first:end]) for first, end in passes],
        "loop_wall_s": wall,
        "setup_runs_s": raw_setups,
        "raw_metrics": raw,
        "host_samples": len(host),
        "host_scale": statistics.median(op_scales),
    }
    return metrics, results, report


def measure_traced(workload, seed: int):
    """The same ops untraced, traced, then untraced again, each from a fresh import.

    Two untraced passes around the traced one cancel slow drift in machine
    speed from ``trace_overhead``.
    """
    tracer = tracing.Tracer()
    passes = []
    for traced in (None, tracer, None):
        results = Results()
        sp, state, _ = timed_setup(workload, seed, traced)
        run_pass(workload.pass_ops(sp, state, seed, 0), results, digest=True, tracer=traced)
        passes.append(results)
        sp = state = None

    untraced_s = (passes[0].op_seconds + passes[2].op_seconds) / 2
    overhead = untraced_s / passes[1].op_seconds if passes[1].op_seconds else 0.0
    metrics, facts = tracer.metrics(trace_overhead=overhead)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json.gz"
    tracer.dump(path, {"workload": workload.name, "seed": seed})
    digests = {p.digest.hexdigest() for p in passes}
    report = dict(facts, trace_file=str(path.relative_to(ROOT)), untraced_op_s=untraced_s,
                  traced_op_s=passes[1].op_seconds, digests_agree=len(digests) == 1)
    return metrics, passes, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **environment()}

    if args.trace:
        metrics, passes, detail = measure_traced(workload, args.seed)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        failures = [f for p in passes for f in p.failures]
        correct = failed == 0 and detail["self_within_wall"] and detail["digests_agree"]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        digest = passes[0].digest.hexdigest()
    else:
        metrics, results, detail = measure(workload, args.seed, args.seconds)
        attempted, failed, failures = results.attempted, results.failed, results.failures
        correct = failed == 0
        units = END_TO_END_UNITS
        digest = results.digest.hexdigest()

    report.update(detail, digest=digest, error_rate=failed / attempted, failures=failures[:20],
                  metrics={k: {"value": metrics[k], "unit": units[k]} for k in units})
    print(json.dumps({"report": report}, separators=(",", ":")))
    # The result line carries only the metrics BENCHMARK.json declares: error_rate
    # is 0 on a good run, so it is reported above and through "failed".
    declared = {k: v for k, v in report["metrics"].items() if k != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": declared}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
