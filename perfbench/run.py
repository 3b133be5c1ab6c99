"""diffswitch benchmark: one workload, end-to-end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload detect_batch --seed 1 --seconds 20 --trace 0

Workloads are described in workloads.py. With --trace 0 the run measures
end-to-end metrics with the package untouched. With --trace 1 it runs a
fixed number of ops untraced, then the same ops again with the package's
functions wrapped by tracer.py, and reports per-layer metrics and the
tracing overhead. --smoke shrinks every input for a quick functional run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A details block before it holds
the host, provenance, output-check failures by reason and the determinism
record (checksums of every output, repeated on the same seed).
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
WINDOW_S = 0.5
SAMPLE_S = 0.25
WORKLOAD_NAMES = ("detect_batch", "detect_long", "calibrate_cold", "study")

SIM_PATHS = frozenset(f"simulators.{n}" for n in (
    "gen_brownian", "gen_brownian_drift", "gen_ou", "gen_fbm", "compose_scenario"))
CALIBRATIONS = frozenset(("calibration.calibrate_both", "calibration.calibrate_segment_test"))
MONTE_CARLO = CALIBRATIONS | {"calibration.estimate_type1_error"}
CACHE_IO = ("calibration.ThresholdTable._load", "calibration.ThresholdTable.save")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    return parser.parse_args(argv)


def load_package():
    """Import diffswitch from this checkout's src/, or exit non-zero."""
    if not (SRC / "diffswitch" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffswitch

    if Path(diffswitch.__file__).resolve().parent != SRC / "diffswitch":
        sys.exit(f"perfbench: imported diffswitch from {diffswitch.__file__}, not {SRC}")


def host_info():
    import numpy

    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            l3 = fh.read().strip()
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit():
    """Commit of the checkout read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "diffswitch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail_latency(durations):
    """Highest percentile (at most p99) with at least ten samples beyond it."""
    n = len(durations)
    if n < 20:
        return {"percentile": None, "ms": None, "samples": n}
    index = min(int(0.99 * n), n - 11)
    return {"percentile": round(100.0 * index / n, 2), "ms": 1e3 * sorted(durations)[index],
            "samples": n}


def probe_setup(workload, smoke):
    """Seconds for one set-up in a fresh interpreter (see setup_probe.py)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload.name,
           str(workload.seed), workload.workdir] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Outcomes:
    """Checked inputs, failed inputs and failure reasons.

    The timed loop runs the same inputs again and again, so each distinct
    input counts once, with the reasons of its first op; counting ops would
    make the failed share depend on where a run happened to stop. A repeat
    whose reasons differ from the first op's is counted in `changed`.
    """

    def __init__(self):
        self.ops = 0
        self.first = {}  # input key -> failure reasons of its first op
        self.changed = 0

    def add(self, key, reasons):
        self.ops += 1
        reasons = sorted(reasons)
        if key not in self.first:
            self.first[key] = reasons
        elif self.first[key] != reasons:
            self.changed += 1

    @property
    def attempted(self):
        return len(self.first)

    @property
    def failed(self):
        return sum(bool(r) for r in self.first.values())

    @property
    def reasons(self):
        return collections.Counter(r for rs in self.first.values() for r in rs)


def run_ops(workload, indices, outcomes, tracer=None):
    """Run ops at the given indices; returns per-op (durations, work items)."""
    import workloads

    clock = time.perf_counter
    durations, items = [], []
    for i in indices:
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        output, error = workloads.run_op(workload, i)
        t1 = clock()
        if tracer is not None:
            tracer.op_id = None
        durations.append(t1 - t0)
        if error is None:
            items.append(workload.items(output))
            outcomes.add(workload.input_key(i), workload.check(i, output))
        else:
            items.append(0)
            outcomes.add(workload.input_key(i), [error])
    return durations, items


def reference_loop():
    """Seconds for a fixed pure-Python loop.

    The loop is the benchmark's own code, so no change to the package can
    move it; only the host's speed does.
    """
    t0 = time.perf_counter()
    total = 0
    for j in range(20_000):
        total += j * j % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Times the reference loop every SAMPLE_S while ops run.

    A SIGALRM handler runs the loop on the main thread, between two
    bytecodes of the op it interrupts, so a sample sees the CPU and the
    speed the op sees at that moment and never runs beside it.
    """

    def __init__(self):
        self.samples = []  # (time at the sample's end, seconds)

    def _sample(self, signum, frame):
        seconds = reference_loop()
        self.samples.append((time.perf_counter(), seconds))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def over(self, t0, t1):
        """Mean sample in [t0, t1], or the sample nearest the interval."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if inside:
            return statistics.fmean(inside)
        return min(self.samples, key=lambda ts: min(abs(ts[0] - t0), abs(ts[0] - t1)))[1]


def warm_up(workload):
    import workloads

    for i in range(workload.warmup_ops):
        workloads.run_op(workload, i)
    return workload.warmup_ops


def run_timed(workload, args, outcomes):
    """End-to-end run: set-up probes, warm-up, then ops for --seconds."""
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup_samples = [probe_setup(workload, args.smoke) for _ in range(repeats)]
    workload.setup()
    i = warm_up(workload)
    # This host runs the same code up to 2x slower for seconds to minutes at
    # a time (other tenants). Timing each window of ops against the
    # reference loop sampled during that window cancels that drift.
    durations, items, spans = [], [], []
    first = 0
    with HostSpeed() as speed:
        start = window_start = time.perf_counter()
        # Start another op while it would end closer to --seconds than stopping now.
        while (time.perf_counter() - start + (durations[-1] / 2 if durations else 0)
               < args.seconds or len(durations) < workload.min_ops):
            d, n = run_ops(workload, [i], outcomes)
            durations += d
            items += n
            i += 1
            if sum(durations[first:]) >= WINDOW_S:
                now = time.perf_counter()
                spans.append((first, len(durations), window_start, now))
                first, window_start = len(durations), now
        if first < len(durations):
            spans.append((first, len(durations), window_start, time.perf_counter()))
    windows = [(durations[a:b], items[a:b], speed.over(t0, t1)) for a, b, t0, t1 in spans]
    ref_s = statistics.median(ref for _, _, ref in windows)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "p50_ref": (statistics.median(statistics.median(d) / ref for d, _, ref in windows), "ref"),
        "items_per_ref": (statistics.median(sum(n) * ref / sum(d) for d, n, ref in windows),
                          "1/ref"),
        "peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "setup_samples_s": setup_samples,
        "p50_ms": 1e3 * statistics.median(durations),
        "items_per_s": sum(items) / sum(durations),
        "reference_loop_ms": 1e3 * ref_s,
        "windows": len(windows),
        "latency": tail_latency(durations),
        "timed_s": sum(durations),
    }
    return metrics, details


def layer_observers(counters):
    import workloads

    def on_report(report):
        counters["clusters"] += len(report.clusters)
        counters["change_points"] += len(report.change_points)
        if report.merged_change_points is not None:
            counters["merged_away"] += len(report.change_points) - len(report.merged_change_points)
        counters["invariant_violations"] += len(
            workloads.check_report(report, workloads.report_n(report), report.config.k))

    def on_get(pair):
        counters["cache_hits" if pair is not None else "cache_misses"] += 1

    return {
        "trajectory.load_csv": lambda traj: counters.update(rows=traj.n_steps + 1),
        "detection.run_procedure": on_report,
        "calibration.ThresholdTable.get": on_get,
        "bench.run_cell": lambda cell: counters.update(bench_failures=cell.failures),
    }


def run_traced(workload, args, outcomes):
    """Per-layer run: traced set-up, then the same ops untraced and traced."""
    from tracer import LAYERS, Tracer

    setup_counts = collections.Counter()
    with Tracer(layer_observers(setup_counts)) as setup_tracer:
        setup_tracer.op_id = "setup"
        workload.setup()
        setup_tracer.op_id = None
    first = warm_up(workload)
    indices = range(first, first + workload.trace_ops)
    counts = collections.Counter()
    tracer = Tracer(layer_observers(counts))
    # Alternate untraced and traced runs of the same ops in chunks of about
    # WINDOW_S, so both see the same host speed.
    untraced, traced = [], []
    pending = list(indices)
    t_origin = time.perf_counter()
    while pending:
        chunk, busy = [], 0.0
        while pending and busy < WINDOW_S:
            chunk.append(pending.pop(0))
            durations = run_ops(workload, chunk[-1:], outcomes)[0]
            untraced += durations
            busy += durations[0]
        with tracer:
            traced += run_ops(workload, chunk, outcomes, tracer)[0]
    overhead = sum(traced) / sum(untraced) - 1.0
    spans_path = BUILD / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path, t_origin)

    ops = len(traced)
    op_s = sum(traced)
    layer_s = {layer: tracer.layer_self[layer] for layer in LAYERS}
    unattributed_s = op_s - sum(layer_s.values())
    t = tracer
    detections = t.count("detection.run_procedure")
    label_s = t.total_s("detection.label_segments", "detection.merge_same_label")
    metrics = {
        "latency.p99_ms": (tail_latency(untraced)["ms"] or 1e3 * max(untraced), "ms"),
        "latency.samples": (len(untraced), "count"),
        "failed_frac": (outcomes.failed / outcomes.attempted, "frac"),
        "trajectory.load_csv_us": (t.mean_us("trajectory.load_csv"), "us"),
        "trajectory.rows": (counts["rows"] / ops, "count"),
        "rng.streams": (t.count("rng.replicate_rng") / ops, "count"),
        "rng.stream_us": (t.mean_us("rng.replicate_rng"), "us"),
        "simulators.paths": (t.count_outermost(SIM_PATHS) / ops, "count"),
        "simulators.brownian_us": (t.mean_us("simulators.gen_brownian"), "us"),
        "simulators.compose_us": (t.mean_us("simulators.compose_scenario"), "us"),
        "stats.kernel_calls": (t.count("stats.backward_forward") / ops, "count"),
        "stats.kernel_us": (t.mean_us("stats.backward_forward"), "us"),
        "stats.kernel_peak_mb": (t.peak_bytes.get("stats.backward_forward", 0) / 2**20, "MB"),
        "stats.statistic_T_us": (t.mean_us("stats.statistic_T"), "us"),
        "calibration.calibrations": (t.count_outermost(CALIBRATIONS) / ops, "count"),
        "calibration.replicates": (t.count_under("rng.replicate_rng", MONTE_CARLO) / ops, "count"),
        "calibration.self_s": (layer_s["calibration"] / ops, "s"),
        "calibration.cache_hits": (counts["cache_hits"] / ops, "count"),
        "calibration.cache_misses": (counts["cache_misses"] / ops, "count"),
        "calibration.cache_io_ms": (1e3 * t.total_s(*CACHE_IO) / ops, "ms"),
        "detection.clusters": (counts["clusters"] / ops, "count"),
        "detection.change_points": (counts["change_points"] / ops, "count"),
        "detection.merged_away": (counts["merged_away"] / ops, "count"),
        "detection.find_clusters_us": (t.mean_us("detection.find_clusters"), "us"),
        "detection.estimate_us": (t.mean_us("detection.estimate_change_points"), "us"),
        "detection.label_us": (1e6 * label_s / detections if detections else 0.0, "us"),
        "detection.invariant_violations": (counts["invariant_violations"] / ops, "count"),
        "bench.failures": (counts["bench_failures"] / ops, "count"),
        "setup.cache_hits": (setup_counts["cache_hits"], "count"),
        "setup.cache_misses": (setup_counts["cache_misses"], "count"),
        "setup.cache_io_ms": (1e3 * setup_tracer.total_s(*CACHE_IO), "ms"),
        "trace.op_ms": (1e3 * op_s / ops, "ms"),
        "trace.unattributed_ms": (1e3 * unattributed_s / ops, "ms"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.spans": (len(t.spans) / ops, "count"),
        "trace.missing_names": (len(t.missing), "count"),
    }
    for layer in LAYERS:
        if layer == "calibration":
            continue
        metrics[f"{layer}.self_ms"] = (1e3 * layer_s[layer] / ops, "ms")
    details = {
        "traced_ops": ops,
        "layer_self_ms_per_op": {layer: 1e3 * s / ops for layer, s in layer_s.items()},
        "unattributed_ms_per_op": 1e3 * unattributed_s / ops,
        "traced_op_ms": 1e3 * op_s / ops,
        "untraced_op_ms": 1e3 * sum(untraced) / ops,
        "trace_overhead_frac": overhead,
        "missing_names": t.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads

    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD)
    outcomes = Outcomes()
    try:
        workload = workloads.make(args.workload, args.seed, args.smoke, workdir)
        workload.generate()
        workload.prepare(str(BUILD / f"warm-cache-{source_digest()}.json"))
        measure = run_traced if args.trace else run_timed
        metrics, extra = measure(workload, args, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    identical = workload.mismatches == 0 and outcomes.changed == 0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_info(),
        "provenance": {"git_commit": git_commit(), "source_sha256": source_digest()},
        "ops": outcomes.ops,
        "inputs": outcomes.attempted,
        "failed": outcomes.failed,
        "failed_frac": outcomes.failed / outcomes.attempted,
        "failure_reasons": dict(sorted(outcomes.reasons.items())),
        "determinism": {
            "repeats": workload.repeats,
            "identical": identical,
            "changed_check_results": outcomes.changed,
            "checksum": workload.checksum(),
            "cutoffs": workload.cutoffs(),
        },
        **extra,
    }
    result = {
        "correct": identical and outcomes.attempted > 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(details, indent=1))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
