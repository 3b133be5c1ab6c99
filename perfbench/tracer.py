"""Span tracer that wraps the package's functions by module-attribute name.

The tracer is installed only for the traced pass of a benchmark run and
removed afterwards, so untraced timings run the package untouched. Each
wrapped call records a span (id, parent id, op id, name, start, end); the
tracer also keeps per-name call counts, inclusive and self time, and the
self time of each layer (module). A layer's self time is its spans'
durations minus the part covered by child spans, so the layers' self times
plus the time spent outside any span add up to the traced op wall time.

Names are looked up when the tracer is installed. A name that no longer
exists (a function deleted or renamed by a refactor) is reported in
`missing` instead of raising, so the traced run keeps working.
"""

import functools
import importlib
import json
import sys
import time
import tracemalloc

PACKAGE = "diffswitch"

# Public functions of each layer, plus the private helpers that carry the
# per-replicate work. `Class.method` wraps a method on the class.
LAYER_NAMES = {
    "trajectory": (
        "load_csv", "save_csv", "subtrajectory",
        "TimeGrid.__post_init__", "Segment.__post_init__", "Trajectory.__post_init__",
    ),
    "rng": ("replicate_rng", "parallel_map"),
    "simulators": (
        "gen_brownian", "gen_brownian_drift", "gen_ou", "gen_fbm", "_fgn_hosking",
        "compose_scenario", "scenario_preset", "scenario_to_json", "scenario_from_json",
    ),
    "stats": (
        "phi", "estimate_sigma2", "statistic_T", "backward_forward", "sliding_stats",
        "empirical_msd",
    ),
    "calibration": (
        "calibrate", "calibrate_both", "calibrate_segment_test", "_replicate_extremes",
        "cache_get_or_calibrate", "estimate_type1_error", "default_key", "segment_test_key",
        "ThresholdTable._load", "ThresholdTable.save", "ThresholdTable.get",
        "ThresholdTable.put", "SegmentQuantiles.__call__",
    ),
    "detection": (
        "find_clusters", "estimate_change_points", "label_segments", "merge_same_label",
        "run_procedure", "report_to_dict",
    ),
    "bench": (
        "run_experiment", "run_cell", "run_type1_experiment", "report_to_dict",
        "export_report",
    ),
}
LAYERS = tuple(LAYER_NAMES)

# Higher-order helpers: their self time includes the callbacks they run,
# which belong to the caller, so it is charged to the calling span's layer.
PASS_THROUGH = frozenset(("rng.parallel_map",))

# Calls whose peak traced allocation is recorded with tracemalloc. Tracing
# allocations slows the call, so only the first few calls are measured;
# each workload calls the kernel at one input size.
MEMORY_NAMES = ("stats.backward_forward",)
MEMORY_CALLS = 3


class Tracer:
    """Collects spans and per-name / per-layer aggregates while installed.

    `observers` maps a qualified name such as "detection.run_procedure" to
    a function called with the call's result; its running time is kept
    out of every layer's self time.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans = []
        self.calls = {}
        self.incl = {}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.peak_bytes = {}
        self.missing = []
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self):
        self.missing = []
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                modules[layer] = None
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, names in LAYER_NAMES.items():
            module = modules[layer]
            for name in names:
                qual = f"{layer}.{name}"
                if module is None:
                    self.missing.append(qual)
                    continue
                if "." in name:
                    self._wrap_method(module, layer, qual, *name.split(".", 1))
                else:
                    self._wrap_function(module, loaded, layer, qual, name)
        return self

    def _wrap_function(self, module, loaded, layer, qual, name):
        original = getattr(module, name, None)
        if not callable(original):
            self.missing.append(qual)
            return
        wrapper = self._wrapper(original, layer, qual)
        # Rebind every module that imported the same object under any name.
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, module, layer, qual, cls_name, meth):
        cls = getattr(module, cls_name, None)
        original = vars(cls).get(meth) if isinstance(cls, type) else None
        if not callable(original):
            self.missing.append(qual)
            return
        self._patches.append((cls, meth, original))
        setattr(cls, meth, self._wrapper(original, layer, qual))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------

    def _wrapper(self, fn, layer, qual):
        observer = self.observers.get(qual)
        track_memory = qual in MEMORY_NAMES
        pass_through = qual in PASS_THROUGH
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:  # outside an op, e.g. the benchmark's own checks
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            owner = parent[2] if pass_through and parent is not None else layer
            frame = [span_id, 0.0, owner]  # [id, time covered by children, layer charged]
            self._stack.append(frame)
            memory = (track_memory and self.calls.get(qual, 0) < MEMORY_CALLS
                      and not tracemalloc.is_tracing())
            t0 = clock()
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[qual] = max(self.peak_bytes.get(qual, 0), peak)
                t1 = clock()
                self._stack.pop()
                duration = t1 - t0
                own = duration - frame[1]
                self.calls[qual] = self.calls.get(qual, 0) + 1
                self.incl[qual] = self.incl.get(qual, 0.0) + duration
                self.layer_self[owner] += own
                self.spans.append((span_id, parent[0] if parent else None, self.op_id, qual, t0, t1))
                if parent is not None:
                    parent[1] += duration
            if observer is not None:
                observer(result)
                # Observer time is tracer overhead: hide it from the parent's self time.
                if parent is not None:
                    parent[1] += clock() - t1
            return result

        return traced

    # -- queries ------------------------------------------------------

    def count(self, qual):
        return self.calls.get(qual, 0)

    def mean_us(self, *quals):
        calls = sum(self.calls.get(q, 0) for q in quals)
        return 1e6 * sum(self.incl.get(q, 0.0) for q in quals) / calls if calls else 0.0

    def total_s(self, *quals):
        return sum(self.incl.get(q, 0.0) for q in quals)

    def count_under(self, qual, ancestors):
        """Spans named `qual` with an ancestor span named in `ancestors`."""
        by_id = {s[0]: s for s in self.spans}
        n = 0
        for span in self.spans:
            if span[3] != qual:
                continue
            parent = span[1]
            while parent is not None:
                p = by_id[parent]
                if p[3] in ancestors:
                    n += 1
                    break
                parent = p[1]
        return n

    def count_outermost(self, quals):
        """Spans named in `quals` with no ancestor also named in `quals`."""
        by_id = {s[0]: s for s in self.spans}
        n = 0
        for span in self.spans:
            if span[3] not in quals:
                continue
            parent = span[1]
            while parent is not None and by_id[parent][3] not in quals:
                parent = by_id[parent][1]
            n += parent is None
        return n

    def write_spans(self, path, t_origin):
        """Write every span as one JSON line, times in microseconds from t_origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, qual, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": qual,
                    "start_us": round(1e6 * (t0 - t_origin), 3),
                    "end_us": round(1e6 * (t1 - t_origin), 3),
                }) + "\n")
