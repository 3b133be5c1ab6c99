"""Paired timing of kernel, null-pass, study and CSV-loader cases from two source trees.

Usage (from the root of a checkout):

    python3 tools/kernel_ab.py PARENT_SRC CHANGE_SRC [--rounds 9]

PARENT_SRC and CHANGE_SRC are directories that hold a `diffswitch`
package, e.g. the `src` of two checkouts. Both are imported side by side
under distinct module names, every case is checked by value between
them, and each round times the two trees back to back, alternating
which one goes first. The kernel cases call `stats.backward_forward` on
a random stack and compare B and A bit for bit. The null-pass cases run
`calibration._null_pass` and compare its cut-offs: at (300, 30, 15, 12)
with the segment test on 2,002 replicates, and on 10,001 as perfbench's
`calibrate_cold` runs it (`null_pass_300_k30_10001`); and at
(3000, 300, 150, 113) on 1,000 replicates without it
(`null_pass_3000_k300`), where a stack is a few rows of a long null.
The type-I case runs `estimate_type1_error` at (300, 30, 15, 12) with
the pair (0.74, 3.26), 2,000 replicates and seed 1729, and compares the
rate and its standard error bit for bit. Stack cases take the rows of
one Monte Carlo stack at n=300, `stats.block_rows(300, 2)` (108). The
`compose_stack` case simulates a stack of the scenario-1 preset (v = 1),
its streams included, and compares the stacks bit for bit; the
`raw_batch` case runs `SegmentStats` and `detection.raw_batch` with
labels on a random-walk stack (k = 30, pair (0.74, 3.26), quantiles
(0.6, 2.6)) and compares each row's change points and raw labels; the
`run_cell` case runs one labelled scenario-2 cell (lam = 0.5, k = 30,
200 replicates, quantiles (0.6, 2.6)) and compares the cell's fields
other than `runtime_s`. The `detect` case runs `run_procedure` with
labels on one n=300 Brownian track (k = 30, pair (0.74, 3.26), quantiles
(0.6, 2.6)) and compares the JSON text of `detection.report_to_dict`.
The `load_csv` case writes one n=300 Brownian track to a temporary
directory twice, as perfbench's `write_track` writes it (LF line ends,
`repr` floats) and through `save_csv` (CRLF line ends, `.17g`); one call
loads both files, and the positions and grids are compared bit for bit.
The `load_csv_fallback` case does the same for two files that numpy's
parse leaves to the `float` conversion: the LF file with ", " between
fields, and with a blank line after its 150th row.
The segment cases call
`SegmentStats.tiled` on the `SegmentStats.bounds` of change points in
random walks (1 x 301 with change points [100, 175], a stack of 301
points with two random change points per row, 1 x 50,001 with 19),
`SegmentStats.whole` (a stack of 301 points)
or `SegmentStats.segment`, as
the merge of two labels calls it (segment [100, 300] of 1 x 301, and a
15,000-step segment of 1 x 50,001), and compare every T and step sum
bit for bit. Standard output is one JSON
object: per case, the median parent and change times, the median of the
per-round ratios change / parent, and each tree's tracemalloc peak for
one call, so a change that trades memory for time shows both.
"""

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

# Rows of one Monte Carlo stack at n=300 in the plane, as stats.block_rows(300, 2) gives them.
STACK = 108
# Kernel cases: (name, rows, points, k, calls per round).
KERNEL_CASES = (
    ("1x301_k30", 1, 301, 30, 200),
    (f"{STACK}x301_k30", STACK, 301, 30, 6),
    ("1x50001_k300", 1, 50_001, 300, 1),
    ("1x100001_k300", 1, 100_001, 300, 1),
)
# Null-pass cases: (name, _null_pass arguments, keywords, calls per round).
NULL_PASSES = (
    ("null_pass_300_k30", (300, 0.05, 2002, 1), {"window": (30, 15, 12), "segment": True}, 1),
    ("null_pass_300_k30_10001", (300, 0.05, 10_001, 1), {"window": (30, 15, 12), "segment": True}, 1),
    ("null_pass_3000_k300", (3000, 0.05, 1000, 1), {"window": (300, 150, 113)}, 1),
)
# The type-I case: estimate_type1_error's (n, k, c, c_star), pair, (replicates, seed), calls per round.
TYPE1 = ((300, 30, 15, 12), (0.74, 3.26), (2000, 1729), 1)
# Calls per round of the compose_stack, raw_batch and run_cell cases.
COMPOSE_CALLS, RAW_CALLS, CELL_CALLS = 15, 6, 1
# The per-track detection case: pair, segment quantiles and calls per round.
DETECT = ((0.74, 3.26), (0.6, 2.6), 200)
# Calls per round of the load_csv case.
LOAD_CALLS = 200


def segment_cases():
    """(name, stack, what to time, calls per round) of each segment case.

    What to time is change points per row, one (row, lo, hi) segment, or None for whole rows.
    """
    rng = np.random.default_rng(20)

    def walk(rows, points):
        return rng.normal(size=(rows, points, 2)).cumsum(axis=1)

    def cuts(n, count):
        return np.sort(rng.choice(np.arange(1, n), count, replace=False)).tolist()

    return (
        ("tiled_1x301", walk(1, 301), [[100, 175]], 2000),
        (f"tiled_{STACK}x301", walk(STACK, 301), [cuts(300, 2) for _ in range(STACK)], 60),
        ("tiled_1x50001", walk(1, 50_001), [cuts(50_000, 19)], 20),
        (f"whole_{STACK}x301", walk(STACK, 301), None, 60),
        ("segment_1x301", walk(1, 301), (0, 100, 300), 2000),
        ("segment_1x50001", walk(1, 50_001), (0, 20_000, 35_000), 20),
    )


def segment_call(tree, stack, points):
    segments = tree.stats.SegmentStats(stack)
    if isinstance(points, tuple):
        return lambda: segments.segment(*points)
    return segments.whole if points is None else lambda: segments.tiled(*segments.bounds(points))


def load(src, name):
    """The diffswitch package under `src`, imported as module `name`."""
    init = Path(src) / "diffswitch" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def per_call(call, calls):
    start = time.process_time()
    for _ in range(calls):
        call()
    return (time.process_time() - start) / calls


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def by_value(result):
    """A view of a case's result that compares equal across the two trees' classes."""
    if isinstance(result, tuple) and len(result) == 4:  # raw_batch
        return raw_rows(*result)
    if isinstance(result, str):
        return result
    if isinstance(result, dict):
        return {variant: (pair.gamma1, pair.gamma2) for variant, pair in result.items()}
    if dataclasses.is_dataclass(result):
        fields = dataclasses.asdict(result)
        del fields["runtime_s"]
        return fields
    return [np.asarray(array).tobytes() for array in result]


def raw_rows(stats, clusters, points, labels):
    """Per row, the change points and raw labels of a raw_batch result.

    Takes both of its forms: (row, start, end) and (row, lo, hi, code, T)
    arrays, or the lists of one list per row that trees before the array
    form return.
    """
    if isinstance(points, list):
        return points, [[(l.start, l.end, l.label, l.T) for l in row] for row in labels]
    rows = range(len(stats.Q))
    row, lo, hi, code, T = (a.tolist() for a in labels)
    names = ("brownian", "subdiffusive", "superdiffusive", "undetermined")
    segments = [(r, a, b, names[c], None if c == 3 else t) for r, a, b, c, t in zip(row, lo, hi, code, T)]
    return ([[p for p, q in zip(points.tolist(), clusters[0].tolist()) if q == r] for r in rows],
            [[s[1:] for s in segments if s[0] == r] for r in rows])


def compose_call(tree):
    spec = tree.scenario_preset(1, v=1.0)
    return lambda: tree.compose_stack(spec, tree.rng.replicate_rngs(1, reps=range(STACK)))


def raw_call(tree, stack):
    gammas, quantiles, _ = DETECT
    config = tree.DetectionConfig(30, tree.ThresholdPair(*gammas))
    lookup = tree.detection.label_lookup(quantiles)
    return lambda: tree.detection.raw_batch(tree.stats.SegmentStats(stack), config, lookup)


def cell_call(tree):
    spec = tree.ExperimentSpec(scenario=2, param_values=(0.5,), k_values=(30,), replicates=200)
    pair = tree.ThresholdPair(0.74, 3.26)
    return lambda: tree.bench.run_cell(spec, 0.5, 30, pair, quantiles=(0.6, 2.6))


def detect_call(tree):
    gammas, quantiles, _ = DETECT
    traj = tree.gen_brownian(tree.TimeGrid(0.0, 1.0, 300), 2, 1.0, np.random.default_rng(300))
    config = tree.DetectionConfig(30, tree.ThresholdPair(*gammas))
    return lambda: json.dumps(tree.detection.report_to_dict(tree.run_procedure(traj, config, True, quantiles)))


def write_tracks(tree, directory):
    """One n=300 track as perfbench's write_track writes it (LF, repr) and as save_csv does (CRLF),
    then the LF file with ", " between fields and with a blank line mid-file."""
    traj = tree.gen_brownian(tree.TimeGrid(0.0, 1.0, 300), 2, 1.0, np.random.default_rng(301))
    lf, crlf, spaced, blank = (Path(directory) / f"{name}.csv" for name in ("lf", "crlf", "spaced", "blank"))
    rows = [f"{t},{x!r},{y!r}\n" for t, (x, y) in enumerate(traj.positions.tolist())]
    lf.write_text("t,x,y\n" + "".join(rows), encoding="utf-8")
    tree.save_csv(traj, crlf)
    spaced.write_text("t,x,y\n" + "".join(rows).replace(",", ", "), encoding="utf-8")
    blank.write_text("t,x,y\n" + "".join(rows[:150]) + "\n" + "".join(rows[150:]), encoding="utf-8")
    return lf, crlf, spaced, blank


def load_call(tree, paths):
    def call():
        trajs = [tree.load_csv(path) for path in paths]
        return [a for traj in trajs for a in (traj.positions, [traj.grid.t0, traj.grid.delta, traj.n_steps])]
    return call


def run_case(name, calls_of_trees, calls, rounds):
    """Times two zero-argument calls, one per tree, after checking that they agree by value."""
    if by_value(calls_of_trees[0]()) != by_value(calls_of_trees[1]()):
        raise SystemExit(f"case {name}: results differ between the trees")
    times = []
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        pair = {side: per_call(calls_of_trees[side], calls) for side in order}
        times.append((pair[0], pair[1]))
    parent, change = zip(*times)
    return {
        "parent_us": round(statistics.median(parent) * 1e6, 1),
        "change_us": round(statistics.median(change) * 1e6, 1),
        "ratio": round(statistics.median(c / p for p, c in times), 3),
        "parent_peak_mb": round(peak_bytes(calls_of_trees[0]) / 2**20, 2),
        "change_peak_mb": round(peak_bytes(calls_of_trees[1]) / 2**20, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    trees = [load(src, name) for src, name in
             ((args.parent_src, "diffswitch_parent"), (args.change_src, "diffswitch_change"))]
    result = {}
    for name, rows, points, k, calls in KERNEL_CASES:
        stack = np.random.default_rng(points).normal(size=(rows, points, 2)).cumsum(axis=1)
        kernels = [lambda tree=tree, stack=stack, k=k: tree.backward_forward(stack, k) for tree in trees]
        result[name] = run_case(name, kernels, calls, args.rounds)
    for name, pass_args, pass_kwargs, calls in NULL_PASSES:
        passes = [lambda tree=tree: tree.calibration._null_pass(*pass_args, **pass_kwargs) for tree in trees]
        result[name] = run_case(name, passes, calls, args.rounds)
    window, gammas, draws, calls = TYPE1
    type1 = [lambda tree=tree: tree.estimate_type1_error(*window, tree.ThresholdPair(*gammas), *draws)
             for tree in trees]
    result["type1_300_k30"] = run_case("type1_300_k30", type1, calls, args.rounds)
    if trees[0].stats.block_rows(300, 2) != STACK:
        raise SystemExit(f"a stack at n=300 now holds {trees[0].stats.block_rows(300, 2)} rows, not {STACK}")
    result[f"compose_stack_s1_{STACK}"] = run_case(
        f"compose_stack_s1_{STACK}", [compose_call(tree) for tree in trees], COMPOSE_CALLS, args.rounds)
    stack = np.random.default_rng(STACK).normal(size=(STACK, 301, 2)).cumsum(axis=1)
    result[f"raw_batch_{STACK}x301_k30"] = run_case(
        f"raw_batch_{STACK}x301_k30", [raw_call(tree, stack) for tree in trees], RAW_CALLS, args.rounds)
    result["run_cell_s2_lam0.5"] = run_case(
        "run_cell_s2_lam0.5", [cell_call(tree) for tree in trees], CELL_CALLS, args.rounds)
    result["detect_1x301_k30"] = run_case(
        "detect_1x301_k30", [detect_call(tree) for tree in trees], DETECT[2], args.rounds)
    with tempfile.TemporaryDirectory() as directory:
        paths = write_tracks(trees[0], directory)
        result["load_csv_1x301"] = run_case(
            "load_csv_1x301", [load_call(tree, paths[:2]) for tree in trees], LOAD_CALLS, args.rounds)
        result["load_csv_fallback_1x301"] = run_case(
            "load_csv_fallback_1x301", [load_call(tree, paths[2:]) for tree in trees], LOAD_CALLS, args.rounds)
    for name, stack, points, calls in segment_cases():
        calls_of_trees = [segment_call(tree, stack, points) for tree in trees]
        result[name] = run_case(name, calls_of_trees, calls, args.rounds)
    print(json.dumps({"rounds": args.rounds, "cases": result}, indent=1))


if __name__ == "__main__":
    main()
