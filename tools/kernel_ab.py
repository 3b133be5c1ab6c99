"""Paired timing of stats.backward_forward from two source trees in one process.

Usage (from the root of a checkout):

    python3 tools/kernel_ab.py PARENT_SRC CHANGE_SRC [--rounds 9]

PARENT_SRC and CHANGE_SRC are directories that hold a `diffswitch`
package, e.g. the `src` of two checkouts. Both are imported side by side
under distinct module names, every case is checked bit for bit between
them, and each round times the two kernels back to back, alternating
which one goes first. Standard output is one JSON object: per case, the
median parent and change times, the median of the per-round ratios
change / parent, and each tree's tracemalloc peak for one call.
"""

import argparse
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

# (name, rows, points, k, calls per round)
CASES = (
    ("1x301_k30", 1, 301, 30, 200),
    ("32x301_k30", 32, 301, 30, 20),
    ("1x50001_k300", 1, 50_001, 300, 1),
    ("1x100001_k300", 1, 100_001, 300, 1),
)


def load(src, name):
    """The diffswitch package under `src`, imported as module `name`."""
    init = Path(src) / "diffswitch" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def per_call(kernel, stack, k, calls):
    start = time.process_time()
    for _ in range(calls):
        kernel(stack, k)
    return (time.process_time() - start) / calls


def peak_bytes(kernel, stack, k):
    tracemalloc.start()
    try:
        kernel(stack, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_case(kernels, rows, points, k, calls, rounds):
    stack = np.random.default_rng(points).normal(size=(rows, points, 2)).cumsum(axis=1)
    (B0, A0), (B1, A1) = (kernel(stack, k) for kernel in kernels)
    if not (np.array_equal(B0, B1) and np.array_equal(A0, A1)):
        raise SystemExit(f"B or A differ between the trees at {rows}x{points}, k={k}")
    times = []
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        pair = {side: per_call(kernels[side], stack, k, calls) for side in order}
        times.append((pair[0], pair[1]))
    parent, change = zip(*times)
    return {
        "parent_us": round(statistics.median(parent) * 1e6, 1),
        "change_us": round(statistics.median(change) * 1e6, 1),
        "ratio": round(statistics.median(c / p for p, c in times), 3),
        "parent_peak_mb": round(peak_bytes(kernels[0], stack, k) / 2**20, 2),
        "change_peak_mb": round(peak_bytes(kernels[1], stack, k) / 2**20, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    kernels = [load(src, name).backward_forward
               for src, name in ((args.parent_src, "diffswitch_parent"), (args.change_src, "diffswitch_change"))]
    result = {name: run_case(kernels, rows, points, k, calls, args.rounds)
              for name, rows, points, k, calls in CASES}
    print(json.dumps({"rounds": args.rounds, "cases": result}, indent=1))


if __name__ == "__main__":
    main()
