"""Time one workload set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED WORKDIR [--smoke]

The clock starts after numpy is imported, because no change to the
package can move numpy's own import time. It stops when the workload is
ready for its first op, so the package import, opening the threshold cache
and warming the labelling quantiles all count.
"""

import sys
import time

import numpy  # noqa: F401  imported before the clock starts on purpose

if __name__ == "__main__":
    src, name, seed, workdir = sys.argv[1:5]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import workloads

    workloads.make(name, int(seed), "--smoke" in sys.argv[5:], workdir).setup()
    print(repr(time.perf_counter() - t0))
