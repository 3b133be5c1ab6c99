"""Measure the benchmark's baseline and write perfbench/baseline.json.

Usage (from the root of a checkout; about 40 minutes on 2 cores):

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads detect_batch,study]

For each workload it makes two sets of untraced runs over the same seeds,
one run at a time, and one traced run on the first seed. Each end-to-end
metric gets its median, the quartile spread over the median (as
statistics.quantiles(values, n=4) gives the quartiles) and, for the second
set, how much worse its median is than the first set's. The failed and
attempted counts of the two sets must agree, since they depend on the
seeds only. Workloads not named keep their entries from an existing file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "baseline.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return result, details


def summary(runs):
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r, _ in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": metric["bound"],
                               "values": values}
    return out


def measure(workload, seeds):
    sets = [[run(workload, s, 0) for s in seeds] for _ in range(2)]
    first, second = summary(sets[0]), summary(sets[1])
    counts = [(sum(r["failed"] for r, _ in runs), sum(r["attempted"] for r, _ in runs))
              for runs in sets]
    if counts[0] != counts[1]:
        sys.exit(f"{workload}: failed/attempted differ between sets: {counts}")
    reasons = {}
    for _, d in sets[0]:
        for reason, n in d["failure_reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + n
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    for name, m in second.items():
        change = (m["median"] - first[name]["median"]) / first[name]["median"]
        m["worse_than_first_by"] = change if better[name] == "lower" else -change
        del m["values"], m["q1"], m["q3"], m["bound"], m["unit"]
    traced_result, traced = run(workload, seeds[0], 1)
    details = [d for _, d in sets[0]]
    return {
        "seeds": seeds,
        "end_to_end": first,
        "raw": {key: statistics.median(d[key] for d in details)
                for key in ("p50_ms", "items_per_s", "reference_loop_ms")},
        "second_set": {"end_to_end": second},
        "failed": counts[0][0],
        "attempted": counts[0][1],
        "failed_frac": counts[0][0] / counts[0][1],
        "failed_by_seed": {d["seed"]: d["failed"] for d in details},
        "failure_reasons": reasons,
        "ops": sum(d["ops"] for d in details),
        "p99": [d["latency"] for d in details],
        "determinism": {d["seed"]: d["determinism"] for d in details},
        "traced": {
            "seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced_result["metrics"].items()},
            **{k: traced[k] for k in ("layer_self_ms_per_op", "unattributed_ms_per_op",
                                      "traced_op_ms", "untraced_op_ms", "trace_overhead_frac",
                                      "missing_names")},
        },
        "host": details[0]["host"],
        "provenance": details[0]["provenance"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    baseline = json.loads(OUT.read_text()) if OUT.exists() else {"workloads": {}}
    baseline["what"] = __doc__.split("\n\n")[3].replace("\n", " ")
    baseline["command"] = ("python3 perfbench/run.py --workload W --seed S "
                           f"--seconds {BENCHMARK['run_seconds']} --trace T")
    for workload in args.workloads.split(","):
        entry = measure(workload, seeds)
        baseline["host"], baseline["provenance"] = entry.pop("host"), entry.pop("provenance")
        baseline["workloads"][workload] = entry
        print(f"{workload}: done", file=sys.stderr)
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
