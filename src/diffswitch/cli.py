"""Command-line entry point: simulate, stats, calibrate, detect, bench.

All numeric work is delegated to the library modules; subcommands only
parse arguments, wire caches, and serialize results.
"""

import argparse
import csv
import dataclasses
import json
import sys

from . import bench, calibration, detection
from ._version import __version__
from .calibration import CACHE_SCHEMA_VERSION, RELAXED, STRICT
from .errors import DiffswitchError, InvalidParam
from .rng import DEFAULT_SEED
from .simulators import compose_scenario, scenario_from_json, scenario_preset
from .stats import ThresholdPair, sliding_stats
from .trajectory import load_csv, save_csv


def _parse_seed(text):
    if text == "random":
        import secrets

        return secrets.randbits(63)
    return int(text)


def _add_common(parser):
    parser.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                        help="master seed, or 'random'")
    parser.add_argument("--cache", default=None, help="threshold cache JSON path")


def _scenario_from_args(args):
    if args.scenario in ("1", "2"):
        number = int(args.scenario)
        if number == 1:
            if args.v is None:
                raise InvalidParam("scenario 1 needs --v")
            return scenario_preset(1, v=args.v, seed=args.seed)
        if args.lam is None:
            raise InvalidParam("scenario 2 needs --lam")
        return scenario_preset(2, lam=args.lam, seed=args.seed)
    with open(args.scenario, encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def _key_from_args(args, n, replicates=10_001, seed=DEFAULT_SEED):
    key = calibration.default_key(
        n, args.k, variant=args.variant, alpha=args.alpha, replicates=replicates, seed=seed
    )
    if getattr(args, "c", None):
        key = dataclasses.replace(key, c=args.c, c_star=args.c_star or key.c_star)
    return key


def _thresholds_from_args(args, n):
    if args.gamma1 is not None and args.gamma2 is not None:
        return ThresholdPair(args.gamma1, args.gamma2)
    return calibration.cache_get_or_calibrate(args.cache, _key_from_args(args, n))


def _write_stats_csv(stream, stats):
    writer = csv.writer(stream)
    writer.writerow(["i", "B", "A", "Q"])
    for i, b, a, q in zip(stats.indices, stats.B, stats.A, stats.Q):
        writer.writerow([int(i), f"{b:.10g}", f"{a:.10g}", int(q)])


def cmd_simulate(args):
    spec = _scenario_from_args(args)
    traj, truth = compose_scenario(spec)
    save_csv(traj, args.out)
    print(json.dumps({"out": args.out, "ground_truth": truth}))
    return 0


def cmd_stats(args):
    traj = load_csv(args.input)
    thresholds = _thresholds_from_args(args, traj.n_steps)
    stats = sliding_stats(traj, args.k, thresholds)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            _write_stats_csv(fh, stats)
    else:
        _write_stats_csv(sys.stdout, stats)
    return 0


def cmd_calibrate(args):
    key = _key_from_args(args, args.n, args.replicates, args.seed)
    pair = calibration.cache_get_or_calibrate(args.cache, key)
    print(json.dumps({"gamma1": pair.gamma1, "gamma2": pair.gamma2, "key": vars(key)}))
    return 0


def cmd_detect(args):
    traj = load_csv(args.input)
    thresholds = _thresholds_from_args(args, traj.n_steps)
    config = detection.DetectionConfig(
        k=args.k, thresholds=thresholds, c=args.c, c_star=args.c_star, alpha=args.alpha
    )
    quantiles = None
    if args.label:
        quantiles = calibration.SegmentQuantiles(store=args.cache, alpha=args.alpha)
    report = detection.run_procedure(traj, config, labelling=args.label, quantiles=quantiles)
    if args.stats_csv:
        with open(args.stats_csv, "w", newline="", encoding="utf-8") as fh:
            _write_stats_csv(fh, report.stats)
    print(json.dumps(detection.report_to_dict(report), indent=2))
    return 0


def cmd_bench(args):
    if args.type1:
        spec = bench.Type1Spec(
            n_values=tuple(args.n_list), k_values=tuple(args.k_list),
            variants=tuple(args.variants), replicates=args.replicates,
            seed=args.seed, alpha=args.alpha, cache_path=args.cache,
        )
        report = bench.run_type1_experiment(spec)
    else:
        scenario = int(args.scenario) if args.scenario in ("1", "2") else None
        if scenario is None:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = scenario_from_json(fh.read())
        spec = bench.ExperimentSpec(
            scenario=scenario,
            param_values=tuple(args.sweep),
            k_values=tuple(args.k_list),
            replicates=args.replicates,
            seed=args.seed,
            variant=args.variant,
            alpha=args.alpha,
            cache_path=args.cache,
            label=not args.no_label,
            external_detector=args.external,
        )
        report = bench.run_experiment(spec)
    import os

    os.makedirs(args.out, exist_ok=True)
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("markdown", "report.md")):
        bench.export_report(report, fmt, os.path.join(args.out, name))
    print(json.dumps({"out": args.out, "cells": len(report.cells)}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diffswitch",
        description="Detect switches between Brownian motion, subdiffusion and "
        "superdiffusion along a particle trajectory.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"diffswitch {__version__} (cache schema {CACHE_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a scenario trajectory to CSV")
    p.add_argument("--scenario", required=True, help="1, 2, or a scenario JSON file")
    p.add_argument("--v", type=float, default=None, help="drift magnitude (scenario 1)")
    p.add_argument("--lam", type=float, default=None, help="restoring force (scenario 2)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="emit per-index (i, B, A, Q) as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--variant", choices=(STRICT, RELAXED), default=RELAXED)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("calibrate", help="estimate cut-off values by Monte Carlo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--c-star", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--variant", choices=(STRICT, RELAXED), default=RELAXED)
    p.add_argument("--replicates", type=int, default=10_001)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="run the detection procedure on a CSV trajectory")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--c-star", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--variant", choices=(STRICT, RELAXED), default=RELAXED)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--label", action="store_true", help="label segments a posteriori")
    p.add_argument("--stats-csv", default=None, help="also write per-index (i,B,A,Q)")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark sweep")
    p.add_argument("--scenario", default="1", help="1, 2, or a scenario JSON file")
    p.add_argument("--sweep", type=float, nargs="+", default=[1.0],
                   help="drift or restoring-force values")
    p.add_argument("--k-list", type=int, nargs="+", default=[30])
    p.add_argument("--n-list", type=int, nargs="+", default=[150, 300],
                   help="trajectory lengths (type-1 mode)")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--variant", choices=(STRICT, RELAXED), default=RELAXED)
    p.add_argument("--variants", nargs="+", choices=(STRICT, RELAXED),
                   default=[RELAXED], help="variants to sweep (type-1 mode)")
    p.add_argument("--type1", action="store_true", help="run the false-detection-rate grid")
    p.add_argument("--no-label", action="store_true")
    p.add_argument("--external", default=None,
                   help="external detector executable to score instead")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiffswitchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
