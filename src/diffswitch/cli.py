"""Command-line entry point: simulate, stats, calibrate, detect, bench.

All numeric work is delegated to the library modules; subcommands only
parse arguments, wire caches, and serialize results.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

from . import bench, calibration, detection
from ._version import __version__
from .calibration import CACHE_SCHEMA_VERSION, RELAXED, STRICT
from .errors import DiffswitchError, InvalidParam, IoFailure
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


def _add_detector(parser, *, clusters, gammas):
    """--k, --alpha, --variant, plus --c/--c-star if clusters and --gamma1/--gamma2 if gammas."""
    parser.add_argument("--k", type=int, required=True)
    if clusters:
        parser.add_argument("--c", type=int, default=None)
        parser.add_argument("--c-star", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--variant", choices=(STRICT, RELAXED), default=RELAXED)
    if gammas:
        parser.add_argument("--gamma1", type=float, default=None)
        parser.add_argument("--gamma2", type=float, default=None)


def _load_scenario(path):
    """The ScenarioSpec in a JSON file: IoFailure if unreadable, InvalidParam if malformed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return scenario_from_json(data.decode("utf-8"))
    except KeyError as exc:
        raise InvalidParam(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise InvalidParam(f"{path}: not a scenario document: {exc}") from None


def _thresholds_from_args(args, n, store):
    if args.gamma1 is not None:
        return ThresholdPair(args.gamma1, args.gamma2)
    key = calibration.default_key(n, args.k, args.variant, args.alpha, seed=args.seed,
                                  c=getattr(args, "c", None), c_star=getattr(args, "c_star", None))
    return calibration.cache_get_or_calibrate(store, key)


def _write_stats_csv(path, stats):
    """Per-index (i, B, A, Q) rows as CSV, to `path` or to stdout if it is None."""
    out = open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout)
    with out as stream:
        writer = csv.writer(stream)
        writer.writerow(["i", "B", "A", "Q"])
        for i, b, a, q in zip(stats.indices, stats.B, stats.A, stats.Q):
            writer.writerow([int(i), f"{b:.10g}", f"{a:.10g}", int(q)])


def cmd_simulate(args):
    if args.scenario in ("1", "2"):
        spec = scenario_preset(int(args.scenario), v=args.v, lam=args.lam, seed=DEFAULT_SEED)
    else:
        spec = _load_scenario(args.scenario)
    if args.seed is not None:  # an explicit --seed outranks a scenario file's own seed
        spec = replace(spec, seed=args.seed)
    traj, truth = compose_scenario(spec)
    save_csv(traj, args.out)
    print(json.dumps({"out": args.out, "ground_truth": truth}))
    return 0


def cmd_stats(args):
    traj = load_csv(args.input)
    thresholds = _thresholds_from_args(args, traj.n_steps, args.cache)
    _write_stats_csv(args.out, sliding_stats(traj, args.k, thresholds))
    return 0


def cmd_calibrate(args):
    key = calibration.default_key(args.n, args.k, args.variant, args.alpha, args.replicates,
                                  args.seed, args.c, args.c_star)
    pair = calibration.cache_get_or_calibrate(args.cache, key)
    print(json.dumps({"gamma1": pair.gamma1, "gamma2": pair.gamma2, "key": vars(key)}))
    return 0


def cmd_detect(args):
    traj = load_csv(args.input)
    table = calibration.ThresholdTable(args.cache)  # shared by the pair and the labelling
    thresholds = _thresholds_from_args(args, traj.n_steps, table)
    config = detection.DetectionConfig(
        k=args.k, thresholds=thresholds, c=args.c, c_star=args.c_star
    )
    quantiles = (calibration.SegmentQuantiles(table, alpha=args.alpha, seed=args.seed)
                 if args.label else None)
    report = detection.run_procedure(traj, config, labelling=args.label, quantiles=quantiles)
    if args.stats_csv:
        _write_stats_csv(args.stats_csv, report.stats)
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
        preset = args.scenario in ("1", "2")
        scenario = int(args.scenario) if preset else _load_scenario(args.scenario)
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
    p.add_argument("--seed", type=_parse_seed, default=None,
                   help="master seed, or 'random'; default: the preset's or the file's seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="emit per-index (i, B, A, Q) as CSV")
    p.add_argument("--input", required=True)
    _add_detector(p, clusters=False, gammas=True)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("calibrate", help="estimate cut-off values by Monte Carlo")
    p.add_argument("--n", type=int, required=True)
    _add_detector(p, clusters=True, gammas=False)
    p.add_argument("--replicates", type=int, default=10_001)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="run the detection procedure on a CSV trajectory")
    p.add_argument("--input", required=True)
    _add_detector(p, clusters=True, gammas=True)
    p.add_argument("--label", action="store_true", help="label segments a posteriori")
    p.add_argument("--stats-csv", default=None, help="also write per-index (i,B,A,Q)")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark sweep")
    p.add_argument("--scenario", default="1", help="1, 2, or a scenario JSON file")
    p.add_argument("--sweep", type=float, nargs="+", default=[1.0],
                   help="drift or restoring-force values (a scenario file runs unchanged at each)")
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
        if (getattr(args, "gamma1", None) is None) != (getattr(args, "gamma2", None) is None):
            raise InvalidParam("--gamma1 and --gamma2 must be given together")
        return args.func(args)
    except DiffswitchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
