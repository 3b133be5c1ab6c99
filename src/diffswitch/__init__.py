"""Detection of diffusion-regime switches along particle trajectories."""

from ._version import __version__
from .trajectory import TimeGrid, Trajectory, load_csv, save_csv
from .simulators import (
    RegimeSpec,
    ScenarioSpec,
    compose_scenario,
    compose_stack,
    replicate_stacks,
    scenario_preset,
)
from .stats import (
    SlidingStats,
    ThresholdPair,
    backward_forward,
    estimate_sigma2,
    phi,
    sliding_stats,
    statistic_T,
)
from .calibration import (
    CalibrationKey,
    SegmentQuantiles,
    ThresholdTable,
    cache_get_or_calibrate,
    default_key,
    estimate_type1_error,
)
from .detection import (
    ChangePointReport,
    Cluster,
    DetectionConfig,
    find_clusters,
    estimate_change_points,
    label_segments,
    merge_same_label,
    run_batch,
    run_procedure,
)
from .bench import ExperimentSpec, Type1Spec, export_report, run_experiment, run_type1_experiment

__all__ = [
    "__version__",
    "TimeGrid", "Trajectory", "load_csv", "save_csv",
    "RegimeSpec", "ScenarioSpec", "compose_scenario", "compose_stack", "replicate_stacks",
    "scenario_preset",
    "SlidingStats", "ThresholdPair", "phi", "backward_forward",
    "estimate_sigma2", "statistic_T", "sliding_stats",
    "CalibrationKey", "ThresholdTable", "SegmentQuantiles",
    "cache_get_or_calibrate", "default_key",
    "estimate_type1_error",
    "DetectionConfig", "Cluster", "ChangePointReport", "find_clusters",
    "estimate_change_points", "label_segments", "merge_same_label", "run_batch",
    "run_procedure",
    "ExperimentSpec", "Type1Spec", "run_experiment", "run_type1_experiment",
    "export_report",
]
