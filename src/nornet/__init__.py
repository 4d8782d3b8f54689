"""Leaky noisy-OR diagnostic network toolkit.

Build layered disease/intermediate/finding networks, collapse the
intermediate layer with the approximate level reduction, compute exact
posteriors as ground truth, predict the reduction's error analytically,
and run seeded full-vs-reduced diagnostic-accuracy experiments.
"""

from .analysis import (
    FanStats,
    StarConfig,
    fan_stats,
    ips_path_stats,
    predict_bias,
    fan_in_ratio,
    fan_out_ratio,
    star_config_from_network,
    star_network,
)
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    DomainError,
    EvidenceError,
    ExhaustionError,
    FileError,
    IncompleteAssignmentError,
    NornetError,
    ParseError,
    ValidationError,
)
from .experiment import (
    CellStats,
    ExperimentSummary,
    PhaseStats,
    TestCase,
    generate_cases,
    run_experiment,
)
from .fileformat import (
    cases_csv,
    parse_network,
    provenance_csv,
    report_csv,
    serialize_network,
)
from .generator import GeneratorConfig, generate_network
from .inference import (
    PosteriorResult,
    event_prob,
    marginal,
    posterior,
)
from .model import (
    Edge,
    Network,
    Node,
    NodeKind,
    Violation,
    disease,
    finding,
    ips,
    joint_prob,
    sample_world,
    validate,
)
from .reduction import (
    PathProvenance,
    ReductionReport,
    absorb_leak,
    compose_serial,
    eliminate_ips,
    level_reduce,
    merge_parallel,
)
from .rng import SplitMix64
from .stats import log_odds, paired_t, two_sided_p

__version__ = "0.1.0"

__all__ = [
    "CellStats",
    "ConfigError",
    "DegenerateVarianceError",
    "DomainError",
    "Edge",
    "EvidenceError",
    "ExhaustionError",
    "ExperimentSummary",
    "FanStats",
    "FileError",
    "GeneratorConfig",
    "IncompleteAssignmentError",
    "Network",
    "Node",
    "NodeKind",
    "NornetError",
    "ParseError",
    "PathProvenance",
    "PhaseStats",
    "PosteriorResult",
    "ReductionReport",
    "SplitMix64",
    "StarConfig",
    "TestCase",
    "ValidationError",
    "Violation",
    "absorb_leak",
    "cases_csv",
    "compose_serial",
    "disease",
    "eliminate_ips",
    "event_prob",
    "fan_stats",
    "finding",
    "generate_cases",
    "generate_network",
    "ips",
    "ips_path_stats",
    "joint_prob",
    "level_reduce",
    "log_odds",
    "marginal",
    "merge_parallel",
    "paired_t",
    "parse_network",
    "posterior",
    "predict_bias",
    "provenance_csv",
    "fan_in_ratio",
    "fan_out_ratio",
    "report_csv",
    "run_experiment",
    "sample_world",
    "serialize_network",
    "star_config_from_network",
    "star_network",
    "two_sided_p",
    "validate",
]
