"""Incremental frequency allocation on bipartite graphs.

Exact golden-field arithmetic, competitive frequency-set families, their
property checkers, the request-by-request allocator they induce, and
adversarial instance generators for ratio measurement.
"""

from .allocation import (
    AllocationError,
    Allocator,
    BipartiteInstance,
    BudgetExceededError,
    NotBipartiteError,
    assignment_valid,
    bipartition,
    brute_force_opt,
    static_allocate,
    static_opt,
)
from .checker import (
    CheckReport,
    FalsifyVerdict,
    GammaTrace,
    SharedStats,
    Violation,
    ViolationKind,
    check_competitiveness,
    check_f1,
    check_f2,
    falsify,
    gamma_trace,
    lemma_chain_check,
    min_lambda,
    run_checks,
    shared_stats,
)
from .frequencies import (
    Frequency,
    FrequencySet,
    PoolTag,
    Side,
    decode_global,
    encode_global,
    pool_band,
    pool_prefix,
)
from .golden import GoldenNumber, cmp, constants, parse_exact
from .harness import (
    CollisionError,
    RunReport,
    ScaleCapError,
    UniversalGraph,
    lower_bound_instance,
    measure_ratio,
    run_universal,
    universal_graph,
)
from .plugin import PluginFault, PluginSystem
from .systems import FSystemSpec, golden_system, half_system, trivial_system

__version__ = "0.1.0"

__all__ = [
    "AllocationError",
    "Allocator",
    "BipartiteInstance",
    "BudgetExceededError",
    "CheckReport",
    "CollisionError",
    "FalsifyVerdict",
    "Frequency",
    "FrequencySet",
    "FSystemSpec",
    "GammaTrace",
    "GoldenNumber",
    "NotBipartiteError",
    "PluginFault",
    "PluginSystem",
    "PoolTag",
    "RunReport",
    "ScaleCapError",
    "SharedStats",
    "Side",
    "UniversalGraph",
    "Violation",
    "ViolationKind",
    "assignment_valid",
    "bipartition",
    "brute_force_opt",
    "check_competitiveness",
    "check_f1",
    "check_f2",
    "cmp",
    "constants",
    "decode_global",
    "encode_global",
    "falsify",
    "gamma_trace",
    "golden_system",
    "half_system",
    "lemma_chain_check",
    "lower_bound_instance",
    "measure_ratio",
    "min_lambda",
    "parse_exact",
    "pool_band",
    "pool_prefix",
    "run_checks",
    "run_universal",
    "shared_stats",
    "static_allocate",
    "static_opt",
    "trivial_system",
    "universal_graph",
]
