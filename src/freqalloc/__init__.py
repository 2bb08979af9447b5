"""Incremental frequency allocation on bipartite graphs.

Exact golden-field arithmetic, competitive frequency-set families, their
property checkers, the request-by-request allocator they induce, and
adversarial instances with the phase replay that checks a system's claimed
ratio on them.

Importing the package loads the allocator, the systems and the replay, none
of which loads numpy.  The names of the checker (which loads numpy) and of
the plugin runner (which loads subprocess and select) are exported too,
but each module is imported only when one of its names is first read.
"""

import importlib

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
from .frequencies import (
    Frequency,
    FrequencySet,
    PoolTag,
    Side,
    encode_global,
)
from .golden import GoldenNumber, cmp, constants, parse_exact
from .harness import (
    CollisionError,
    RunReport,
    ScaleCapError,
    UniversalGraph,
    lower_bound_instance,
    run_universal,
)
from .systems import FSystemSpec, golden_system, half_system, trivial_system

__version__ = "0.1.0"

# exported names whose module is imported at first use, by __getattr__
_LAZY = dict.fromkeys(
    (
        "CheckReport",
        "FalsifyVerdict",
        "GammaTrace",
        "SharedStats",
        "Violation",
        "ViolationKind",
        "check_competitiveness",
        "check_f1",
        "check_f2",
        "falsify",
        "gamma_trace",
        "lemma_chain_check",
        "min_lambda",
        "run_checks",
        "shared_stats",
    ),
    "checker",
) | dict.fromkeys(("PluginFault", "PluginSystem"), "plugin")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    # bound here, so the next read finds it without this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

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
    "encode_global",
    "falsify",
    "gamma_trace",
    "golden_system",
    "half_system",
    "lemma_chain_check",
    "lower_bound_instance",
    "min_lambda",
    "parse_exact",
    "run_checks",
    "run_universal",
    "shared_stats",
    "static_allocate",
    "static_opt",
    "trivial_system",
]
