"""Incremental frequency allocation on bipartite graphs.

Exact golden-field arithmetic, competitive frequency-set families, their
property checkers, the request-by-request allocator they induce, and
adversarial instances with the phase replay that checks a system's claimed
ratio on them.

Importing the package loads none of its modules.  Each exported name is
read from the module that defines it, which is imported when the first of
its names is read (a module ``__getattr__``), together with the modules it
imports: ``run_universal`` loads the harness, the allocator, the systems,
the frequencies and the golden field, none of which loads numpy;
``check_f2`` loads the checker, and with it numpy, but not the harness or
the allocator; ``PluginSystem`` loads the plugin runner, and with it
subprocess and select, but ``PluginFault``, like every exception that
``cli.main`` maps, loads ``golden`` alone.  ``from freqalloc import
allocation, systems`` imports those two modules and what they import, not
the harness.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_LAZY = {
    name: module
    for module, names in {
        "allocation": (
            "Allocator", "BipartiteInstance", "assignment_valid",
            "brute_force_opt", "static_allocate", "static_opt",
        ),
        "checker": (
            "CheckReport", "FalsifyVerdict", "GammaTrace", "SharedStats",
            "Violation", "ViolationKind", "check_competitiveness", "check_f1",
            "check_f2", "falsify", "gamma_trace", "lemma_chain_check",
            "min_lambda", "run_checks", "shared_stats",
        ),
        "frequencies": ("Frequency", "FrequencySet", "PoolTag", "Side"),
        "golden": (
            "AllocationError", "BudgetExceededError", "GoldenNumber",
            "NotBipartiteError", "PluginFault", "constants", "parse_exact",
        ),
        "harness": (
            "CollisionError", "RunReport", "ScaleCapError", "UniversalGraph",
            "lower_bound_instance", "run_universal",
        ),
        "plugin": ("PluginSystem",),
        "systems": (
            "FSystemSpec", "golden_system", "half_system", "trivial_system",
        ),
    }.items()
    for name in names
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    # bound here, so the next read finds it without this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
