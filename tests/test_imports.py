"""What each import loads.

The allocator and the phase replay run no numpy code, so ``import
freqalloc`` and the replay path must not load it: the package imports a
module only when one of its names is first read, and the systems module
imports numpy only inside its vector code.  The result records are
``typing.NamedTuple`` classes and the others plain classes, so no module
imports ``dataclasses``, and with it ``inspect``.  Serving requests through
the allocator alone does not load the harness.  The checker, and so the
CLI, load numpy when they are imported.  Each CLI command loads the modules
it runs as it runs: ``verify`` and ``falsify`` on a built-in system load no
plugin runner (nor ``subprocess``), harness or allocator; a plugin system
loads the runner, and ``opt`` the allocator.  Each placement is checked in
a fresh child interpreter, since this process has long loaded everything.

The same parse pins placements of the design: ``cli.main`` is the one
function that maps an exception to an exit code, and it names each class it
maps, in a fixed order; those classes and the doubling scale's text have
one home, ``golden``, which the checker, the harness, the allocator and the
plugin runner share.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import freqalloc

from test_recheck import CHECK_GOLDEN

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freqalloc"

REPLAY = """
import json
import sys
sys.path.insert(0, {src!r})
import freqalloc
from freqalloc import (Allocator, BipartiteInstance, Side, golden_system,
                       half_system, run_universal, trivial_system)

built = [golden_system(), half_system(), trivial_system()]
run_universal(built[0], 8)
a = [f"a{{i}}" for i in range(5)]
b = [f"b{{i}}" for i in range(5)]
edges = [(u, w) for i, u in enumerate(a) for j, w in enumerate(b)
         if (i + j) % 3]
requests = 0
for system in built:
    alloc = Allocator(BipartiteInstance.from_edges(a + b, edges), system,
                      validate="full")
    for i in range(50):
        alloc.request((a + b)[7 * i % 10])
        requests += 1
listed = set(freqalloc.__all__) <= set(dir(freqalloc))
loaded = [m for m in ("numpy", "freqalloc.checker", "freqalloc.plugin",
                      "freqalloc.cli", "dataclasses", "inspect")
          if m in sys.modules]
golden = built[0]
sizes = [int(n) for n in golden.row_sizes(Side.A, 1, 20)]
lengths = [len(golden.sets(Side.A, t, k))
           for t in range(1, 21) for k in range(1, t + 1)]
print(json.dumps({{"requests": requests, "listed": listed, "loaded": loaded,
                  "sizes_match": sizes == lengths,
                  "numpy_after": "numpy" in sys.modules}}))
"""

ALLOCATE = """
import json
import sys
sys.path.insert(0, {src!r})
import freqalloc
bare = sorted(m for m in sys.modules if m.startswith("freqalloc."))
from freqalloc import allocation, systems

a = [f"a{{i}}" for i in range(5)]
b = [f"b{{i}}" for i in range(5)]
edges = [(u, w) for i, u in enumerate(a) for j, w in enumerate(b)
         if (i + j) % 3]
alloc = allocation.Allocator(
    allocation.BipartiteInstance.from_edges(a + b, edges),
    systems.golden_system(), validate="neighbors")
picks = [str(alloc.request((a + b)[7 * i % 10])) for i in range(50)]
print(json.dumps({{"bare": bare, "picks": len(set(picks)),
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith("freqalloc."))}}))
"""

CLI = """
import sys
sys.path.insert(0, {src!r})
from freqalloc import cli
print("numpy" in sys.modules, "freqalloc.checker" in sys.modules)
"""

# runs the command lines of argv 1 through cli.main, each writing its
# --out under argv 2, and lists which of the watched modules are loaded
# after the import and after the calls
COMMANDS = """
import json
import sys
sys.path.insert(0, {src!r})
watched = ("freqalloc.plugin", "freqalloc.harness", "freqalloc.allocation",
           "subprocess", "numpy", "freqalloc.checker")
from freqalloc import cli
imported = [m for m in watched if m in sys.modules]
codes = [cli.main([*argv, "--out", f"{{sys.argv[2]}}/out{{i}}.json"])
         for i, argv in enumerate(json.loads(sys.argv[1]))]
print(json.dumps({{"imported": imported, "codes": codes,
                  "loaded": [m for m in watched if m in sys.modules]}}))
"""


def run_child(template: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", template.format(src=str(ROOT / "src")), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_replay_path_loads_no_numpy():
    out = json.loads(run_child(REPLAY))
    assert out["requests"] == 150
    assert out["listed"]
    assert out["loaded"] == []
    # the vector code still works, and loads numpy when first called
    assert out["sizes_match"]
    assert out["numpy_after"]


def test_allocator_path_loads_no_harness():
    out = json.loads(run_child(ALLOCATE))
    # the bare package import loads no module of its own
    assert out["bare"] == []
    assert out["picks"] > 1
    assert out["loaded"] == ["freqalloc.allocation", "freqalloc.frequencies",
                             "freqalloc.golden", "freqalloc.systems"]


def test_cli_loads_numpy():
    # the check workloads pay for numpy when importing the CLI, not in its
    # first call
    assert run_child(CLI).split() == ["True", "True"]


def run_commands(tmp_path: Path, *argvs: list[str]) -> dict:
    return json.loads(run_child(COMMANDS, json.dumps(argvs), str(tmp_path)))


def test_check_golden_loads_no_runner_harness_or_allocator(tmp_path):
    out = run_commands(tmp_path, *CHECK_GOLDEN.values())
    assert out["codes"] == [0, 1, 0]
    assert out["imported"] == out["loaded"] == ["numpy", "freqalloc.checker"]


def test_plugin_verify_loads_the_runner_only(tmp_path):
    plugin = ROOT / "bench" / "oddeven_plugin.py"
    out = run_commands(tmp_path, ["verify", "--system", f"plugin:{plugin}",
                                  "--r", "2", "--lambda", "0", "--t-max", "10"])
    assert out["codes"] == [0]
    assert out["loaded"] == ["freqalloc.plugin", "subprocess", "numpy",
                             "freqalloc.checker"]


def test_opt_static_loads_the_allocator_only(tmp_path):
    graph, requests = tmp_path / "graph.json", tmp_path / "requests.jsonl"
    graph.write_text(json.dumps({"vertices": [{"id": "u"}, {"id": "v"}],
                                 "edges": [["u", "v"]]}))
    requests.write_text('{"vertex": "u"}\n{"vertex": "v"}\n')
    out = run_commands(tmp_path, ["opt", "static", "--graph", str(graph),
                                  "--requests", str(requests)])
    assert out["codes"] == [0]
    assert out["loaded"] == ["freqalloc.allocation", "numpy",
                             "freqalloc.checker"]


def importers(modules: set[str]) -> set[str]:
    """Modules under src/freqalloc that import one of modules, anywhere in
    their code."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [alias.name for alias in node.names]
            else:
                continue
            if modules & set(names):
                out.add(path.stem)
    return out


def test_only_cli_imports_checker():
    assert importers({"checker", "freqalloc.checker"}) <= {"cli", "__init__"}


def test_no_module_imports_dataclasses():
    assert importers({"dataclasses"}) == set()


def test_only_checker_imports_numpy_at_module_level():
    top = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) and any(
                alias.name == "numpy" for alias in stmt.names
            ):
                top.add(path.stem)
    assert top == {"checker"}


REFUSALS = {"ResourceGuardError", "ScaleCapError", "BudgetExceededError"}


def cli_functions() -> list[ast.FunctionDef]:
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)]


def names_in(node: ast.AST) -> set[str]:
    """Identifiers named under node, as names or attributes."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_only_main_maps_failures_to_exit_codes():
    others = [f for f in cli_functions() if f.name != "main"]
    assert len(others) < len(cli_functions())
    for func in others:
        assert not {"EXIT_INPUT", "EXIT_RESOURCE"} & names_in(func), func.name
        for handler in ast.walk(func):
            if isinstance(handler, ast.ExceptHandler) and handler.type:
                assert not REFUSALS & names_in(handler.type), func.name


def test_doubling_scale_text_defined_in_golden_only():
    homes = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(isinstance(node, ast.FunctionDef)
               and node.name == "doubling_scale_text"
               for node in ast.walk(tree)):
            homes.add(path.stem)
    assert homes == {"golden"}


# main's except clauses in order, each by the names it catches
EXIT_CLAUSES = [["_CliError", "NotBipartiteError"], ["PluginFault"],
                ["AllocationError"],
                ["ResourceGuardError", "BudgetExceededError", "DigitLimitError"]]


def test_main_names_the_classes_it_maps():
    main = next(f for f in cli_functions() if f.name == "main")
    clauses = [[n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)]
               for handler in ast.walk(main)
               if isinstance(handler, ast.ExceptHandler)]
    assert clauses == EXIT_CLAUSES


def test_mapped_classes_have_one_home():
    # defined in golden only; the modules that raise them import them
    from freqalloc import allocation, golden, plugin

    names = [name for clause in EXIT_CLAUSES for name in clause][1:]
    homes = {name: set() for name in names}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in homes:
                homes[node.name].add(path.stem)
    assert homes == {name: {"golden"} for name in names}
    for module, name in [(allocation, "NotBipartiteError"),
                         (allocation, "BudgetExceededError"),
                         (allocation, "AllocationError"),
                         (plugin, "PluginFault")]:
        assert getattr(module, name) is getattr(golden, name)
        assert getattr(freqalloc, name) is getattr(golden, name)


class TestLazyExports:
    def test_same_objects_as_defining_modules(self):
        for name in freqalloc.__all__:
            value = getattr(freqalloc, name)
            home = sys.modules[value.__module__]
            assert getattr(home, name) is value, name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from freqalloc import *", namespace)
        assert set(freqalloc.__all__) <= namespace.keys()

    def test_unknown_attribute(self):
        with pytest.raises(
            AttributeError,
            match=r"^module 'freqalloc' has no attribute 'no_such_name'$",
        ):
            freqalloc.no_such_name

    def test_dir_lists_every_export(self):
        assert set(freqalloc.__all__) <= set(dir(freqalloc))

    def test_named_imports(self):
        from freqalloc import PluginSystem, check_f2
        from freqalloc.checker import check_f2 as checked
        from freqalloc.plugin import PluginSystem as runner

        assert check_f2 is checked
        assert PluginSystem is runner
