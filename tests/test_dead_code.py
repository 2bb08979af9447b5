"""Every module-level name and every method of the package is used by the
program or exported.

A module-level function, class or assignment under ``src/freqalloc`` must be
named in the code of another top-level statement under ``src/`` or
``bench/``, or be listed in ``freqalloc.__all__``.  A method of a class
under ``src/freqalloc`` must be read as an attribute by code under ``src/``
or ``bench/``, and so must a private attribute that a method stores on
``self``.  A record field there with a default, an option its callers may
leave out, must be passed by keyword to its class somewhere under ``src/``
or ``bench/``: such a field is a class-body field with a value in a
``NamedTuple`` class, or else a parameter of a class's ``__init__`` that
has a default and that the ``__init__`` stores as ``self.<parameter>``.
Only code counts: docstrings and comments are not parsed as names, and an import
alone does not use what it imports.  Dunders are exempt, as is the
console-script entry point that ``pyproject.toml`` names.  A module-level
import under ``src/freqalloc`` must be read by code in its own module,
unless ``freqalloc.__all__`` lists its name or its line carries
``# noqa: F401``.  And every name ``freqalloc.__all__`` exports must be read
by code under ``src/`` or ``bench/`` outside its own definition and the
package's export table, or be named in README.md: an export that neither
the program nor its documentation mentions is an alias or a dead end.
"""

import ast
import re
from pathlib import Path

import freqalloc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freqalloc"


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
        ]
    return []


def read_names(stmt: ast.stmt) -> set[str]:
    """Identifiers the statement's code reads, as names or attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def entry_points() -> set[str]:
    """Function names of the ``[project.scripts]`` table's "module:function"
    targets."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.partition("[project.scripts]")[2].partition("\n[")[0]
    return set(re.findall(r':(\w+)"', table))


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def parsed_modules() -> list[tuple[Path, ast.Module]]:
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in paths
    ]


def unused_names() -> list[str]:
    statements = []  # (module path, statement)
    for path, tree in parsed_modules():
        statements.extend((path, stmt) for stmt in tree.body)
    reads = [read_names(stmt) for _, stmt in statements]
    exempt = set(freqalloc.__all__) | entry_points()
    unused = []
    for i, (path, stmt) in enumerate(statements):
        if path.parent != PACKAGE:
            continue
        for name in defined_names(stmt):
            if is_dunder(name) or name in exempt:
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_module_level_name_is_used():
    assert unused_names() == []


def attributes_read(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def uncalled_methods() -> list[str]:
    """Methods of the package's classes that no code reads as an attribute."""
    read = set()
    methods = []  # module.Class.method
    for path, tree in parsed_modules():
        read |= attributes_read(tree)
        if path.parent != PACKAGE:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods.extend(
                (f"{path.stem}.{cls.name}.{stmt.name}", stmt.name)
                for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not is_dunder(stmt.name)
            )
    return [where for where, name in methods if name not in read]


def test_every_method_is_called():
    assert uncalled_methods() == []


def defaulted_fields(cls: ast.ClassDef) -> list[str]:
    """The record's optional fields: in a ``NamedTuple`` class, the annotated
    fields of its body that have a value; in any other class, the parameters
    of its ``__init__`` that have a default and that it stores as
    ``self.<parameter>``."""
    if any(callee_name(base) == "NamedTuple" for base in cls.bases):
        return [stmt.target.id for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.value is not None]
    init = next((stmt for stmt in cls.body
                 if isinstance(stmt, ast.FunctionDef)
                 and stmt.name == "__init__"), None)
    if init is None:
        return []
    args = init.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    stored = {
        node.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    return [arg.arg for arg in defaulted if arg.arg in stored]


def callee_name(func: ast.expr) -> str:
    """The last name of ``f`` or ``module.f``."""
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def unpassed_defaults() -> list[str]:
    """Record fields with a default that no call of their class under
    ``src/`` or ``bench/`` passes by keyword."""
    passed = set()  # (class name, keyword)
    fields = []  # (module.Class.field, class name, field)
    for path, tree in parsed_modules():
        passed |= {
            (callee_name(node.func), kw.arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
        }
        if path.parent != PACKAGE:
            continue
        fields.extend(
            (f"{path.stem}.{cls.name}.{name}", cls.name, name)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for name in defaulted_fields(cls)
        )
    return [where for where, cls, name in fields if (cls, name) not in passed]


def test_every_field_default_is_overridden():
    assert unpassed_defaults() == []


def stored_private_attributes(tree: ast.Module) -> set[str]:
    """Private names stored as ``self.<name> = ...`` (plain, annotated or
    augmented) anywhere in the module."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
        and not is_dunder(node.attr)
    }


def unread_private_attributes() -> list[str]:
    """Private attributes stored on ``self`` under ``src/freqalloc`` that no
    code under ``src/`` or ``bench/`` reads as an attribute."""
    read = set()
    stored = []  # (module.attribute, attribute)
    for path, tree in parsed_modules():
        read |= attributes_read(tree)
        if path.parent == PACKAGE:
            stored.extend((f"{path.stem}.{name}", name)
                          for name in sorted(stored_private_attributes(tree)))
    return [where for where, name in stored if name not in read]


def test_every_private_attribute_is_read():
    assert unread_private_attributes() == []


def imported_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level import binds; ``__future__`` binds none."""
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.partition(".")[0]
                for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def unread_imports() -> list[str]:
    """Module-level imports under ``src/freqalloc`` that no code in their
    module reads, less the package's re-exports and ``# noqa: F401``
    lines."""
    exempt = set(freqalloc.__all__)
    unread = []
    for path, tree in parsed_modules():
        if path.parent != PACKAGE:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread.extend(
            f"{path.stem}.{name}"
            for stmt in tree.body
            if "# noqa: F401" not in lines[stmt.lineno - 1]
            for name in imported_names(stmt)
            if name not in read and name not in exempt
        )
    return unread


def test_every_import_is_read():
    assert unread_imports() == []


def unmentioned_exports() -> list[str]:
    """Names of ``freqalloc.__all__`` that no code under ``src/`` or
    ``bench/`` reads, outside their defining statement and ``__init__``,
    and that README.md does not name."""
    reads = set()
    for path, tree in parsed_modules():
        if path == PACKAGE / "__init__.py":
            continue
        for stmt in tree.body:
            # a definition's own body does not use the name it defines
            reads |= read_names(stmt) - set(defined_names(stmt))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [name for name in freqalloc.__all__
            if name not in reads and not re.search(rf"\b{name}\b", readme)]


def test_every_export_is_used_or_documented():
    assert unmentioned_exports() == []
