"""No floating point reaches a decision: the exactness rule, pinned by parse.

A float-producing construct under ``src/`` is a ``float`` name (a
``float(...)`` call, or ``float`` passed as a type), a float literal, a
``sqrt`` attribute (``math.sqrt``, ``np.sqrt``), or a float dtype, by
attribute (``np.float64``) or by name (``dtype="float64"``,
``.astype("f8")``).  Each one sits in a place that ALLOWED lists: the
diagnostic ``GoldenNumber.__float__``, the float root that
``systems._floor_linear_vec`` corrects to an exact one, and the plugin's
deadlines in seconds, which only time the child (its poll timeouts are
these times a thousand).  Annotations are not code and are not read.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (module, place): a module-level function or assignment target, or
# Class.method
ALLOWED = {
    ("golden", "GoldenNumber.__float__"),
    ("systems", "_floor_linear_vec"),
    ("plugin", "REPLY_DEADLINE_S"),
    ("plugin", "EXIT_DEADLINE_S"),
}

FLOAT_DTYPE_ATTRS = {"float16", "float32", "float64", "float96", "float128",
                     "half", "single", "double", "longdouble", "floating"}


def names_float_dtype(node: ast.expr) -> bool:
    """Whether node is a string that numpy reads as a float dtype."""
    if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
        return False
    try:
        return np.dtype(node.value).kind == "f"
    except TypeError:
        return False


def makes_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Attribute):
        return node.attr == "sqrt" or node.attr in FLOAT_DTYPE_ATTRS
    if isinstance(node, ast.keyword):
        return node.arg == "dtype" and names_float_dtype(node.value)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and any(map(names_float_dtype, node.args)))
    return False


def annotations(tree: ast.AST) -> set[int]:
    """ids of the nodes inside annotations."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
    return {id(sub) for note in notes if note is not None
            for sub in ast.walk(note)}


def places(tree: ast.Module):
    """(place, node) for each function, method and assignment at the top of
    a module, named as ALLOWED names them."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                name = getattr(item, "name", "")
                yield f"{stmt.name}.{name}" if name else stmt.name, item
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        else:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [getattr(stmt, "target", None)])
            yield ",".join(t.id for t in targets
                           if isinstance(t, ast.Name)), stmt


def float_places(module: str, source: str) -> set[tuple[str, str]]:
    tree = ast.parse(source)
    skip = annotations(tree)
    return {(module, place) for place, stmt in places(tree)
            for node in ast.walk(stmt)
            if id(node) not in skip and makes_float(node)}


def test_floats_only_where_allowed():
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        found |= float_places(path.stem, path.read_text(encoding="utf-8"))
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_each_construct_is_found():
    source = """
import math
import numpy as np

HALF = 0.5

def root(x: float) -> float:
    return x

class Rate:
    def ok(self, n: int) -> int:
        return n // 2
    def cast(self, n):
        return float(n)

def roots(x):
    return math.sqrt(x), np.sqrt(x)

def typed(x):
    return x.astype(np.float64)

def named(x):
    return x.astype("f8")

def made():
    return np.zeros(3, dtype="float32")

def passed(xs):
    return list(map(float, xs))
"""
    assert float_places("m", source) == {
        ("m", place) for place in ("HALF", "Rate.cast", "roots", "typed",
                                   "named", "made", "passed")}
