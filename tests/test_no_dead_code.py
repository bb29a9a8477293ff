"""Every function, method and class defined in the package is named
somewhere: in src, tests or perfbench, as a name, an attribute, an import,
a keyword argument or a dotted string (the benchmark's tracer names the
layers it wraps by string, as "TransferFactorEngine.delta_i").  Dunder
methods, which Python calls by protocol, are left aside."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "endotransfer"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _named(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _defined(path, tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_package_definition_is_named():
    named = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        named |= _named(tree)
    unnamed = [
        f"{where} {name}"
        for path, tree in _trees(PACKAGE)
        for name, where in _defined(path, tree)
        if name not in named
    ]
    assert not unnamed, "defined but never named:\n" + "\n".join(unnamed)
