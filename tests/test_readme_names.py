"""README.md names the code it describes in backticks.  Every backticked
dotted name that starts with the package, one of its modules or one of its
classes (`distributions.d_gh`, `PairTable.g_law`, ...) must resolve to an
attribute, so that a removal cannot leave the README naming what is gone.
Metric names of BENCHMARK.json, such as `cli.import_s`, share the dotted
form and are left aside."""

import ast
import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "endotransfer"
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _metrics() -> set[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]}


def _heads() -> dict[str, object]:
    """The package, each module by its name, and each class the package
    defines, by its name, in the module that defines it."""
    heads = {"endotransfer": importlib.import_module("endotransfer")}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"endotransfer.{path.stem}")
        heads[path.stem] = module
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                heads[node.name] = getattr(module, node.name)
    return heads


def _resolves(obj, attrs) -> bool:
    """Whether getattr walks from obj along attrs."""
    for attr in attrs:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return False
    return True


def test_readme_code_names_resolve():
    heads, metrics = _heads(), _metrics()
    names = {
        name
        for name in NAME.findall((ROOT / "README.md").read_text(encoding="utf-8"))
        if name.split(".")[0] in heads and name not in metrics
    }
    assert len(names) > 20
    unresolved = []
    for name in sorted(names):
        head, *attrs = name.split(".")
        if not _resolves(heads[head], attrs):
            unresolved.append(name)
    assert unresolved == []
