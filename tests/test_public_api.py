"""Every public function of awwlab is used somewhere outside its own module,
and the package imports nothing beyond the stdlib, numpy and scipy."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

import awwlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "bench")


def test_every_public_function_is_referenced_outside_its_module():
    sources = {path.resolve(): path.read_text()
               for top in SEARCHED for path in (ROOT / top).rglob("*.py")}
    unused = []
    for info in pkgutil.iter_modules(awwlab.__path__):
        mod = importlib.import_module(f"awwlab.{info.name}")
        own = pathlib.Path(mod.__file__).resolve()
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if not callable(obj) or isinstance(obj, type):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in sources.items() if path != own):
                unused.append(f"{info.name}.{name}")
    assert unused == []


def test_runtime_dependencies_are_numpy_and_scipy_at_their_floors():
    # numpy 2.0 first ships np.trapezoid (bath.py), and scipy 1.13
    # is the first scipy release whose wheels accept numpy 2.
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([^"]+)"', block) == ["numpy>=2.0", "scipy>=1.13"]
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "awwlab"}
    foreign = []
    for path in sorted((ROOT / "src" / "awwlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
