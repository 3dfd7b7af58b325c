"""Every public function of awwlab is used somewhere outside its own module."""

import importlib
import pathlib
import pkgutil
import re

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
