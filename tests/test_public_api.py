"""Every public function of awwlab, and every public method or property of
its exported classes, is used somewhere outside its own module, the
package imports nothing beyond the stdlib, numpy and scipy, and README's
key table lists the config keys."""

import ast
import functools
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import awwlab
from awwlab.config import KNOWN_KEYS

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLERS = ("src", "demos", "bench")    # tests do not count as callers

# Public functions and methods that only tests call and that stay: the
# acceptance battery's references, parse_config, the text entry of
# load_config, and EigenFrame.projections, which tests/test_acceptance.py reads.
TEST_ONLY = ("residue_integral", "semigroup_time_independent", "parse_config",
             "EigenFrame.projections")


def traced_methods():
    """The qualified methods "Class.method" that bench/spans.py's
    TRACED_METHODS table wraps by name."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["TRACED_METHODS"])
    return {f"{cls}.{meth}" for _, cls, meth, _ in ast.literal_eval(table)}


def public_surface(mod):
    """(qualified name, pattern of a use) for each public function of `mod`
    and each public method or property of the classes it exports; a method
    counts as used when it is called, a property when it is read as an
    attribute, and either when it is named as the name argument of getattr,
    setattr or monkeypatch.setattr. Any other string, a same-named dict key
    say, does not count; a method that the tracer wraps by name is used
    through traced_methods()."""
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if not isinstance(obj, type):
            if callable(obj):
                yield name, rf"\b{re.escape(name)}\b"
            continue
        for attr, member in vars(obj).items():
            if attr.startswith("_"):
                continue
            named = rf"\b[gs]etattr\([^,]+,\s*[\"']{attr}[\"']"
            if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                yield f"{name}.{attr}", rf"\.{attr}\(|{named}"
            elif isinstance(member, (property, functools.cached_property)):
                yield f"{name}.{attr}", rf"\.{attr}\b|{named}"


def test_every_public_function_is_referenced_outside_its_module():
    sources = {path.resolve(): path.read_text()
               for top in CALLERS for path in (ROOT / top).rglob("*.py")}
    used = set(TEST_ONLY) | traced_methods()
    unused = []
    for info in pkgutil.iter_modules(awwlab.__path__):
        mod = importlib.import_module(f"awwlab.{info.name}")
        own = pathlib.Path(mod.__file__).resolve()
        for name, pattern in public_surface(mod):
            word = re.compile(pattern)
            if name not in used and not any(
                    word.search(text) for path, text in sources.items() if path != own):
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


def test_a_run_loads_neither_scipy_interpolate_nor_scipy_integrate(tmp_path):
    # the package reads only scipy.linalg and scipy.special: its spline,
    # Simpson rule and DOP853 coefficients are its own, and the heavy
    # subpackages (and what they pull in) would add about 22 MiB to every
    # process; a bath table alone imports scipy.interpolate, lazily. What
    # scipy.linalg and scipy.special load themselves varies with the scipy
    # version (older releases, 1.13 among them, import scipy.sparse from
    # scipy.linalg), so the run is held only to the modules those two leave out.
    code = (
        "import sys, scipy.linalg, scipy.special\n"
        "before = set(sys.modules)\n"
        "import awwlab\n"
        "from awwlab import config, harness\n"
        "cfg = config.parse_config('atom.name = ww-ref-2level\\nbath.name = reference\\n'\n"
        "                          'sim.eps = 0.1\\nsim.lambda2 = 0.01\\n')\n"
        "harness.run_simulate(cfg, sys.argv[1])\n"
        "heavy = ('interpolate', 'integrate', 'optimize', 'sparse', 'spatial')\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'scipy'\n"
        "             and m.split('.')[1:2] and m.split('.')[1] in heavy))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
    assert (tmp_path / "comparison.csv").exists()


def test_readme_key_table_lists_the_known_keys_in_order():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| key | default | allowed |"):].split("\n\n", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert keys == list(KNOWN_KEYS)
