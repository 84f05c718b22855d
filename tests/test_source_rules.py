"""Rules checked on the package source and the README, not on behaviour."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "knapreduce"

INEXACT_CALLS = {"float", "sqrt", "log", "exp", "random"}
# generators.py draws its three sign and class coin flips as
# rng.random() < 0.5; they shape instances and decide no guarantee
FLOAT_EXEMPT = {"generators.py"}

# Draws that approx.py makes only through its getrandbits rejection sampler
SAMPLER_CALLS = {"randrange", "randint", "choice", "shuffle", "sample"}

CAP_ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([0-9,]+) \|", re.MULTILINE)
UNCAPPED_BOUNDS = {"ROW_SLICE", "ROUNDING_TRIALS"}


def modules():
    return sorted(PACKAGE.glob("*.py"))


def called_names(path):
    """(line, name) of each call in path, by its function's name or attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            yield node.lineno, getattr(func, "id", None) or getattr(func, "attr", None)


def float_uses(path):
    """(line, what) for each float literal and inexact call in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
    found += [(line, f"call {name}") for line, name in called_names(path) if name in INEXACT_CALLS]
    return found


def test_no_floating_point_in_the_package():
    checked = [path for path in modules() if path.name not in FLOAT_EXEMPT]
    assert len(checked) >= 10
    found = {path.name: float_uses(path) for path in checked}
    assert not any(found.values()), {name: uses for name, uses in found.items() if uses}
    # the exemption is still needed, and covers only the coin flips
    coin_flips = float_uses(PACKAGE / "generators.py")
    assert sorted(what for _, what in coin_flips) == ["call random"] * 3 + ["literal 0.5"] * 3


def test_approx_draws_only_through_getrandbits():
    calls = list(called_names(PACKAGE / "approx.py"))
    assert any(name == "getrandbits" for _, name in calls)
    assert [(line, name) for line, name in calls if name in SAMPLER_CALLS] == []


def module_bounds():
    """(module, NAME) of every module-level *_CAP constant and the other bounds."""
    bounds = set()
    for path in modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = getattr(target, "id", "")
                    if name.endswith("_CAP") or name in UNCAPPED_BOUNDS:
                        bounds.add((path.stem, name))
    return bounds


def test_readme_caps_table_matches_the_code():
    rows = CAP_ROW.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    listed = {(module, name) for module, name, _ in rows}
    assert len(listed) == len(rows)
    for module, name, value in rows:
        actual = getattr(importlib.import_module(f"knapreduce.{module}"), name)
        assert int(value.replace(",", "")) == actual, (module, name, value)
    assert module_bounds() == listed


# Every module-level dict, list or set of the package, with the reason it
# may live as long as the process.  A cache added without a cap, such as
# truth tables keyed by clause set, is not on the list and fails below.
MODULE_CONTAINERS = {
    ("cli", "VK_CLASSES"): "dispatch table of gen vk --vk-class, fixed at import",
    ("cli", "GEN"): "dispatch table of gen's instance kinds, fixed at import",
    ("cli", "REDUCE"): "dispatch table of reduce's routes, fixed at import",
    ("cli", "SOLVE"): "dispatch table of solve's methods, fixed at import",
    ("serialize", "_WRITERS"): "dispatch table of the document writers, fixed at import",
    ("verify", "SUITES"): "the verify suites and their default counts, fixed at import",
    ("discretize", "_tables"): "floor-table cache, evicted at TABLE_COUNT_CAP entries",
}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def module_containers(source):
    """Names bound to a dict, list or set at the top level of source."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            func = value.func if isinstance(value, ast.Call) else None
            if isinstance(value, CONTAINER_NODES) or (
                    getattr(func, "id", None) or getattr(func, "attr", None)) in CONTAINER_CALLS:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {target.id for target in targets if isinstance(target, ast.Name)}
    return found


def cache_uses(source):
    """(line, name) of each functools cache that source imports, names or
    applies as a decorator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in CACHE_DECORATORS]
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                if getattr(decorator, "id", None) in CACHE_DECORATORS:
                    found.append((decorator.lineno, decorator.id))
    return found


def test_module_level_state_is_allowlisted_and_uncached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in modules()}
    found = {(module, name) for module, source in sources.items()
             for name in module_containers(source)}
    assert found == set(MODULE_CONTAINERS)
    assert {module: cache_uses(source) for module, source in sources.items()
            if cache_uses(source)} == {}
    # the one cache is bounded by a cap that the caps table lists
    assert ("discretize", "TABLE_COUNT_CAP") in module_bounds()


def test_module_state_rule_catches_an_uncapped_cache():
    source = ("import functools\nfrom functools import lru_cache\n_codes: dict = {}\n"
              "SEEN = set()\n@functools.cache\ndef f(x):\n    return x\n"
              "@lru_cache(maxsize=None)\ndef g(x):\n    return x\n")
    assert module_containers(source) == {"_codes", "SEEN"}
    assert sorted(cache_uses(source)) == [(2, "lru_cache"), (5, "cache"), (8, "lru_cache")]


def unreferenced_private_functions(sources):
    """(module, name) of each module-level function named _x that no code in
    sources, by name or attribute, uses outside the function's own body."""
    defined, used = set(), set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(node.name)
                if node.name.startswith("_"):
                    defined.add((module, node.name))
            used |= names
    return {(module, name) for module, name in defined if name not in used}


def test_private_functions_are_used_by_the_package():
    # a private helper that only tests call is a second path to keep in step
    sources = {path.stem: path.read_text(encoding="utf-8") for path in modules()}
    assert unreferenced_private_functions(sources) == set()


def test_private_function_rule_catches_a_test_only_helper():
    sources = {
        "a": ("def _only_itself(n):\n    return _only_itself(n - 1) if n else 0\n"
              "def _called(x):\n    return x\ndef _by_attribute():\n    return 1\n"
              "def public():\n    return _called(2)\n"),
        "b": "import a\nVALUE = a._by_attribute()\n",
    }
    assert unreferenced_private_functions(sources) == {("a", "_only_itself")}


def unused_imports(source):
    """(line, name) of each name that source imports and never names again;
    __future__ imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (alias.asname or alias.name).partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_package_imports_only_what_it_uses():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules()}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_unused_import_rule_catches_a_dead_import():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from itertools import chain, repeat\nfrom .errors import CapExceededError\n"
              "def f(xs) -> CapExceededError:\n    return list(chain(xs, os.sep))\n")
    assert unused_imports(source) == [(3, "regex"), (4, "repeat")]
