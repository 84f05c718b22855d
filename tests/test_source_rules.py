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
