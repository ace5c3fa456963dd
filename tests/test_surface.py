"""The public surface: each module's __all__ is the one name list, and every name in it has a user."""
import ast
import importlib
import re
from pathlib import Path

import ordercones

PACKAGE_DIR = Path(ordercones.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
REEXPORTED = ("errors", "poset", "isotone_cone", "hermitian", "m2", "duality", "gps")


def _modules():
    return [p.stem for p in sorted(PACKAGE_DIR.glob("*.py")) if p.stem != "__init__"]


def _uses():
    """Each Name and Attribute in the package's modules, mapped to the (module, top-level definition) pairs it sits in."""
    uses = {}
    for module in _modules():
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    uses.setdefault(node.id if isinstance(node, ast.Name) else node.attr, set()).add((module, owner))
    return uses


def test_every_public_name_is_used_in_the_package_or_named_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    uses = _uses()
    unused = []
    for module in _modules():
        for name in getattr(importlib.import_module(f"ordercones.{module}"), "__all__", ()):
            # a use inside the name's own definition (recursion, a class naming itself) does not count
            used = any(site != (module, name) for site in uses.get(name, ()))
            if not used and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(f"{module}.{name}")
    assert unused == []


def test_package_all_is_the_modules_all_lists():
    want = []
    for module in REEXPORTED:
        mod = importlib.import_module(f"ordercones.{module}")
        want += mod.__all__
        assert all(getattr(ordercones, name) is getattr(mod, name) for name in mod.__all__)
    assert ordercones.__all__ == want
    assert len(set(want)) == len(want)
