"""Names the docs quote must still be names in the code.

A docstring or README note that names a function, class or parameter by
its identifier goes stale silently when the code is renamed or removed.
This checks every quoted identifier that contains ``_``: those in double
backticks in ``src/nambu3/*.py``, written ``name`` or ``name(...)``, and
those in single backticks in ``README.md``.  Each part of a dotted name
that contains ``_`` must be a module attribute, a class attribute or a
function parameter of some ``nambu3`` module.
"""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import nambu3

ROOT = Path(__file__).resolve().parents[1]
_IN_SOURCE = re.compile(r"``(\w+(?:\.\w+)*)(?:\([^`]*\))?``")
_IN_README = re.compile(r"`(\w+(?:\.\w+)*)(?:\([^`]*\))?`")


def _parameters(obj) -> set:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def _known_names() -> set:
    modules = [nambu3] + [importlib.import_module(f"nambu3.{info.name}")
                          for info in pkgutil.iter_modules(nambu3.__path__)]
    known = set()
    for module in modules:
        for name, obj in vars(module).items():
            known.add(name)
            # parameters only of what the package defines itself
            if not (getattr(obj, "__module__", None) or "").startswith(
                    "nambu3"):
                continue
            if inspect.isclass(obj):
                for attr in dir(obj):
                    known.add(attr)
                    known |= _parameters(getattr(obj, attr, None))
            else:
                known |= _parameters(obj)
    return known


def _quoted(pattern, text: str):
    for match in pattern.finditer(text):
        yield from (part for part in match[1].split(".") if "_" in part)


def test_every_quoted_name_resolves():
    known = _known_names()
    sources = [(path, _IN_SOURCE)
               for path in sorted((ROOT / "src" / "nambu3").glob("*.py"))]
    sources.append((ROOT / "README.md", _IN_README))
    stale = [f"{path.name}: {name}" for path, pattern in sources
             for name in _quoted(pattern, path.read_text(encoding="utf-8"))
             if name not in known]
    assert stale == []
