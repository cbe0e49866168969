"""The layer tracer in ``perfbench/tracer.py`` wraps package names by string.

A name it lists that the package no longer defines only breaks a traced
benchmark run, so this checks every listed name against the package.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _tracer()
    missing = []
    for layer, owners in tracer.WRAPPED.items():
        module = importlib.import_module(f"nambu3.{layer}")
        for owner_name, names in owners.items():
            owner = getattr(module, owner_name) if owner_name else module
            missing += [f"{layer}:{owner_name}.{name}" for name in names
                        if name not in vars(owner)]
    for layer, attr in tracer.CACHES:
        cache = getattr(importlib.import_module(f"nambu3.{layer}"), attr, None)
        if not hasattr(cache, "cache_info"):
            missing.append(f"{layer}:{attr}")
    assert missing == []
