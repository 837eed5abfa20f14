"""The names other code resolves on latforms by string: every module's
__all__, and the boundary functions perfbench/tracer.py wraps.  A deleted or
renamed public name otherwise only shows up when the benchmark runs traced."""

import importlib
import importlib.util
import pathlib

import pytest

MODULES = ("numerics", "model", "exponents", "criteria", "minkowski",
           "corpus", "cli")
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"latforms.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_tracer_boundaries_resolve():
    missing = []
    for modname, path, _group in _boundaries():
        mod = importlib.import_module(f"latforms.{modname}")
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(mod, path, None))
        if not found:
            missing.append(f"{modname}.{path}")
    assert missing == []
