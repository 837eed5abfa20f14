"""The names other code resolves on latforms by string: every module's
__all__, and the boundary functions perfbench/tracer.py wraps; and the
BallReal fields perfbench reads.  A deleted or renamed public name, or a
field that stops being a Fraction, otherwise only shows up when the
benchmark runs."""

import importlib
import importlib.util
import pathlib

from fractions import Fraction

import pytest

MODULES = ("numerics", "model", "exponents", "criteria", "minkowski",
           "corpus", "cli")
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _boundaries():
    return _tracer().BOUNDARIES


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


def test_tracer_ring_names_are_ballreal_attributes():
    from latforms.numerics import BallReal
    assert [a for a in _tracer()._RING if a not in vars(BallReal)] == []


def test_ballreal_fields_perfbench_reads():
    """perfbench/workloads.interval and make_reference.py read these."""
    from latforms.numerics import BallReal, parse_real
    balls = [BallReal.exact(3, 64), BallReal.exact(Fraction(1, 3), 96),
             parse_real("golden", 128).at(128), BallReal.exact(0, 16)]
    for ball in balls:
        for name in ("mid", "rad", "lower", "upper"):
            assert type(getattr(ball, name)) is Fraction, name
        assert type(ball.prec) is int
