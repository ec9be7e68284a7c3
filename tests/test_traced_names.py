"""The names perfbench's tracer looks up in depthflow still resolve.

perfbench/tracer.py wraps the functions listed in its ``TRACED`` table by
module and name, and its self-test reads three of them from modules that
only import them. A rename or move in the package breaks every traced
benchmark run; this test catches it in the unit suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _ in TRACED],
                         ids=[f"{m}.{f}" for m, f, _ in TRACED])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"depthflow.{module}"),
                            name))


@pytest.mark.parametrize("module, name, home", [
    ("sde", "_freeze_diverged", "resnet"),
    ("sde", "_batched_psd_factor", "resnet"),
    ("laws", "make_rng", "config"),
])
def test_self_test_names_are_the_traced_functions(module, name, home):
    # the tracer rebinds every module's reference to the traced function,
    # so these must be the same object, not a copy
    got = getattr(importlib.import_module(f"depthflow.{module}"), name)
    assert got is getattr(importlib.import_module(f"depthflow.{home}"), name)


@pytest.mark.parametrize("module, name, args", [
    ("resnet", "_freeze_diverged", {"diverged"}),
    ("experiments", "write_csv", {"rows"}),
    ("experiments", "_abc_outputs", {"select", "n_draws"}),
], ids=["resnet._freeze_diverged", "experiments.write_csv",
        "experiments._abc_outputs"])
def test_counted_arguments_bind(module, name, args):
    # the tracer's counters read these arguments by name
    fn = getattr(importlib.import_module(f"depthflow.{module}"), name)
    assert args <= set(inspect.signature(fn).parameters)
