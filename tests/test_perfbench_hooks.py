"""The traced benchmark run wraps package functions by name from outside
the package (``perfbench/layers.py``); every name it wraps must exist, or
the traced run silently loses that layer."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# wraps of the removed LP solver and of the former QP calls of D-MimlSvm and
# SubCod, which perfbench/layers.py lists until the benchmark's next change
_REMOVED = ["miml.dmimlsvm.solve_qp", "miml.subcod.solve_qp", "miml.subcod.solve_lp",
            "miml.solvers.qp.solve_lp"]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_present():
    spans, layers = _load("spans"), _load("layers")
    tracer = spans.Tracer("hooks")
    try:
        layers.install(tracer)
        assert tracer.absent == _REMOVED
    finally:
        tracer.restore()
