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


def test_hausdorff_counter_counts_instance_pairs(monkeypatch):
    """The counter sums ``b.size`` over each argument, so each must iterate
    as bags: a bare instance matrix would count d per row."""
    from collections import Counter

    from miml import bench, mimlsvm

    calls = []
    real = mimlsvm.pairwise_hausdorff

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    ds, _ = bench.generate(bench.SynthSpec(T=3, d=4, m=30, n_min=2, n_max=5, seed=2))
    model = mimlsvm.fit(ds, mimlsvm.MimlSvmConfig(C=1.0, seed=0))
    monkeypatch.setattr(mimlsvm, "pairwise_hausdorff", recording)
    bags = ds.bags()[5:25]
    mimlsvm.predict_many(model, bags)
    (args, kwargs), = calls
    counters = Counter()
    _load("layers")._hausdorff(counters, args, kwargs, None)
    assert counters["hausdorff_calls"] == 1
    assert counters["inst_pairs"] == bags.X.shape[0] * model.medoids.X.shape[0]
    assert bags.X.shape[0] != 4 * len(bags)
