"""Which ``miml`` functions the traced run wraps, and the per-layer metrics
computed from its spans and counters.

Every metric is printed on every workload; a layer the workload does not
run reads 0, and a target missing from the package is listed as absent.
Units and directions live in ``BENCHMARK.json`` only.
"""

import statistics

LEARNERS = ("mimlboost", "mimlsvm", "dmimlsvm", "insdif", "subcod")


def _hausdorff(c, args, kwargs, result):
    bags_a = args[0]
    bags_b = args[1] if len(args) > 1 else kwargs.get("bags_b")
    na = sum(b.size for b in bags_a)
    nb = na if bags_b is None else sum(b.size for b in bags_b)
    c["hausdorff_calls"] += 1
    c["inst_pairs"] += na * nb
    # the float64 instance cross matrix the kernel materializes (computed)
    c["cross_mb_max"] = max(c["cross_mb_max"], 8.0 * na * nb / 1e6)


def _kmedoids(c, args, kwargs, result):
    c["kmedoids_passes"] += len(result.cost_history)


def _smo(c, args, kwargs, result):
    c["smo_calls"] += 1
    c["smo_iters"] += result[2]
    c["smo_rows"] += args[0].shape[0]


def _qp(c, args, kwargs, result):
    c["qp_calls"] += 1
    c["qp_iters"] += result.iterations
    c["qp_vars"] += args[0].c.size


def _rows(M):
    return 0 if M is None else len(M)


def _lp(c, args, kwargs, result):
    p = args[0]
    m_ub, m_eq = _rows(p.h), _rows(p.b)
    c["lp_calls"] += 1
    # constraint rows x (variables + slacks) of the problem as passed,
    # before bounds are folded in (computed)
    c["lp_tableau_cells"] += (m_ub + m_eq) * (p.c.size + m_ub)


def _gram(c, args, kwargs, result):
    c["gram_calls"] += 1
    c["gram_entries"] += result.size


def _parse_dataset(c, args, kwargs, result):
    c["parse_bytes"] += len(args[0].encode("utf-8"))


def _serialize_model(c, args, kwargs, result):
    c["model_count"] += 1
    c["model_bytes"] += len(result.encode("utf-8"))


# (dotted target, layer, counter); a caller's own binding is wrapped
# wherever a module imported the function by name
TARGETS = (
    ("miml.mimlsvm.pairwise_hausdorff", "bagdist.hausdorff", _hausdorff),
    ("miml.insdif.pairwise_hausdorff", "bagdist.hausdorff", _hausdorff),
    ("miml.bagdist.pairwise_hausdorff", "bagdist.hausdorff", _hausdorff),
    ("miml.mimlsvm.k_medoids_from_dists", "bagdist.kmedoids", _kmedoids),
    ("miml.insdif.k_medoids_from_dists", "bagdist.kmedoids", _kmedoids),
    ("miml.solvers.svm.smo_solve", "solvers.smo", _smo),
    ("miml.dmimlsvm.solve_qp", "solvers.qp", _qp),
    ("miml.subcod.solve_qp", "solvers.qp", _qp),
    ("miml.subcod.solve_lp", "solvers.lp", _lp),
    ("miml.solvers.qp.solve_lp", "solvers.lp", _lp),
    ("miml.insdif.lstsq_svd", "solvers.lstsq", None),
    ("miml.kernels.instance_gram", "kernels.gram", _gram),
    ("miml.solvers.svm.instance_gram", "kernels.gram", _gram),
    ("miml.dmimlsvm.build_gram", "kernels.build_gram", None),
    ("miml.dmimlsvm.kernel_against_objects", "kernels.against_objects", None),
    ("miml.subcod.em_fit_gmm", "subcod.em", None),
    ("miml.dataio.parse_dataset", "dataio.parse_dataset", _parse_dataset),
    ("miml.dataio.parse_model", "dataio.parse_model", None),
    ("miml.dataio.serialize_model", "dataio.serialize_model", _serialize_model),
    ("miml.metrics.compute_report", "metrics.report", None),
)


def install(tracer):
    """Wrap every target and the CLI registry's learner entries."""
    from miml import cli

    for target, layer, count in TARGETS:
        tracer.wrap(target, layer, count)
    tracer.wrap_registry(getattr(cli, "REGISTRY", {}), LEARNERS)


def _quantile_ms(values, q):
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_values(tracer, overhead_pct):
    """The value of every traced per-layer metric, by the name under which
    ``BENCHMARK.json`` lists it with its unit."""
    self_s = tracer.self_times()
    c = tracer.counters
    parse_s = self_s.get("dataio.parse_dataset", 0.0)
    values = {
        "bagdist.hausdorff_calls": c["hausdorff_calls"],
        "bagdist.hausdorff_self_s": self_s.get("bagdist.hausdorff", 0.0),
        "bagdist.inst_pairs": c["inst_pairs"],
        "bagdist.cross_mb_max": c["cross_mb_max"],
        "bagdist.kmedoids_self_s": self_s.get("bagdist.kmedoids", 0.0),
        "bagdist.kmedoids_passes": c["kmedoids_passes"],
        "solvers.smo_calls": c["smo_calls"],
        "solvers.smo_self_s": self_s.get("solvers.smo", 0.0),
        "solvers.smo_iters": c["smo_iters"],
        "solvers.smo_rows": c["smo_rows"],
        "solvers.qp_calls": c["qp_calls"],
        "solvers.qp_self_s": self_s.get("solvers.qp", 0.0),
        "solvers.qp_iters": c["qp_iters"],
        "solvers.qp_vars": c["qp_vars"],
        "solvers.qp_failed": c["solvers.qp.failed"],
        "solvers.lp_calls": c["lp_calls"],
        "solvers.lp_self_s": self_s.get("solvers.lp", 0.0),
        "solvers.lp_tableau_cells": c["lp_tableau_cells"],
        "solvers.lp_failed": c["solvers.lp.failed"],
        "solvers.lstsq_self_s": self_s.get("solvers.lstsq", 0.0),
        "kernels.gram_calls": c["gram_calls"],
        "kernels.gram_self_s": self_s.get("kernels.gram", 0.0),
        "kernels.gram_entries": c["gram_entries"],
        "kernels.build_gram_self_s": self_s.get("kernels.build_gram", 0.0),
        "kernels.against_objects_self_s": self_s.get("kernels.against_objects", 0.0),
        "subcod.em_self_s": self_s.get("subcod.em", 0.0),
        "dataio.parse_dataset_s": parse_s,
        "dataio.parse_mb_per_s": c["parse_bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "dataio.parse_model_s": self_s.get("dataio.parse_model", 0.0),
        "dataio.serialize_model_s": self_s.get("dataio.serialize_model", 0.0),
        "dataio.model_mb": (c["model_bytes"] / c["model_count"] / 1e6
                            if c["model_count"] else 0.0),
        "metrics.report_self_s": self_s.get("metrics.report", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    for algo in LEARNERS:
        predict_s = tracer.durations(algo + ".predict")
        values[algo + ".fit_self_s"] = self_s.get(algo + ".fit", 0.0)
        values[algo + ".predict_p50_ms"] = _quantile_ms(predict_s, 50)
        values[algo + ".predict_p99_ms"] = _quantile_ms(predict_s, 99)
    return values
