"""Command-line entry point: synth, train, eval, cv.

Config keys by learner (flat key=value files):

  mimlboost   boost.rounds (25), boost.c_cap (10), boost.base (svm|stump),
              boost.C (1.0), boost.gamma, boost.stop_rule (text|table), boost.seed
  mimlsvm     mimlsvm.k_fraction (0.2), mimlsvm.k, mimlsvm.C (hold-out when
              unset), mimlsvm.gamma, mimlsvm.seed
  dmimlsvm    dmiml.lambda (0.2), dmiml.mu (0.1), dmiml.gamma (100),
              dmiml.eps (1e-4), dmiml.p (59), dmiml.cccp_iters (20),
              dmiml.cccp_tol (1e-6), dmiml.imbalance (false), dmiml.seed,
              dmiml.kernel (rbf|linear), dmiml.kernel_gamma
  insdif      insdif.m_fraction (0.2), insdif.M, insdif.seed,
              insdif.fallback (false)
  subcod      subcod.M, subcod.theta, subcod.C (1.0), subcod.seed,
              subcod.inner_k, subcod.inner_C, subcod.em_iters, subcod.em_tol

eval and cv score bags only through ``predict_blocks``: one call of the
learner's batch scorer ``(model, bags) -> LabelScores block`` per block of
at most ``EVAL_BLOCK`` = 256 bags, each block a ``Bags`` view of the
dataset's stacked instances (no copy), so memory stays bounded by the
block, and the metrics take the list of blocks.  For cv, ``make_fit_predict``
gives ``bench.random_split_eval`` a ``fit_predict(train_ds, run_seed)`` that
returns ``predict_blocks`` bound to the fitted model, ``Bags -> [LabelScores]``.

A key under the learner's own prefix that names no setting, or a key with
no learner prefix, is a data error; keys under another learner's prefix are
ignored, so one file can configure several learners.  The synth spec keys
are the fields of bench.SynthSpec, and an unknown one is a data error too.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List

from . import bench, dataio, dmimlsvm, insdif, metrics, mimlboost, mimlsvm, subcod
from .core import Bags, MimlDataset
from .solvers import SolverError


# query bags per batch-scorer call
EVAL_BLOCK = 256


@dataclass(frozen=True)
class LearnerEntry:
    config_cls: type
    model_cls: type         # to_payload() / from_payload(p) for model files
    prefix: str             # config keys are <prefix>.<field>
    fit: Callable
    predict: Callable       # batch scorer: (model, bags) -> LabelScores block

    @property
    def seed_key(self) -> str:
        return f"{self.prefix}.seed"

    def config(self, cfg_map: Dict[str, str]):
        """The learner's config from flat keys; keys under another learner's
        prefix are skipped, any other unknown key is a ValueError."""
        others = {e.prefix for e in REGISTRY.values()} - {self.prefix}
        return dataio.config_dataclass(self.config_cls, cfg_map, self.prefix, others)


REGISTRY: Dict[str, LearnerEntry] = {
    "mimlboost": LearnerEntry(mimlboost.BoostConfig, mimlboost.BoostModel, "boost",
                              mimlboost.fit, mimlboost.predict_many),
    "mimlsvm": LearnerEntry(mimlsvm.MimlSvmConfig, mimlsvm.MimlSvmModel, "mimlsvm",
                            mimlsvm.fit, mimlsvm.predict_many),
    "dmimlsvm": LearnerEntry(dmimlsvm.DMimlConfig, dmimlsvm.DMimlSvmModel, "dmiml",
                             dmimlsvm.fit, dmimlsvm.predict_many),
    "insdif": LearnerEntry(insdif.InsDifConfig, insdif.InsDifModel, "insdif",
                           insdif.fit, insdif.predict_many),
    "subcod": LearnerEntry(subcod.SubCodConfig, subcod.SubCodModel, "subcod",
                           subcod.fit, subcod.predict_many),
}


def fit_with_config(algo: str, ds: MimlDataset, cfg_map: Dict[str, str]):
    """Fit ``algo`` under the config parsed from ``cfg_map``; returns
    (model, config)."""
    entry = REGISTRY[algo]
    cfg = entry.config(cfg_map)
    return entry.fit(ds, cfg), cfg


def predict_blocks(algo: str, model, bags: Bags) -> List[metrics.LabelScores]:
    """The ``LabelScores`` blocks of ``bags`` in order, one ``REGISTRY[algo].predict``
    call per block of at most ``EVAL_BLOCK`` bags, each a view of ``bags``."""
    predict = REGISTRY[algo].predict
    return [predict(model, bags[start:start + EVAL_BLOCK])
            for start in range(0, len(bags), EVAL_BLOCK)]


def make_fit_predict(algo: str, cfg_map: Dict[str, str]):
    """``fit_predict(train_ds, run_seed)`` for bench.random_split_eval: fits
    ``algo`` (``run_seed`` is its seed unless ``cfg_map`` sets one) and
    returns the batch scorer ``bags -> [LabelScores]`` of the fitted model."""
    seed_key = REGISTRY[algo].seed_key

    def fit_predict(train_ds, run_seed):
        model, _ = fit_with_config(algo, train_ds, {seed_key: str(run_seed), **cfg_map})
        return functools.partial(predict_blocks, algo, model)

    return fit_predict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of every ``run`` call, built at the first."""
    parser = _Parser(prog="miml", description="MIML learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="key=value generator spec")
    p_synth.add_argument("--out", required=True)

    p_train = sub.add_parser("train", help="fit a learner and save the model")
    p_train.add_argument("--algo", required=True, choices=sorted(REGISTRY))
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--model", required=True)
    p_train.add_argument("--config", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)

    p_cv = sub.add_parser("cv", help="repeated random-split evaluation")
    p_cv.add_argument("--algo", required=True, choices=sorted(REGISTRY))
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--runs", type=int, default=30)
    p_cv.add_argument("--train-frac", type=float, default=0.75)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--config", default=None)
    p_cv.add_argument("--against", choices=sorted(REGISTRY), default=None)
    p_cv.add_argument("--against-config", default=None)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_config(path) -> Dict[str, str]:
    return dataio.parse_config(_read(path)) if path else {}


def _print_report_table(report: metrics.MetricReport, out):
    headers = metrics.MetricReport.HEADERS
    vals = [f"{v:.3f}" for v in report.values()]
    widths = [max(len(h), len(v)) for h, v in zip(headers, vals)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)), file=out)
    print("  ".join(v.ljust(w) for v, w in zip(vals, widths)), file=out)
    for h, v in zip(headers, report.values()):
        print(f"{h}={v!r}", file=out)


def _cmd_synth(args, out) -> int:
    spec = dataio.config_dataclass(bench.SynthSpec, dataio.parse_config(_read(args.spec)))
    ds, _ = bench.generate(spec)
    text = dataio.serialize_dataset(ds)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {ds.m} examples (T={ds.T}, d={ds.d}) to {args.out}", file=out)
    return 0


def _cmd_train(args, out) -> int:
    ds = dataio.parse_dataset(_read(args.data))
    cfg_map = _load_config(args.config)
    model, cfg = fit_with_config(args.algo, ds, cfg_map)
    env = dataio.ModelEnvelope(
        algorithm=args.algo,
        hyper=dataclasses.asdict(cfg),
        payload=model.to_payload(),
    )
    with open(args.model, "w", encoding="utf-8", newline="") as fh:
        fh.write(dataio.serialize_model(env))
    print(f"trained {args.algo} on {ds.m} examples; model saved to {args.model}",
          file=out)
    return 0


def _cmd_eval(args, out) -> int:
    env = dataio.parse_model(_read(args.model))
    if env.algorithm not in REGISTRY:
        raise dataio.DataFormatError(1, f"unknown algorithm tag {env.algorithm!r}")
    ds = dataio.parse_dataset(_read(args.data))
    try:
        model = REGISTRY[env.algorithm].model_cls.from_payload(env.payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise dataio.DataFormatError(
            2, f"bad {env.algorithm} model payload: {exc!r}") from None
    preds = predict_blocks(env.algorithm, model, ds.bags())
    report = metrics.compute_report(preds, ds.label_sets(), ds.T)
    _print_report_table(report, out)
    return 0


def _cmd_cv(args, out) -> int:
    if args.against and args.runs < 2:
        raise ValueError(f"--against needs --runs >= 2 for the paired t-test, "
                         f"got {args.runs}")
    ds = dataio.parse_dataset(_read(args.data))
    cfg_map = _load_config(args.config)
    summary = bench.random_split_eval(
        make_fit_predict(args.algo, cfg_map), ds, args.train_frac, args.runs, args.seed)
    algos = [(args.algo, summary)]
    if args.against:
        cfg2 = _load_config(args.against_config)
        summary2 = bench.random_split_eval(
            make_fit_predict(args.against, cfg2), ds, args.train_frac, args.runs, args.seed)
        algos.append((args.against, summary2))

    headers = metrics.MetricReport.HEADERS
    fields = metrics.MetricReport.FIELDS
    name_w = max(len(a) for a, _ in algos)
    cells = {a: [bench.format_mean_std(getattr(s.mean, f), getattr(s.std, f))
                 for f in fields] for a, s in algos}
    widths = [max(len(h), *(len(cells[a][i]) for a, _ in algos))
              for i, h in enumerate(headers)]
    print(" " * name_w + "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
          file=out)
    for a, _ in algos:
        print(a.ljust(name_w) + "  "
              + "  ".join(c.ljust(w) for c, w in zip(cells[a], widths)), file=out)
    for a, s in algos:
        for h, f in zip(headers, fields):
            print(f"{a}.{h}_mean={getattr(s.mean, f)!r}", file=out)
            print(f"{a}.{h}_std={getattr(s.std, f)!r}", file=out)

    if args.against:
        print(f"paired t-test ({args.algo} vs {args.against}, alpha=0.05):", file=out)
        for h, f in zip(headers, fields):
            res = bench.paired_t_test(summary.paired_values(f),
                                      algos[1][1].paired_values(f))
            tag = "significant" if res.significant else "not significant"
            if res.degenerate:
                tag += " (degenerate)"
            print(f"  {h}: t={res.t:.4f} {tag}", file=out)
    return 0


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return _cmd_synth(args, out)
        if args.command == "train":
            return _cmd_train(args, out)
        if args.command == "eval":
            return _cmd_eval(args, out)
        if args.command == "cv":
            return _cmd_cv(args, out)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (FileNotFoundError, dataio.DataFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
