import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miml
from miml import bench, cli, dataio, dmimlsvm, insdif, mimlboost, mimlsvm, subcod
from miml.cli import REGISTRY, run
from miml.core import Bag, MimlDataset

from conftest import make_dataset


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def workdir(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("T=3\nd=4\nm=24\nn_min=1\nn_max=3\nlabel_prob=0.4\n"
                    "spread=0.3\nseed=5\n")
    return tmp_path


def test_synth_train_eval_round_trip(workdir):
    data = workdir / "data.miml"
    model = workdir / "m.model"
    code, _ = _run(["synth", "--spec", str(workdir / "spec.cfg"), "--out", str(data)])
    assert code == 0
    ds = dataio.parse_dataset(data.read_text())
    assert ds.m == 24
    cfg = workdir / "cfg"
    cfg.write_text("mimlsvm.C=1.0\nmimlsvm.seed=0\n")
    code, _ = _run(["train", "--algo", "mimlsvm", "--data", str(data),
                    "--model", str(model), "--config", str(cfg)])
    assert code == 0
    env = dataio.parse_model(model.read_text())
    assert env.algorithm == "mimlsvm"
    code, text = _run(["eval", "--model", str(model), "--data", str(data)])
    assert code == 0
    assert text.splitlines()[0].split() == [
        "hloss", "one-error", "coverage", "rloss", "aveprec", "averecl", "aveF1"]
    assert "hloss=" in text


def test_eval_perfect_fixture(tmp_path):
    # stump on the one-hot label block: +1 exactly for label 0
    ds = make_dataset([(Bag(f"b{i}", [[float(i)], [float(i) + 0.5]]), frozenset({0}))
                       for i in range(4)], T=2)
    data = tmp_path / "fix.miml"
    data.write_text(dataio.serialize_dataset(ds))
    payload = {
        "rounds": [{"weak": {"kind": "stump", "feature": 1, "threshold": 0.5,
                             "polarity": 1}, "c": 1.0}],
        "T": 2, "d": 1, "base": "stump",
    }
    env = dataio.ModelEnvelope(algorithm="mimlboost", hyper={}, payload=payload)
    model = tmp_path / "fix.model"
    model.write_text(dataio.serialize_model(env))
    code, text = _run(["eval", "--model", str(model), "--data", str(data)])
    assert code == 0
    row = text.splitlines()[1].split()
    assert row[0] == "0.000"      # hloss
    assert row[4] == "1.000"      # aveprec


def test_unknown_algo_usage_error(tmp_path):
    code, _ = _run(["train", "--algo", "wat", "--data", "x", "--model", "y"])
    assert code == 1


def test_missing_file_is_data_error():
    code, _ = _run(["eval", "--model", "/nonexistent.model", "--data", "/nope"])
    assert code == 2


def test_malformed_data_is_data_error(tmp_path):
    bad = tmp_path / "bad.miml"
    bad.write_text("miml/1 T=1 d=1\nlabels: a\nx | zzz | 1.0\n")
    code, _ = _run(["train", "--algo", "mimlsvm", "--data", str(bad),
                    "--model", str(tmp_path / "m")])
    assert code == 2


@pytest.mark.parametrize("text,line", [
    ("miml/1 T=1 d=1\nlabels: a\nx | zzz | 1.0\n", 3),
    ("miml/1 T=1 d=2\nlabels: a\nx | a | 1.0 2.0\ny | a | 1.0 2.0 ; 3.0\n", 4),
    ("miml/1 T=1 d=0\nlabels: a\n", 1),
])
def test_malformed_data_names_its_line(text, line, tmp_path, capsys):
    bad = tmp_path / "bad.miml"
    bad.write_text(text)
    code, _ = _run(["train", "--algo", "mimlsvm", "--data", str(bad),
                    "--model", str(tmp_path / "m")])
    assert code == 2
    assert f"data error: line {line}: " in capsys.readouterr().err


def test_cv_deterministic_stdout(workdir):
    data = workdir / "data.miml"
    _run(["synth", "--spec", str(workdir / "spec.cfg"), "--out", str(data)])
    cfg = workdir / "cfg"
    cfg.write_text("mimlsvm.C=1.0\n")
    argv = ["cv", "--algo", "mimlsvm", "--data", str(data), "--runs", "3",
            "--seed", "7", "--config", str(cfg)]
    code1, text1 = _run(argv)
    code2, text2 = _run(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    assert "hloss" in text1 and "±" in text1


def test_cv_with_against_prints_t_tests(workdir):
    data = workdir / "data.miml"
    _run(["synth", "--spec", str(workdir / "spec.cfg"), "--out", str(data)])
    cfg = workdir / "cfg"
    cfg.write_text("mimlsvm.C=1.0\nboost.rounds=2\nboost.base=stump\n")
    code, text = _run(["cv", "--algo", "mimlsvm", "--data", str(data),
                       "--runs", "3", "--seed", "2", "--config", str(cfg),
                       "--against", "mimlboost", "--against-config", str(cfg)])
    assert code == 0
    assert "paired t-test" in text
    assert text.count("t=") >= 7


def _synth(tmp_path, name, spec_text):
    spec = tmp_path / f"{name}.spec"
    spec.write_text(spec_text)
    data = tmp_path / f"{name}.miml"
    code, _ = _run(["synth", "--spec", str(spec), "--out", str(data)])
    assert code == 0
    return data


def _train(tmp_path, algo, data, config_text):
    cfg = tmp_path / f"{algo}.cfg"
    cfg.write_text(config_text)
    model = tmp_path / f"{algo}.model"
    code, _ = _run(["train", "--algo", algo, "--data", str(data),
                    "--model", str(model), "--config", str(cfg)])
    assert code == 0
    return model


# (synth shape, training m, config): tiny fits; the 300-bag test file spans
# more than one eval block
_GOLDEN_SETUP = {
    "mimlboost": ("T=3\nd=4\nn_min=1\nn_max=4\nspread=1.5\n", 12,
                  "boost.rounds=5\nboost.seed=1\n"),
    "mimlsvm": ("T=5\nd=4\nn_min=2\nn_max=5\nspread=1.0\n", 40, "mimlsvm.seed=1\n"),
    "dmimlsvm": ("T=3\nd=4\nn_min=1\nn_max=4\nspread=1.5\n", 8,
                 "dmiml.cccp_iters=3\ndmiml.seed=1\n"),
    "insdif": ("T=5\nd=4\nn_min=1\nn_max=1\nsingle_instance=1\n", 60, "insdif.seed=1\n"),
    "subcod": ("T=2\nd=4\nn_min=2\nn_max=6\nspread=2.0\n", 20, "subcod.seed=1\n"),
}

# `miml eval` stdout of the per-bag implementation that preceded batch scoring
# (subcod's since its polishing uses SMO and the greedy flip step)
_GOLDEN_EVAL = {
    "mimlboost": (
        'hloss  one-error  coverage  rloss  aveprec  averecl  aveF1\n'
        '0.276  0.100      0.687     0.137  0.931    0.597    0.727\n'
        'hloss=0.27555555555555555\n'
        'one-error=0.1\n'
        'coverage=0.6866666666666666\n'
        'rloss=0.13666666666666666\n'
        'aveprec=0.9305555555555556\n'
        'averecl=0.5966666666666667\n'
        'aveF1=0.7271128895355887\n'
    ),
    "mimlsvm": (
        'hloss  one-error  coverage  rloss  aveprec  averecl  aveF1\n'
        '0.301  0.193      2.133     0.224  0.840    0.696    0.761\n'
        'hloss=0.30133333333333334\n'
        'one-error=0.19333333333333333\n'
        'coverage=2.1333333333333333\n'
        'rloss=0.2241666666666667\n'
        'aveprec=0.8401990740740739\n'
        'averecl=0.6961111111111111\n'
        'aveF1=0.7613982080548799\n'
    ),
    "dmimlsvm": (
        'hloss  one-error  coverage  rloss  aveprec  averecl  aveF1\n'
        '0.356  0.273      1.050     0.333  0.816    0.652    0.725\n'
        'hloss=0.35555555555555557\n'
        'one-error=0.2733333333333333\n'
        'coverage=1.05\n'
        'rloss=0.3333333333333333\n'
        'aveprec=0.8161111111111127\n'
        'averecl=0.6516666666666666\n'
        'aveF1=0.7246770123643709\n'
    ),
    "insdif": (
        'hloss  one-error  coverage  rloss  aveprec  averecl  aveF1\n'
        '0.263  0.000      2.253     0.244  0.874    0.594    0.707\n'
        'hloss=0.2633333333333333\n'
        'one-error=0.0\n'
        'coverage=2.2533333333333334\n'
        'rloss=0.243611111111111\n'
        'aveprec=0.8735185185185176\n'
        'averecl=0.5944444444444447\n'
        'aveF1=0.7074541300477971\n'
    ),
    "subcod": (
        'hloss  one-error  coverage  rloss  aveprec  averecl  aveF1\n'
        '0.153  0.153      0.153     0.153  0.923    0.847    0.883\n'
        'hloss=0.15333333333333332\n'
        'one-error=0.15333333333333332\n'
        'coverage=0.15333333333333332\n'
        'rloss=0.15333333333333332\n'
        'aveprec=0.9233333333333333\n'
        'averecl=0.8466666666666667\n'
        'aveF1=0.8833396107972379\n'
    ),
}


@pytest.mark.parametrize("algo", sorted(_GOLDEN_EVAL))
def test_eval_stdout_matches_golden(algo, tmp_path):
    shape, m, config = _GOLDEN_SETUP[algo]
    train = _synth(tmp_path, "train", shape + f"m={m}\nseed=3\n")
    test = _synth(tmp_path, "test", shape + "m=300\nseed=4\n")
    model = _train(tmp_path, algo, train, config)
    code, text = _run(["eval", "--model", str(model), "--data", str(test)])
    assert code == 0
    assert text == _GOLDEN_EVAL[algo]


@pytest.mark.parametrize("algo", sorted(_GOLDEN_SETUP))
def test_synth_file_survives_parse_and_serialize(algo, tmp_path):
    """The stacked arrays hold a dataset file exactly: a synth file of each
    golden shape, parsed and written back, keeps its bytes."""
    shape, m, _ = _GOLDEN_SETUP[algo]
    text = _synth(tmp_path, "data", shape + f"m={m}\nseed=3\n").read_text()
    assert dataio.serialize_dataset(dataio.parse_dataset(text)) == text


# sha256 of the `miml train` model file; the solver-based learners' model
# bytes must not move when a solver's bookkeeping changes (the mimlsvm value
# comes from the Hausdorff kernel that is exact at the realizing pair).  The
# subcod fit (m=28, M=9 sub-concepts) runs EM and the polishing SVM and flips at
# about the size of the SubCod benchmark fits; dmimlsvm runs its dual active-set
# solver (re-recorded when the restricted problems moved from the primal QP to
# the dual).  All four were re-recorded when model bodies lost their indent
# (mimlsvm, subcod and dmimlsvm bodies parse to the same objects as before)
# and MimlBoost's rounds moved to one support pool.  mimlsvm and subcod were
# re-recorded when each model's SVMs became one multi-output decision (the
# same per-label coefficients and biases) and SubCod's payload kept only what
# predict reads.
_MODEL_DATA = "T=3\nd=4\nm=40\nn_min=2\nn_max=5\nspread=1.0\nseed=7\n"
_GOLDEN_MODEL_SHA = {
    "mimlboost": (_MODEL_DATA, "boost.rounds=8\nboost.seed=1\n",
                  "76d5c31fed5dc77cd9a77e312a686a15c508c3b14a0f195e14ff499783a666ca"),
    "mimlsvm": (_MODEL_DATA, "mimlsvm.seed=1\n",
                "09418c9d1b8040c1d2af064738918c815f1b88b486c31a5f4feb4609695efe3f"),
    "subcod": ("T=2\nd=4\nn_min=2\nn_max=6\nspread=2.0\nm=28\nseed=7\n",
               "subcod.seed=1\n",
               "3bc038518ec50840ab30324e1f6d98a0319a256f8e219a1936a8dc9f237e775c"),
    "dmimlsvm": ("T=3\nd=4\nn_min=1\nn_max=4\nspread=1.5\nm=12\nseed=7\n",
                 "dmiml.cccp_iters=3\ndmiml.seed=1\n",
                 "cd636fab11a2b00b936d2882965e8e0fa1202be9e0111e96b2ab9d83159cf3c2"),
}


@pytest.mark.parametrize("algo", sorted(_GOLDEN_MODEL_SHA))
def test_train_model_bytes_match_golden(algo, tmp_path):
    spec, config, digest = _GOLDEN_MODEL_SHA[algo]
    data = _synth(tmp_path, "train", spec)
    model = _train(tmp_path, algo, data, config)
    assert hashlib.sha256(model.read_bytes()).hexdigest() == digest


def _train_with_blas_threads(tmp_path, algo, data, config_text, threads):
    """Model bytes of `miml train` run in a child process whose OpenBLAS
    uses ``threads`` threads."""
    cfg = tmp_path / f"{algo}.cfg"
    cfg.write_text(config_text)
    model = tmp_path / f"{algo}-{threads}.model"
    src = str(Path(miml.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "miml.cli", "train", "--algo", algo,
                    "--data", str(data), "--model", str(model), "--config", str(cfg)],
                   env=env, check=True, timeout=300)
    return model.read_bytes()


@pytest.mark.parametrize("algo", sorted(_GOLDEN_MODEL_SHA))
def test_model_bytes_do_not_depend_on_blas_threads(algo, tmp_path):
    spec, config, _ = _GOLDEN_MODEL_SHA[algo]
    data = _synth(tmp_path, "train", spec)
    one, two = (_train_with_blas_threads(tmp_path, algo, data, config, threads)
                for threads in (1, 2))
    assert one == two


# dataset size for `miml cv`; shape and config as in _GOLDEN_SETUP
_GOLDEN_CV_M = {"mimlboost": 40, "mimlsvm": 80, "dmimlsvm": 16, "insdif": 120, "subcod": 40}

# `miml cv --runs 3 --seed 1` stdout recorded when cv still scored each
# test bag alone (subcod's since its polishing uses SMO and the greedy flip
# step); batch scoring must not move a byte
_GOLDEN_CV = {
    'mimlboost': (
        '           hloss      one-error  coverage   rloss      aveprec    averecl    aveF1    \n'
        'mimlboost  .156±.019  .133±.153  .400±.100  .117±.126  .931±.071  .867±.076  .895±.044\n'
        'mimlboost.hloss_mean=0.15555555555555556\n'
        'mimlboost.hloss_std=0.01924500897298752\n'
        'mimlboost.one-error_mean=0.13333333333333333\n'
        'mimlboost.one-error_std=0.15275252316519466\n'
        'mimlboost.coverage_mean=0.39999999999999997\n'
        'mimlboost.coverage_std=0.1\n'
        'mimlboost.rloss_mean=0.11666666666666665\n'
        'mimlboost.rloss_std=0.12583057392117916\n'
        'mimlboost.aveprec_mean=0.9305555555555554\n'
        'mimlboost.aveprec_std=0.07087417123429493\n'
        'mimlboost.averecl_mean=0.8666666666666667\n'
        'mimlboost.averecl_std=0.07637626158259729\n'
        'mimlboost.aveF1_mean=0.8948760502354286\n'
        'mimlboost.aveF1_std=0.04402965609289027\n'
    ),
    'mimlsvm': (
        '         hloss      one-error  coverage     rloss      aveprec    averecl    aveF1    \n'
        'mimlsvm  .220±.026  .033±.029  1.717±0.029  .094±.010  .932±.018  .821±.036  .872±.020\n'
        'mimlsvm.hloss_mean=0.22\n'
        'mimlsvm.hloss_std=0.026457513110645904\n'
        'mimlsvm.one-error_mean=0.03333333333333333\n'
        'mimlsvm.one-error_std=0.02886751345948129\n'
        'mimlsvm.coverage_mean=1.7166666666666668\n'
        'mimlsvm.coverage_std=0.028867513459481315\n'
        'mimlsvm.rloss_mean=0.09444444444444444\n'
        'mimlsvm.rloss_std=0.010485881160098262\n'
        'mimlsvm.aveprec_mean=0.9316666666666666\n'
        'mimlsvm.aveprec_std=0.01806196467445432\n'
        'mimlsvm.averecl_mean=0.8208333333333332\n'
        'mimlsvm.averecl_std=0.03608439182435161\n'
        'mimlsvm.aveF1_mean=0.8723205657405293\n'
        'mimlsvm.aveF1_std=0.01951075740470088\n'
    ),
    'dmimlsvm': (
        '          hloss      one-error  coverage   rloss      aveprec    averecl    aveF1    \n'
        'dmimlsvm  .222±.127  .167±.144  .500±.250  .125±.125  .903±.087  .708±.144  .792±.122\n'
        'dmimlsvm.hloss_mean=0.2222222222222222\n'
        'dmimlsvm.hloss_std=0.1272937693043289\n'
        'dmimlsvm.one-error_mean=0.16666666666666666\n'
        'dmimlsvm.one-error_std=0.14433756729740646\n'
        'dmimlsvm.coverage_mean=0.5\n'
        'dmimlsvm.coverage_std=0.25\n'
        'dmimlsvm.rloss_mean=0.125\n'
        'dmimlsvm.rloss_std=0.125\n'
        'dmimlsvm.aveprec_mean=0.9027777777777777\n'
        'dmimlsvm.aveprec_std=0.0867360833110889\n'
        'dmimlsvm.averecl_mean=0.7083333333333334\n'
        'dmimlsvm.averecl_std=0.14433756729740646\n'
        'dmimlsvm.aveF1_mean=0.7922619047619047\n'
        'dmimlsvm.aveF1_std=0.12239780085985535\n'
    ),
    'insdif': (
        '        hloss      one-error  coverage     rloss      aveprec    averecl    aveF1    \n'
        'insdif  .320±.023  .000±.000  2.500±0.233  .265±.042  .866±.017  .553±.021  .675±.013\n'
        'insdif.hloss_mean=0.32\n'
        'insdif.hloss_std=0.023094010767585018\n'
        'insdif.one-error_mean=0.0\n'
        'insdif.one-error_std=0.0\n'
        'insdif.coverage_mean=2.5\n'
        'insdif.coverage_std=0.23333333333333325\n'
        'insdif.rloss_mean=0.26481481481481484\n'
        'insdif.rloss_std=0.04169751944147298\n'
        'insdif.aveprec_mean=0.8662962962962965\n'
        'insdif.aveprec_std=0.016969724109459454\n'
        'insdif.averecl_mean=0.5527777777777777\n'
        'insdif.averecl_std=0.02097176232019651\n'
        'insdif.aveF1_mean=0.6746099404618459\n'
        'insdif.aveF1_std=0.013004431778985618\n'
    ),
    'subcod': (
        '        hloss      one-error  coverage   rloss      aveprec    averecl    aveF1    \n'
        'subcod  .300±.100  .300±.100  .300±.100  .300±.100  .850±.050  .700±.100  .767±.081\n'
        'subcod.hloss_mean=0.3\n'
        'subcod.hloss_std=0.1\n'
        'subcod.one-error_mean=0.3\n'
        'subcod.one-error_std=0.1\n'
        'subcod.coverage_mean=0.3\n'
        'subcod.coverage_std=0.1\n'
        'subcod.rloss_mean=0.3\n'
        'subcod.rloss_std=0.1\n'
        'subcod.aveprec_mean=0.85\n'
        'subcod.aveprec_std=0.04999999999999999\n'
        'subcod.averecl_mean=0.7000000000000001\n'
        'subcod.averecl_std=0.10000000000000003\n'
        'subcod.aveF1_mean=0.7668383482425227\n'
        'subcod.aveF1_std=0.08067606412760357\n'
    ),
}


def _cv(tmp_path, algo, data, config_text, against=None):
    """`miml cv --runs 3 --seed 1`; the one config file serves both learners."""
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(config_text)
    extra = ["--against", against, "--against-config", str(cfg)] if against else []
    return _run(["cv", "--algo", algo, "--data", str(data), "--runs", "3", "--seed", "1",
                 "--config", str(cfg), *extra])


@pytest.mark.parametrize("algo", sorted(_GOLDEN_CV))
def test_cv_stdout_matches_golden(algo, tmp_path):
    shape, _, config = _GOLDEN_SETUP[algo]
    data = _synth(tmp_path, "data", shape + f"m={_GOLDEN_CV_M[algo]}\nseed=3\n")
    assert _cv(tmp_path, algo, data, config) == (0, _GOLDEN_CV[algo])


_GOLDEN_CV_AGAINST = (
    '           hloss      one-error  coverage   rloss      aveprec    averecl    aveF1    \n'
    'mimlsvm    .189±.038  .167±.058  .500±.100  .133±.029  .900±.017  .817±.029  .856±.023\n'
    'mimlboost  .156±.019  .133±.153  .400±.100  .117±.126  .931±.071  .867±.076  .895±.044\n'
    'mimlsvm.hloss_mean=0.18888888888888888\n'
    'mimlsvm.hloss_std=0.03849001794597506\n'
    'mimlsvm.one-error_mean=0.16666666666666666\n'
    'mimlsvm.one-error_std=0.05773502691896258\n'
    'mimlsvm.coverage_mean=0.5\n'
    'mimlsvm.coverage_std=0.09999999999999998\n'
    'mimlsvm.rloss_mean=0.13333333333333333\n'
    'mimlsvm.rloss_std=0.02886751345948128\n'
    'mimlsvm.aveprec_mean=0.8999999999999999\n'
    'mimlsvm.aveprec_std=0.01666666666666672\n'
    'mimlsvm.averecl_mean=0.8166666666666668\n'
    'mimlsvm.averecl_std=0.02886751345948125\n'
    'mimlsvm.aveF1_mean=0.8562460852078547\n'
    'mimlsvm.aveF1_std=0.022677337827260065\n'
    'mimlboost.hloss_mean=0.15555555555555556\n'
    'mimlboost.hloss_std=0.01924500897298752\n'
    'mimlboost.one-error_mean=0.13333333333333333\n'
    'mimlboost.one-error_std=0.15275252316519466\n'
    'mimlboost.coverage_mean=0.39999999999999997\n'
    'mimlboost.coverage_std=0.1\n'
    'mimlboost.rloss_mean=0.11666666666666665\n'
    'mimlboost.rloss_std=0.12583057392117916\n'
    'mimlboost.aveprec_mean=0.9305555555555554\n'
    'mimlboost.aveprec_std=0.07087417123429493\n'
    'mimlboost.averecl_mean=0.8666666666666667\n'
    'mimlboost.averecl_std=0.07637626158259729\n'
    'mimlboost.aveF1_mean=0.8948760502354286\n'
    'mimlboost.aveF1_std=0.04402965609289027\n'
    'paired t-test (mimlsvm vs mimlboost, alpha=0.05):\n'
    '  hloss: t=1.7321 not significant\n'
    '  one-error: t=0.2774 not significant\n'
    '  coverage: t=1.7321 not significant\n'
    '  rloss: t=0.2774 not significant\n'
    '  aveprec: t=-0.6539 not significant\n'
    '  averecl: t=-1.0000 not significant\n'
    '  aveF1: t=-1.0291 not significant\n'
)


def test_cv_against_stdout_matches_golden(tmp_path):
    data = _synth(tmp_path, "data", _GOLDEN_SETUP["mimlboost"][0] + "m=40\nseed=3\n")
    got = _cv(tmp_path, "mimlsvm", data, "mimlsvm.C=1.0\nboost.rounds=5\nboost.seed=1\n",
              against="mimlboost")
    assert got == (0, _GOLDEN_CV_AGAINST)


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_cv_without_runs_is_data_error(runs, workdir, capsys):
    data = _synth(workdir, "data", (workdir / "spec.cfg").read_text())
    code, text = _run(["cv", "--algo", "mimlsvm", "--data", str(data), "--runs", runs])
    assert code == 2 and text == ""
    assert f"runs={runs}" in capsys.readouterr().err


def test_cv_against_with_one_run_fails_before_any_fit(workdir, capsys, monkeypatch):
    data = _synth(workdir, "data", (workdir / "spec.cfg").read_text())

    def no_fit(*args):
        raise AssertionError("fit ran")

    monkeypatch.setattr(cli, "fit_with_config", no_fit)
    code, text = _run(["cv", "--algo", "mimlsvm", "--data", str(data), "--runs", "1",
                       "--against", "mimlboost"])
    assert code == 2 and text == ""
    assert "--runs >= 2" in capsys.readouterr().err


def test_eval_unknown_algorithm_tag_is_data_error(tmp_path, capsys):
    body = json.dumps({"hyper": {}, "payload": {}})
    code, text = _eval_model_text(tmp_path, "miml-model/1 xyz\n" + body + "\n")
    assert code == 2 and text == ""
    assert "unknown algorithm tag 'xyz'" in capsys.readouterr().err


def test_solver_step_limit_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # with no steps allowed, the first dual solve stops at its step cap
    monkeypatch.setattr(dmimlsvm, "_STEPS_PER_ROW", 0)
    shape, m, config = _GOLDEN_SETUP["dmimlsvm"]
    data = _synth(tmp_path, "train", shape + f"m={m}\nseed=3\n")
    (tmp_path / "dmiml.cfg").write_text(config)
    code, _ = _run(["train", "--algo", "dmimlsvm", "--data", str(data), "--model",
                    str(tmp_path / "m.model"), "--config", str(tmp_path / "dmiml.cfg")])
    assert code == 3
    assert re.search(r"numerical failure: dual active-set step limit: label block 0, "
                     r"1 multipliers, working set of \d+ after 0 steps",
                     capsys.readouterr().err)


@pytest.mark.parametrize("algo,config", [
    ("mimlsvm", "mimlsvm.C=1.0\n"),
    ("dmimlsvm", "dmiml.cccp_iters=2\n"),
    ("mimlboost", "boost.rounds=2\n"),
])
def test_eval_label_count_mismatch_is_data_error(algo, config, tmp_path, capsys):
    train = _synth(tmp_path, "t3", "T=3\nd=4\nm=12\nseed=1\n")
    test = _synth(tmp_path, "t5", "T=5\nd=4\nm=20\nseed=2\n")
    model = _train(tmp_path, algo, train, config)
    code, _ = _run(["eval", "--model", str(model), "--data", str(test)])
    assert code == 2
    assert "expected T=5" in capsys.readouterr().err


def _eval_model_text(tmp_path, model_text):
    data = _synth(tmp_path, "data", "T=3\nd=4\nm=10\nseed=1\n")
    model = tmp_path / "bad.model"
    model.write_text(model_text)
    return _run(["eval", "--model", str(model), "--data", str(data)])


def test_model_body_without_hyper_is_data_error(tmp_path, capsys):
    code, _ = _eval_model_text(tmp_path, 'miml-model/1 mimlsvm\n{"payload": {}}\n')
    assert code == 2
    assert "'hyper'" in capsys.readouterr().err


def test_model_body_not_an_object_is_data_error(tmp_path, capsys):
    code, _ = _eval_model_text(tmp_path, "miml-model/1 mimlsvm\n[1, 2]\n")
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_model_payload_missing_field_is_data_error(tmp_path, capsys):
    body = json.dumps({"hyper": {}, "payload": {"medoids": [], "T": 3, "k": 1}})
    code, _ = _eval_model_text(tmp_path, "miml-model/1 mimlsvm\n" + body + "\n")
    assert code == 2
    assert "'svm'" in capsys.readouterr().err


def _old_svm_layout(p):
    del p["pool"], p["gamma"]
    p["rounds"] = [{"c": 1.0, "weak": {
        "kind": "svm", "kernel": {"kind": "rbf", "gamma": None},
        "vectors": [[0.0] * (p["d"] + p["T"])], "coef": [1.0], "bias": 0.0}}]


@pytest.mark.parametrize("edit,message", [
    (lambda p: p["rounds"][0]["sv"].__setitem__(0, -1), "sv index out of range"),
    (lambda p: p["rounds"][0]["sv"].__setitem__(0, len(p["pool"])), "sv index out of range"),
    (lambda p: p["rounds"][0]["label"].__setitem__(0, p["T"]), "label index out of range"),
    (lambda p: p["rounds"][0]["coef"].pop(), "round 0: sv, label and coef differ in length"),
    (lambda p: p["pool"][0].pop(), "pool rows must have d=4 features"),
    (_old_svm_layout, "'weak.vectors' layout"),
])
def test_malformed_mimlboost_payload_is_data_error(edit, message, tmp_path, capsys):
    train = _synth(tmp_path, "train", "T=3\nd=4\nm=10\nseed=1\n")
    model = _train(tmp_path, "mimlboost", train, "boost.rounds=3\n")
    head, _, body = model.read_text().partition("\n")
    data = json.loads(body)
    assert data["payload"]["rounds"] and data["payload"]["rounds"][0]["sv"]
    edit(data["payload"])
    code, text = _eval_model_text(tmp_path, head + "\n" + json.dumps(data) + "\n")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "bad mimlboost model payload" in err and message in err


def _eval_with_literal(tmp_path, algo, place, literal):
    """``miml eval`` of a trained ``algo`` model whose number at
    ``place(payload) -> (container, key)`` is written as ``literal``."""
    shape, m, config = _GOLDEN_SETUP[algo]
    data = _synth(tmp_path, "data", shape + f"m={m}\nseed=3\n")
    model = _train(tmp_path, algo, data, config)
    head, _, body = model.read_text().partition("\n")
    envelope = json.loads(body)
    container, key = place(envelope["payload"])
    assert isinstance(container[key], (int, float))
    container[key] = "@"
    model.write_text(head + "\n" + json.dumps(envelope).replace('"@"', literal) + "\n")
    return _run(["eval", "--model", str(model), "--data", str(data)])


# a number of each learner's model file that its scores depend on
_SCORED_NUMBER = {
    "mimlboost": lambda p: (p["rounds"][0], "bias"),
    "mimlsvm": lambda p: (p["svm"]["bias"], 0),
    "dmimlsvm": lambda p: (p["biases"], 0),
    "insdif": lambda p: (p["W"][0], 0),
    "subcod": lambda p: (p["mapper"]["bias"], 0),
}


@pytest.mark.parametrize("algo,literal", [(algo, "NaN") for algo in sorted(_SCORED_NUMBER)]
                         + [("mimlboost", "Infinity"), ("mimlboost", "-Infinity")])
def test_non_finite_constant_in_model_is_data_error(algo, literal, tmp_path, capsys):
    code, text = _eval_with_literal(tmp_path, algo, _SCORED_NUMBER[algo], literal)
    assert code == 2 and text == ""
    assert f"line 2: non-finite number {literal} in model body" in capsys.readouterr().err


@pytest.mark.parametrize("place", [
    lambda p: (p["rounds"][0]["coef"], 0),
    lambda p: (p["rounds"][0], "bias"),
    lambda p: (p["rounds"][0], "c"),
    lambda p: (p["pool"][0], 0),
    lambda p: (p, "gamma"),
], ids=["coef", "bias", "c", "pool", "gamma"])
def test_overflowing_mimlboost_number_is_data_error(place, tmp_path, capsys):
    """1e999 parses as an infinite float; the weak SVMs' sign step would
    turn its non-finite decisions into finite scores."""
    code, text = _eval_with_literal(tmp_path, "mimlboost", place, "1e999")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "bad mimlboost model payload" in err and "must be finite" in err


def _old_multi_svm_layout(key, old_key):
    """An edit that writes ``key``'s decision as the per-output list the
    multi-output decision replaced."""
    def edit(p):
        dec = p.pop(key)
        p[old_key] = [{"kernel": dec["kernel"], "vectors": dec["vectors"],
                       "coef": [row[j] for row in dec["coef"]], "bias": b}
                      for j, b in enumerate(dec["bias"])]
    return edit


def _svm_edits(key, old_key):
    return [
        (lambda p: p[key]["coef"].pop(), "coef has"),
        (lambda p: p[key]["bias"].pop(), "bias must hold"),
        (lambda p: p[key]["coef"][0].pop(), "coef rows must have"),
        (lambda p: p[key]["vectors"][0].append(0.0), "vectors rows must have"),
        (_old_multi_svm_layout(key, old_key), f"'{old_key}' layout"),
    ]


_MALFORMED = {
    "mimlsvm": ("T=3\nd=4\nm=10\nseed=1\n", "mimlsvm.C=1.0\n", "svm",
                _svm_edits("svm", "svms") + [
                    (lambda p: p["medoids"].pop(), "medoids for k="),
                    (lambda p: p["medoids"][-1]["feats"][-1].append(0.0), "with a sequence"),
                    (lambda p: p["medoids"][1]["feats"].clear(), "bag 1 has no instances"),
                    # written as 1e999, which parses as an infinite float
                    (lambda p: p["medoids"][0]["feats"][0].__setitem__(0, "@"),
                     "bag features must be finite"),
                ]),
    "subcod": ("T=2\nd=4\nn_min=2\nn_max=6\nm=12\nseed=1\n", "subcod.M=3\n", "mapper",
               _svm_edits("mapper", "mappers") + [
                   (lambda p: p["mapper_classes"].__setitem__(0, -1), "mapper_classes must be"),
                   (lambda p: p["mapper_classes"].__setitem__(0, p["T"]), "mapper_classes must be"),
                   (lambda p: p["inner"]["svm"]["bias"].pop(), "bias must hold"),
               ]),
}


@pytest.mark.parametrize("algo,case", [(algo, i) for algo in sorted(_MALFORMED)
                                       for i in range(len(_MALFORMED[algo][3]))])
def test_malformed_multi_svm_payload_is_data_error(algo, case, tmp_path, capsys):
    shape, config, key, edits = _MALFORMED[algo]
    edit, message = edits[case]
    model = _train(tmp_path, algo, _synth(tmp_path, "train", shape), config)
    head, _, body = model.read_text().partition("\n")
    data = json.loads(body)
    dec = data["payload"][key]
    assert len(dec["vectors"]) >= 1 and len(dec["bias"]) >= 2
    edit(data["payload"])
    body = json.dumps(data).replace('"@"', "1e999")
    code, text = _eval_model_text(tmp_path, head + "\n" + body + "\n")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert f"bad {algo} model payload" in err and message in err


@pytest.mark.parametrize("command", ["eval", "cv"])
def test_subcod_scores_every_label_of_its_training_file(command, tmp_path):
    """SubCod trained on a T=3 file whose examples hold only the first two
    classes scores all three labels (the model used to score as many labels
    as its highest class plus one, and eval then rejected it)."""
    two = dataio.parse_dataset(_synth(tmp_path, "two", _GOLDEN_SETUP["subcod"][0]
                                      + "m=24\nseed=3\n").read_text())
    train = tmp_path / "train.miml"
    train.write_text(dataio.serialize_dataset(MimlDataset(two.bags(), np.pad(two.Y, ((0, 0), (0, 1))))))
    if command == "eval":
        model = _train(tmp_path, "subcod", train, "subcod.seed=1\n")
        test = _synth(tmp_path, "test", "T=3\nd=4\nm=12\nseed=4\n")
        code, text = _run(["eval", "--model", str(model), "--data", str(test)])
    else:
        code, text = _run(["cv", "--algo", "subcod", "--data", str(train), "--runs", "2"])
    assert code == 0
    assert text.split()[:7] == ["hloss", "one-error", "coverage", "rloss", "aveprec",
                                "averecl", "aveF1"]


# every documented key at a non-default value, and the config the per-learner
# hand-written parsers built from it
_ALL_KEYS = {
    "mimlboost": (
        "boost.rounds=7\nboost.c_cap=3.5\nboost.base=stump\nboost.C=2.5\n"
        "boost.gamma=0.25\nboost.stop_rule=table\nboost.seed=9\n",
        mimlboost.BoostConfig(rounds=7, c_cap=3.5, base="stump", C=2.5, gamma=0.25,
                              stop_rule="table", seed=9)),
    "mimlsvm": (
        "mimlsvm.k_fraction=0.5\nmimlsvm.k=4\nmimlsvm.C=10\nmimlsvm.gamma=0.125\n"
        "mimlsvm.seed=3\n",
        mimlsvm.MimlSvmConfig(k_fraction=0.5, k=4, C=10.0, gamma=0.125, seed=3)),
    "dmimlsvm": (
        "dmiml.lambda=0.7\ndmiml.mu=0.3\ndmiml.gamma=5\ndmiml.eps=1e-3\ndmiml.p=11\n"
        "dmiml.cccp_iters=4\ndmiml.cccp_tol=1e-4\ndmiml.imbalance=yes\ndmiml.seed=2\n"
        "dmiml.kernel=linear\ndmiml.kernel_gamma=0.5\n",
        dmimlsvm.DMimlConfig(lam=0.7, mu=0.3, gamma=5.0, eps=1e-3, p=11,
                             cccp_max_iters=4, cccp_tol=1e-4, use_imbalance=True,
                             seed=2, kernel_kind="linear", kernel_gamma=0.5)),
    "insdif": (
        "insdif.m_fraction=0.4\ninsdif.M=6\ninsdif.seed=8\ninsdif.fallback=1\n",
        insdif.InsDifConfig(m_fraction=0.4, M=6, seed=8, fallback=True)),
    "subcod": (
        "subcod.M=3\nsubcod.theta=5\nsubcod.C=0.5\nsubcod.seed=4\nsubcod.inner_k=2\n"
        "subcod.inner_C=3\nsubcod.em_iters=50\nsubcod.em_tol=1e-5\n",
        subcod.SubCodConfig(M=3, theta=5, C=0.5, seed=4, inner_k=2, inner_C=3.0,
                            em_max_iters=50, em_tol=1e-5)),
}


def _all_fields_differ_from_defaults(cfg):
    return all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))


@pytest.mark.parametrize("algo", sorted(_ALL_KEYS))
def test_every_documented_key_parses(algo):
    text, expected = _ALL_KEYS[algo]
    assert _all_fields_differ_from_defaults(expected)
    cfg = REGISTRY[algo].config(dataio.parse_config(text))
    assert cfg == expected
    assert dataclasses.asdict(cfg) == dataclasses.asdict(expected)


def test_every_synth_key_parses():
    text = ("T=4\nd=2\nm=10\nn_min=2\nn_max=5\nlabel_prob=0.3\nspread=0.5\n"
            "noise=0.1\nseparation=2.5\ncomposite=true\nsingle_instance=on\nseed=6\n")
    expected = bench.SynthSpec(T=4, d=2, m=10, n_min=2, n_max=5, label_prob=0.3,
                               spread=0.5, noise=0.1, separation=2.5, composite=True,
                               single_instance=True, seed=6)
    assert _all_fields_differ_from_defaults(expected)
    assert dataio.config_dataclass(bench.SynthSpec, dataio.parse_config(text)) == expected


def test_config_keys_of_other_learners_are_ignored():
    cfg = REGISTRY["mimlsvm"].config({"mimlsvm.C": "2", "boost.rounds": "x",
                                      "dmiml.nonsense": "1"})
    assert cfg == mimlsvm.MimlSvmConfig(C=2.0)


@pytest.mark.parametrize("cfg_map,message", [
    ({"mimlsvm.kk": "5"}, "mimlsvm.kk"),
    ({"k": "5"}, "'k'"),
    ({"mimlsv.k": "5"}, "mimlsv.k"),
    ({"mimlsvm.k": "five"}, "mimlsvm.k"),
    ({"mimlsvm.k": "2.0"}, "mimlsvm.k"),
])
def test_bad_config_key_or_value_is_value_error(cfg_map, message):
    with pytest.raises(ValueError, match=message):
        REGISTRY["mimlsvm"].config(cfg_map)


@pytest.mark.parametrize("line", [
    "dmiml.cccp_iters=0", "dmiml.p=0", "dmiml.eps=-1", "dmiml.eps=0",
    "dmiml.lambda=-1", "dmiml.mu=-5", "dmiml.gamma=-1",
])
def test_out_of_range_dmimlsvm_setting_is_data_error(line, tmp_path, capsys):
    # each of these ended in a traceback, a non-convex problem or a message
    # that named no key
    data = _synth(tmp_path, "train", "T=3\nd=4\nm=8\nseed=1\n")
    cfg = tmp_path / "dmiml.cfg"
    cfg.write_text(line + "\n")
    model = tmp_path / "m.model"
    code, _ = _run(["train", "--algo", "dmimlsvm", "--data", str(data),
                    "--model", str(model), "--config", str(cfg)])
    assert code == 2
    assert line.partition("=")[0] + " must be" in capsys.readouterr().err
    assert not model.exists()


def test_unknown_learner_key_is_data_error(workdir, capsys):
    data = workdir / "data.miml"
    _run(["synth", "--spec", str(workdir / "spec.cfg"), "--out", str(data)])
    cfg = workdir / "cfg"
    cfg.write_text("mimlsvm.C=1.0\nmimlsvm.kk=5\n")
    model = workdir / "m.model"
    code, _ = _run(["train", "--algo", "mimlsvm", "--data", str(data),
                    "--model", str(model), "--config", str(cfg)])
    assert code == 2
    assert "mimlsvm.kk" in capsys.readouterr().err
    assert not model.exists()


def test_unknown_synth_key_is_data_error(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    spec.write_text("T=3\nd=4\nm=12\nn_mx=3\n")
    out = tmp_path / "data.miml"
    code, _ = _run(["synth", "--spec", str(spec), "--out", str(out)])
    assert code == 2
    assert "n_mx" in capsys.readouterr().err
    assert not out.exists()
