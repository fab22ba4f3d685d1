"""Every learner's batch scorer against itself one bag at a time.

``miml eval`` scores blocks of bags with one ``predict_many`` call each,
which returns one ``LabelScores`` block: (n, T) float scores and an (n, T)
boolean prediction.  Each predicted row is the learner's rule applied to
that row's scores as a label set, and a bag's row must not depend on which
other bags share its block.  The queries are fresh random bags of mixed sizes, more than
one eval block of them.
"""

import numpy as np
import pytest

from miml import bench, dmimlsvm, insdif, mimlboost, mimlsvm, subcod
from miml.cli import EVAL_BLOCK
from miml.core import Bag, Bags

def _positive(s):
    return {l for l in range(s.size) if s[l] > 0}


def _positive_or_top(s):
    return _positive(s) or {int(np.argmax(s))}


def _tcriterion(s):
    return {l for l in range(s.size) if s[l] >= 0} or {int(np.argmax(s))}


# learner: (synth shape, training m, fit, batch scorer, the predicted set of
# one row of scores)
_CASES = {
    "mimlboost": (dict(T=3, d=4, n_min=1, n_max=4), 12,
                  lambda ds: mimlboost.fit(ds, mimlboost.BoostConfig(rounds=4, seed=1)),
                  mimlboost.predict_many, _positive),
    "mimlsvm": (dict(T=4, d=4, n_min=1, n_max=5), 30,
                lambda ds: mimlsvm.fit(ds, mimlsvm.MimlSvmConfig(seed=1)),
                mimlsvm.predict_many, _tcriterion),
    "dmimlsvm": (dict(T=3, d=4, n_min=1, n_max=4), 8,
                 lambda ds: dmimlsvm.fit(ds, dmimlsvm.DMimlConfig(cccp_max_iters=3, seed=1)),
                 dmimlsvm.predict_many, _positive_or_top),
    "insdif": (dict(T=4, d=4, n_min=1, n_max=1, single_instance=True), 40,
               lambda ds: insdif.fit(ds, insdif.InsDifConfig(seed=1)),
               insdif.predict_many, _positive),
    "subcod": (dict(T=2, d=4, n_min=2, n_max=6), 16,
               lambda ds: subcod.fit(ds, subcod.SubCodConfig(seed=1)),
               subcod.predict_many, lambda s: {int(np.argmax(s))}),
}


@pytest.mark.parametrize("algo", sorted(_CASES))
def test_batch_matches_single_bag(algo, rng):
    shape, m, fit, predict_many, rule = _CASES[algo]
    ds, _ = bench.generate(bench.SynthSpec(m=m, seed=3, spread=1.0, **shape))
    model = fit(ds)
    sizes = rng.integers(1, shape["n_max"] + 1, size=EVAL_BLOCK + 45)
    bags = Bags.stack([Bag(f"q{i}", 2.0 * rng.normal(size=(int(n), shape["d"])))
                       for i, n in enumerate(sizes)])
    batch = predict_many(model, bags)
    assert batch.scores.shape == batch.predicted.shape == (len(bags), ds.T)
    assert batch.scores.dtype == np.float64 and batch.predicted.dtype == bool
    for i in range(len(bags)):
        assert set(np.flatnonzero(batch.predicted[i]).tolist()) == rule(batch.scores[i])
        one = predict_many(model, bags[i:i + 1])
        assert one.scores.shape == (1, ds.T)
        assert np.array_equal(one.predicted[0], batch.predicted[i])
        assert np.allclose(one.scores[0], batch.scores[i], rtol=0.0, atol=1e-12)
