import numpy as np
import pytest

from miml.bagdist import pairwise_hausdorff
from miml.bench import fit_prior
from miml.core import Bag, Bags, MimlDataset, label_matrix
from miml.kernels import instance_gram


def random_bag(rng, d, n_min=1, n_max=4, ident="b"):
    n = int(rng.integers(n_min, n_max + 1))
    return Bag(ident, rng.normal(size=(n, d)))


def make_dataset(examples, T):
    """The dataset of (Bag, label set) pairs."""
    return MimlDataset(Bags.stack([bag for bag, _ in examples]),
                       label_matrix([labels for _, labels in examples], T))


def examples(ds):
    """The dataset as (Bag, label set) pairs, in order."""
    return list(zip(ds.bags(), ds.label_sets()))


def random_dataset(rng, m=6, T=3, d=2, n_max=4):
    """Small random dataset with 1 <= |Y| <= T-1 (evaluation-safe)."""
    pairs = []
    for i in range(m):
        bag = random_bag(rng, d, n_max=n_max, ident=f"b{i}")
        size = int(rng.integers(1, T))  # at most T-1 labels
        labels = frozenset(int(v) for v in rng.choice(T, size=size, replace=False))
        pairs.append((bag, labels))
    return make_dataset(pairs, T)


def hausdorff(a, b):
    """Hausdorff distance between two bags (Euclidean base metric)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(pairwise_hausdorff(Bags.stack([a]), Bags.stack([b]))[0, 0])


def reference_decision(kernel, vectors, coef, bias, X):
    """The single-output SVM scorer that one multi-output ``SvmDecision``
    per model replaced: sum_i coef_i k(vectors_i, x) + bias for each row x
    of X, over that output's own support vectors only."""
    X = np.asarray(X, dtype=np.float64)
    if vectors.shape[0] == 0:
        return np.full(X.shape[0], float(bias))
    return coef @ instance_gram(kernel, vectors, X) + bias


def prior_fit_predict(train_ds, run_seed):
    """The label-prior baseline as a random_split_eval batch scorer."""
    prior = fit_prior(train_ds)
    return lambda bags: [prior.predict(bag) for bag in bags]


@pytest.fixture
def rng():
    return np.random.default_rng(7)
