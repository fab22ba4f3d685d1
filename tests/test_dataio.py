import numpy as np
import pytest

from miml.core import Bag
from miml.dataio import (
    DataFormatError,
    ModelEnvelope,
    parse_config,
    parse_dataset,
    parse_dataset_with_names,
    parse_model,
    serialize_dataset,
    serialize_model,
)

from conftest import examples, make_dataset, random_dataset


def test_parse_minimal_file():
    text = "miml/1 T=2 d=1\nlabels: a b\nx1 | a | 0.5\n"
    ds, names = parse_dataset_with_names(text)
    assert ds.m == 1 and ds.T == 2 and ds.d == 1
    assert names == ("a", "b")
    assert ds.label_sets()[0] == frozenset({0})
    assert ds.bags()[0].feats[0, 0] == 0.5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataFormatError) as e:
        parse_dataset("miml/1 T=1 d=1\nlabels: a\nx | zzz | 1.0\n")
    assert e.value.line == 3 and "zzz" in str(e.value)
    with pytest.raises(DataFormatError) as e:
        parse_dataset("miml/1 T=1 d=1\nlabels: a\nx | a | fish\n")
    assert e.value.line == 3 and "non-numeric" in str(e.value)
    with pytest.raises(DataFormatError) as e:
        parse_dataset("wrong header\n")
    assert e.value.line == 1
    with pytest.raises(DataFormatError) as e:
        parse_dataset("miml/1 T=2 d=1\nlabels: a\nx | a | 1.0\n")
    assert e.value.line == 2  # label count vs header


def test_serialize_shape():
    ds = make_dataset(((Bag("x1", [[0.5]]), frozenset({0})),), T=1)
    text = serialize_dataset(ds, ["a"])
    assert text == "miml/1 T=1 d=1\nlabels: a\nx1 | a | 0.5\n"


def test_roundtrip_many_random_datasets(rng):
    for _ in range(100):
        ds = random_dataset(rng, m=int(rng.integers(1, 6)), T=int(rng.integers(2, 5)),
                            d=int(rng.integers(1, 4)))
        text = serialize_dataset(ds)
        back = parse_dataset(text)
        assert examples(back) == examples(ds)  # exact float preservation included
        assert serialize_dataset(back) == text


def test_serialization_is_deterministic(rng):
    ds = random_dataset(rng, m=4, T=3, d=2)
    assert serialize_dataset(ds) == serialize_dataset(ds)


def test_awkward_floats_roundtrip():
    vals = [0.1, 1 / 3, 1e-300, 123456789.123456789, -0.0, 2.0 ** -52]
    ds = make_dataset(((Bag("v", [vals]), frozenset({0})),), T=1)
    back = parse_dataset(serialize_dataset(ds))
    assert np.array_equal(back.bags().X, ds.bags().X)
    assert np.signbit(back.bags().X).tolist() == np.signbit(ds.bags().X).tolist()


def test_model_envelope_roundtrip_basics():
    env = ModelEnvelope(algorithm="mimlsvm", hyper={"C": 1.0},
                        payload={"xs": [0.1, 0.2], "n": 3})
    back = parse_model(serialize_model(env))
    assert back == env
    with pytest.raises(DataFormatError):
        parse_model("other/9 mimlsvm\n{}")


def _tiny_ds(rng, T=2, d=2, m=6):
    return random_dataset(rng, m=m, T=T, d=d, n_max=2)


def test_all_five_learner_payloads_roundtrip(rng):
    """Fitted models survive envelope round-trips structurally intact."""
    from miml.cli import REGISTRY, fit_with_config

    ds = _tiny_ds(rng)
    single = make_dataset(
        [(Bag(f"s{i}", rng.normal(size=(1, 2))), frozenset({int(rng.integers(0, 2))}))
         for i in range(8)],
        T=2)
    datasets = {
        "mimlboost": ds,
        "mimlsvm": ds,
        "dmimlsvm": ds,
        "insdif": single,
        "subcod": single,
    }
    configs = {
        "mimlboost": {"boost.rounds": "2", "boost.base": "stump"},
        "mimlsvm": {"mimlsvm.C": "1.0"},
        "dmimlsvm": {"dmiml.cccp_iters": "2", "dmiml.gamma": "10"},
        "insdif": {},
        "subcod": {"subcod.M": "2", "subcod.inner_C": "1.0"},
    }
    for algo, entry in REGISTRY.items():
        model, _ = fit_with_config(algo, datasets[algo], configs[algo])
        env = ModelEnvelope(algorithm=algo, hyper={}, payload=model.to_payload())
        text = serialize_model(env)
        back = parse_model(text)
        restored = entry.model_cls.from_payload(back.payload)
        assert restored.to_payload() == model.to_payload(), algo
        assert serialize_model(ModelEnvelope(algorithm=algo, hyper={},
                                             payload=restored.to_payload())) == text


def test_parse_config():
    cfg = parse_config("a.b = 1\n# comment\nkey=value # trailing\n\n")
    assert cfg == {"a.b": "1", "key": "value"}
    with pytest.raises(DataFormatError):
        parse_config("no equals sign here")
