"""Training on the flat parameter buffer against `tests/tensornet_oracle.py`:
bit-identical fits and checkpoints, and buffers shared, never copied."""

import numpy as np
import pytest

from tests import tensornet_oracle as oracle
from wsdetect import tensornet as tn
from wsdetect.srcmodel import CnnConfig, build_cnn
from wsdetect.trafficmodel import TabularConfig, TabularDataset, build_dnn


def _tabular(n=300, seed=5):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    cont = rng.normal(size=(n, 77)) + labels[:, None] * rng.normal(size=77)
    cats = np.column_stack([rng.choice([22, 80, 443, 8080], size=n),
                            rng.choice([6, 17], size=n)])
    return TabularDataset(cats, cont, labels)


def _dnn_case():
    data = _tabular()
    config = TabularConfig(weighted=True, seed=3)
    weights = tn.class_weights(int((data.labels == 0).sum()),
                               int((data.labels == 1).sum()))

    def build():
        model = build_dnn(config, data)
        return model, model.prepare(data)

    kwargs = dict(epochs=2, batch_size=64, learning_rate=config.learning_rate,
                  seed=config.seed, weights=weights)
    return build, data.labels, kwargs


def _cnn_case():
    rng = np.random.default_rng(9)
    config = CnnConfig.php(vocab_size=30, max_length=40, num_filters=12,
                           batch_size=16, epochs=2, seed=4)
    rows = rng.integers(1, 31, size=(49, 40))
    rows[rng.random(rows.shape) < 0.3] = 0  # padding
    labels = rng.integers(0, 2, size=49)

    def build():
        return build_cnn(config), rows

    kwargs = dict(epochs=2, batch_size=config.batch_size,
                  learning_rate=config.learning_rate, seed=config.seed)
    return build, labels, kwargs


CASES = {"dnn": _dnn_case, "cnn": _cnn_case}


def _state_bytes(model) -> dict[str, bytes]:
    arrays = {**model.parameters(), **model.named_buffers(),
              **{f"grad:{k}": v for k, v in model.gradients().items()}}
    return {name: value.tobytes() for name, value in arrays.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fit_is_bit_identical_to_the_oracle(case, tmp_path):
    build, labels, kwargs = CASES[case]()
    model, inputs = build()
    history = tn.fit(model, inputs, labels, **kwargs)
    reference, ref_inputs = build()
    ref_history = oracle.fit(reference, ref_inputs, labels, **kwargs)

    assert [(e.loss, e.accuracy) for e in history.epochs] == ref_history
    assert _state_bytes(model) == _state_bytes(reference)
    assert np.array_equal(model.forward(inputs), reference.forward(ref_inputs))
    tn.save_model(model, tmp_path / "flat.wsnet")
    tn.save_model(reference, tmp_path / "oracle.wsnet")
    assert (tmp_path / "flat.wsnet").read_bytes() == \
        (tmp_path / "oracle.wsnet").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_checkpoint_loads_with_identical_logits(case, tmp_path):
    build, labels, kwargs = CASES[case]()
    reference, inputs = build()
    oracle.fit(reference, inputs, labels, **kwargs)
    tn.save_model(reference, tmp_path / "oracle.wsnet")
    loaded = tn.load_model(tmp_path / "oracle.wsnet")
    assert np.array_equal(loaded.forward(inputs), reference.forward(inputs))


@pytest.mark.parametrize("case", sorted(CASES))
def test_layers_keep_views_into_the_flat_buffers(case):
    build, labels, kwargs = CASES[case]()
    model, inputs = build()
    before = model.gradients()
    tn.fit(model, inputs, labels, **kwargs)
    flat = model.flat()
    params, grads = model.parameters(), model.gradients()
    assert list(params) == list(grads) == flat.names
    assert sum(p.size for p in params.values()) == flat.params.size
    for name in params:
        assert np.shares_memory(params[name], flat.params), name
        assert np.shares_memory(grads[name], flat.grads), name
        assert grads[name] is before[name], name  # never re-allocated


def test_layers_are_fixed_once_the_buffers_exist():
    model, _ = _cnn_case()[0]()
    model.parameters()
    with pytest.raises(RuntimeError, match="fixed"):
        model.add_layer("extra", tn.ReLU())


def test_values_set_before_packing_survive_it():
    model, _ = _cnn_case()[0]()
    model.dense.params["w"][...] = 2.5
    model.dense.grads["b"][...] = -1.0
    assert np.all(model.parameters()["dense.w"] == 2.5)
    assert np.all(model.gradients()["dense.b"] == -1.0)
    assert np.shares_memory(model.dense.params["w"], model.flat().params)


def test_zero_grads_zeroes_in_place():
    layer = tn.Dense(3, 2, np.random.default_rng(0))
    before = dict(layer.grads)
    for g in before.values():
        g[...] = 1.0
    layer.zero_grads()
    assert all(layer.grads[k] is g and not g.any() for k, g in before.items())

    model, _ = _cnn_case()[0]()
    model.flat().grads[:] = 1.0
    model.zero_grads()
    assert not model.flat().grads.any()
