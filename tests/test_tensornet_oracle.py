"""Training on the flat parameter buffer against `tests/tensornet_oracle.py`:
bit-identical fits and checkpoints, and buffers shared, never copied.
`tensornet.conv_max_pool`, all kernel widths over one window matrix with
the bias inside the product, against two per-layer oracles, the
full-window forward and the live-window one with its separate bias
pass: equal where every sum is exact, within 1e-12 elsewhere (the bias
inside the product rounds in another order), with the same argmax,
gates and conv gradients. `tensornet.conv_max_pool_backward`, one
scatter of each filter's peak gradient into the embedding table, against
the dense input gradient binned by `Embedding.backward`: conv gradients
bit for bit, the table's within 1e-12. The forward over token ids and a
table, and its backward, against the same pair over the [batch, L, C]
lookup: everything bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


# --- ConvMaxPool: the shared forward against both oracles -------------------

ORACLES = {"full": oracle.conv_max_pool_forward,
           "live": oracle.conv_max_pool_live_forward}
QUARTERS = [0.0, -0.0, 0.25, -0.5, 1.0, -1.5, 2.0]


def _pools(channels, filters, kernels, seed=0):
    """One ConvMaxPool per kernel width, as `OpcodeCnn` builds them."""
    rng = np.random.default_rng(seed)
    return [tn.ConvMaxPool(channels, filters, k, rng) for k in kernels]


def _copy(pool):
    copy = tn.ConvMaxPool(pool.in_channels, pool.out_channels, pool.kernel,
                          np.random.default_rng(0))
    copy.params["w"][:] = pool.params["w"]
    copy.params["b"][:] = pool.params["b"]
    return copy


def _oracle_copies(pools, forward):
    copies = [_copy(pool) for pool in pools]
    for copy in copies:
        copy.forward = forward.__get__(copy)
    return copies


def _positions(x):
    """x[batch, L, C] as token ids into a table of its own rows, the form
    `ConvMaxPool.forward` hands to `tn.conv_max_pool`."""
    batch, length, channels = x.shape
    return np.arange(batch * length).reshape(batch, length), x.reshape(-1, channels)


def _split(dout, pools):
    return np.split(dout, np.cumsum([p.out_channels for p in pools])[:-1], axis=1)


def _assert_pools_agree(pools, x, exact):
    """`tn.conv_max_pool` over `pools` against each layer's forward on
    both oracles. The argmax, gates and the conv gradients of the dense
    backward must be equal; the outputs bit for bit when `exact`, else
    within 1e-12 (the bias inside the product rounds the sum in another
    order)."""
    out = tn.conv_max_pool(pools, *_positions(x))
    dout = np.random.default_rng(1).normal(size=out.shape)
    tn.conv_max_pool_backward(pools, dout)
    for name, forward in ORACLES.items():
        copies = _oracle_copies(pools, forward)
        ref = np.concatenate([c.forward(x) for c in copies], axis=1)
        if exact:
            assert out.tobytes() == ref.tobytes(), name
        else:
            assert np.allclose(out, ref, rtol=0.0, atol=1e-12), name
        for pool, copy, d in zip(pools, copies, _split(dout, pools)):
            assert np.array_equal(pool._argmax, copy._argmax), name
            assert np.array_equal(pool._gate, copy._gate), name
            oracle.conv_max_pool_dense_backward(copy, d)
            assert np.array_equal(copy.grads["w"], pool.grads["w"], equal_nan=True), name
            assert np.array_equal(copy.grads["b"], pool.grads["b"], equal_nan=True), name


def _set_params(pools, data, values, specials=()):
    """Draw every weight and bias from `values`, then up to three
    weights from `specials`."""
    for pool in pools:
        pool.params["w"][:] = data.draw(arrays(np.float64, pool.params["w"].shape,
                                               elements=st.sampled_from(values)))
        pool.params["b"][:] = data.draw(arrays(np.float64, pool.out_channels,
                                               elements=st.sampled_from(values)))
    if specials:
        for _ in range(data.draw(st.integers(0, 3))):
            w = pools[data.draw(st.integers(0, len(pools) - 1))].params["w"]
            w[tuple(data.draw(st.integers(0, n - 1)) for n in w.shape)] = \
                data.draw(st.sampled_from(specials))


def _pad(x, data):
    """Zero each sample's trailing rows, of any count from none to all."""
    length = x.shape[1]
    for n in range(len(x)):
        x[n, length - data.draw(st.integers(0, length)):] = 0.0
    return x


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_live_windows_match_the_full_forward_exactly(data):
    """One layer, the `ConvMaxPool.forward` case. Quarter-integer inputs
    and weights keep every sum exact, so ties are real ties: the output,
    the argmax and the gradients must equal both oracles' bit for bit."""
    batch = data.draw(st.integers(1, 4))
    channels = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    length = data.draw(st.integers(k, 12))
    x = _pad(data.draw(arrays(np.float64, (batch, length, channels),
                              elements=st.sampled_from(QUARTERS))), data)
    pools = _pools(channels, data.draw(st.integers(1, 5)), [k])
    _set_params(pools, data, QUARTERS)
    assert np.array_equal(pools[0].forward(x), tn.conv_max_pool(pools, *_positions(x)))
    _assert_pools_agree(pools, x, exact=True)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_shared_forward_matches_both_oracles_exactly(data):
    """Kernel triples (k, k+1, k+2) for k from 1 to 4, which covers both
    presets; rows with no padding (the widths' live lengths differ),
    partial padding or all padding; lengths from the widest kernel up;
    ±inf and NaN weights. Quarter-integer values keep every sum exact."""
    k = data.draw(st.integers(1, 4))
    batch = data.draw(st.integers(1, 4))
    channels = data.draw(st.integers(1, 3))
    length = data.draw(st.integers(k + 2, 12))
    x = _pad(data.draw(arrays(np.float64, (batch, length, channels),
                              elements=st.sampled_from(QUARTERS))), data)
    pools = _pools(channels, data.draw(st.integers(1, 5)), (k, k + 1, k + 2))
    _set_params(pools, data, QUARTERS, specials=(np.inf, -np.inf, np.nan))
    _assert_pools_agree(pools, x, exact=True)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_shared_forward_matches_both_oracles_on_normal_values(data):
    """Random normal inputs and parameters, with interior zero rows
    (windows over them alone tie with the idle ones) and any padding:
    equal argmax and gates, outputs within 1e-12."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(1, 4))
    batch = data.draw(st.integers(1, 4))
    channels = data.draw(st.integers(1, 8))
    length = data.draw(st.integers(k + 2, 40))
    x = rng.normal(size=(batch, length, channels))
    x[rng.random((batch, length)) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
    pools = _pools(channels, data.draw(st.integers(1, 16)), (k, k + 1, k + 2),
                   seed=data.draw(st.integers(0, 99)))
    for pool in pools:
        pool.params["b"][:] = rng.normal(size=pool.out_channels)
    _assert_pools_agree(pools, _pad(x, data), exact=False)


def _rows(*live, length=9, channels=3, seed=2):
    """One sample per entry of `live`: random rows, zero where the
    entry says (a string of '1' live, '0' zero), zero after it."""
    rng = np.random.default_rng(seed)
    x = np.zeros((len(live), length, channels))
    for n, pattern in enumerate(live):
        for t, c in enumerate(pattern):
            if c == "1":
                x[n, t] = rng.normal(size=channels)
    return x


@pytest.mark.parametrize("live", [
    ("",),                          # all padding
    ("1", "", "11"),                # live length below k, and all padding
    ("1001101",),                   # interior zeros
    ("11111111",),                  # last nonzero row within k - 1 of the end
    ("111111111",),                 # no padding at all
    ("000000001",),                 # only the last row live
    ("1", "1000000", "0000001"),
])
def test_live_windows_match_the_full_forward(live):
    for kernels in ([3], [3, 4, 5]):
        pools = _pools(3, 16, kernels)
        for pool in pools:
            pool.params["b"][:] = np.random.default_rng(3).normal(size=16)
        _assert_pools_agree(pools, _rows(*live), exact=False)


def test_a_tie_with_the_idle_windows_stays_on_the_live_window():
    """Token 2's embedding row is zero, so a window over it alone is
    exactly b, as every padding window is. Where each window holding
    data is below b, the max ties between that live window and the idle
    ones: it must stay on the live window, as in both oracles. With
    quarter-integer embeddings and parameters every sum is exact and the
    outputs are equal bit for bit; with normal ones, within 1e-12."""
    tokens = np.array([[5, 2, 2, 2, 4, 0, 0, 0, 0, 0],
                       [2, 2, 2, 0, 0, 0, 0, 0, 0, 0],
                       [3, 2, 2, 2, 2, 2, 2, 2, 2, 1]])
    for exact in (True, False):
        rng = np.random.default_rng(4)
        embed = tn.Embedding(6, 4, rng, frozen_padding=True)
        embed.params["weight"][2] = 0.0
        pools = _pools(4, 32, [2], seed=5)
        pools[0].params["b"][:] = rng.normal(size=32)
        if exact:
            for array in (embed.params["weight"], *pools[0].params.values()):
                array[:] = rng.integers(-6, 7, size=array.shape) / 4
            embed.params["weight"][[0, 2]] = 0.0
        _assert_pools_agree(pools, embed.forward(tokens), exact=exact)
        # the tie did happen: some filter peaks at an interior window
        # over zero rows, before the first idle window
        argmax = pools[0]._argmax
        assert (argmax[0] == 1).any() or (argmax[0] == 2).any()
        assert np.all(argmax[1] == 0)
        fused, dense = _scatter_and_dense(pools, embed, tokens)
        assert np.allclose(fused, dense, rtol=0.0, atol=1e-12)
        assert fused[2].any()  # the tied windows' token took gradient


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_weights_match_the_full_forward():
    """A window over zero rows is NaN in a filter with an inf or NaN
    weight, the idle ones too, and np.argmax takes the first NaN: after
    live windows of ±inf, the first idle one. Both oracles do the same."""
    for kernels in ([2], [2, 3, 4]):
        pools = _pools(3, 6, kernels)
        for pool in pools:
            pool.params["w"][1, 0, 0] = np.inf
            pool.params["w"][4, 2, 1] = np.nan
            pool.params["b"][:] = 0.5
        _assert_pools_agree(pools, _rows("1111", "1101", "", "111111111"),
                            exact=False)


def test_cnn_logits_match_the_full_forward_on_padded_rows():
    config = CnnConfig.php(vocab_size=40, max_length=120, num_filters=24, seed=6)
    model = build_cnn(config)
    rng = np.random.default_rng(7)
    rows = np.zeros((12, 120), dtype=np.intp)
    for n, live in enumerate([0, 1, 2, 3, 5, 17, 60, 117, 118, 119, 120, 90]):
        rows[n, :live] = rng.integers(1, 41, size=live)
    logits = model.forward(rows)
    embedded = model.embedding.forward(rows)
    for forward in ORACLES.values():
        merged = np.concatenate(
            [c.forward(embedded) for c in _oracle_copies(model.convs, forward)], axis=1)
        assert np.max(np.abs(model.dense.forward(merged) - logits)) <= 1e-12


# --- The CNN backward: one scatter into the table against the dense dx ------

def _scatter_and_dense(pools, embedding, tokens, seed=1):
    """One forward of `pools` over `tokens` into `embedding`'s table, then
    `tn.conv_max_pool_backward` into `embedding`; the same on fresh
    copies of both with the lookup forward and the dense backward of
    `tests/tensornet_oracle.py`. The argmax and the conv gradients must
    be equal bit for bit, and the frozen padding row zero on both sides.
    Returns the table gradients, the scatter's first."""
    for pool in pools:
        pool.zero_grads()
    embedding.zero_grads()
    convs = [_copy(pool) for pool in pools]
    table = tn.Embedding(embedding.num_embeddings, embedding.dim,
                         np.random.default_rng(0), frozen_padding=True)
    table.params["weight"][:] = embedding.params["weight"]
    out = tn.conv_max_pool(pools, tokens, embedding.params["weight"])
    dout = np.random.default_rng(seed).normal(size=out.shape)
    tn.conv_max_pool_backward(pools, dout, embedding)
    oracle.lookup_conv_max_pool(convs, table.forward(tokens))
    oracle.embedded_conv_dense_backward(convs, dout, table)
    for pool, conv in zip(pools, convs):
        assert np.array_equal(pool._argmax, conv._argmax)
        assert pool.grads["w"].tobytes() == conv.grads["w"].tobytes()
        assert pool.grads["b"].tobytes() == conv.grads["b"].tobytes()
    fused, dense = embedding.grads["weight"], table.grads["weight"]
    assert not fused[0].any() and not dense[0].any()
    return fused, dense


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_scatter_backward_matches_the_dense_oracle(data):
    """Kernel triples (k, k+1, k+2) for k from 1 to 4, which covers both
    presets; rows with no padding, partial padding or all padding; a
    token whose embedding row may be zero, so that windows over it alone
    tie with the idle ones. Quarter-integer tables and parameters keep
    the forward's sums exact, so the ties are real. Conv gradients are
    equal bit for bit, the embedding gradient within 1e-12."""
    k = data.draw(st.integers(1, 4))
    batch = data.draw(st.integers(1, 4))
    channels = data.draw(st.integers(1, 3))
    vocab = data.draw(st.integers(1, 6))
    length = data.draw(st.integers(k + 2, 12))
    embedding = tn.Embedding(vocab + 1, channels, np.random.default_rng(0),
                             frozen_padding=True)
    embedding.params["weight"][1:] = data.draw(arrays(
        np.float64, (vocab, channels), elements=st.sampled_from(QUARTERS)))
    if data.draw(st.booleans()):
        embedding.params["weight"][1] = 0.0
    tokens = data.draw(arrays(np.intp, (batch, length),
                              elements=st.integers(1, vocab)))
    for n in range(batch):
        tokens[n, length - data.draw(st.integers(0, length)):] = 0
    pools = _pools(channels, data.draw(st.integers(1, 5)), (k, k + 1, k + 2))
    _set_params(pools, data, QUARTERS)
    fused, dense = _scatter_and_dense(pools, embedding, tokens,
                                      seed=data.draw(st.integers(0, 99)))
    assert np.allclose(fused, dense, rtol=0.0, atol=1e-12)


def test_scatter_backward_matches_the_dense_oracle_at_the_bench_shape():
    """One PHP-preset batch as training sees it: 96 rows of 2,000 tokens
    over 180 opcodes with 128 filters per width, live lengths from 300
    up. The table gradient is within 1e-12 of the dense one."""
    rng = np.random.default_rng(11)
    tokens = np.zeros((96, 2000), dtype=np.intp)
    for n, live in enumerate(rng.integers(300, 2001, size=96)):
        tokens[n, :live] = rng.integers(1, 181, size=live)
    embedding = tn.Embedding(181, 8, rng, frozen_padding=True)
    pools = _pools(8, 128, (3, 4, 5), seed=12)
    fused, dense = _scatter_and_dense(pools, embedding, tokens)
    assert np.allclose(fused, dense, rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_non_finite_weight_marks_its_channel_in_every_table_row():
    """The one documented difference from the dense path. With
    w[f, c, j] inf or NaN, the scatter adds S @ w[:, :, j], whose channel
    c is non-finite in every row, since 0 * inf is NaN; the dense path
    marks only the rows of the tokens its windows read. So the scatter's
    non-finite entries are channel c of every row but the frozen one,
    the dense path's are a strict subset of them, and every other entry
    agrees within 1e-12."""
    tokens = np.array([[1, 2, 3, 2, 1, 0, 0, 0, 0],
                       [3, 3, 1, 0, 0, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0, 0, 0, 0, 0],
                       [2, 1, 3, 1, 2, 3, 1, 2, 3]])
    embedding = tn.Embedding(8, 3, np.random.default_rng(3), frozen_padding=True)
    for kernels in ([2], [2, 3, 4]):
        pools = _pools(3, 6, kernels)
        pools[0].params["w"][1, 0, 0] = np.inf
        pools[-1].params["w"][4, 2, 1] = np.nan
        for pool in pools:
            pool.params["b"][:] = 0.5
        fused, dense = _scatter_and_dense(pools, embedding, tokens)
        marked = np.zeros(fused.shape, dtype=bool)
        marked[1:, [0, 2]] = True
        assert np.array_equal(~np.isfinite(fused), marked)
        assert not (~np.isfinite(dense) & ~marked).any()
        assert (~np.isfinite(dense)).sum() < marked.sum()
        assert np.allclose(fused[~marked], dense[~marked], rtol=0.0, atol=1e-12)


# --- The forward from token ids against the [batch, L, C] lookup ------------

def _tokens_and_lookup(pools, weight, tokens, frozen_padding=True, seed=1):
    """`tn.conv_max_pool` over `tokens` into the table `weight`, then
    `tn.conv_max_pool_backward` into an embedding holding that table;
    the same on copies with `oracle.lookup_conv_max_pool` over the
    embedding's lookup and `oracle.lookup_conv_max_pool_backward`.
    Outputs, argmax, gates, the w and b gradients and the table
    gradients must be equal bit for bit."""
    def embedding():
        layer = tn.Embedding(len(weight), weight.shape[1], np.random.default_rng(0),
                             frozen_padding=frozen_padding)
        layer.params["weight"][:] = weight
        return layer

    fused, looked = embedding(), embedding()
    convs = [_copy(pool) for pool in pools]
    out = tn.conv_max_pool(pools, tokens, fused.params["weight"])
    ref = oracle.lookup_conv_max_pool(convs, looked.forward(tokens))
    assert out.tobytes() == ref.tobytes()
    dout = np.random.default_rng(seed).normal(size=out.shape)
    tn.conv_max_pool_backward(pools, dout, fused)
    oracle.lookup_conv_max_pool_backward(convs, dout, looked)
    for pool, conv in zip(pools, convs):
        assert pool._argmax.tobytes() == conv._argmax.tobytes()
        assert pool._gate.tobytes() == conv._gate.tobytes()
        assert pool.grads["w"].tobytes() == conv.grads["w"].tobytes()
        assert pool.grads["b"].tobytes() == conv.grads["b"].tobytes()
    assert fused.grads["weight"].tobytes() == looked.grads["weight"].tobytes()


def _padded(tokens, lives):
    """`tokens` with each sample's ids zeroed from its live length on."""
    tokens = tokens.copy()
    tokens[np.arange(tokens.shape[1]) >= np.asarray(lives)[:, None]] = 0
    return tokens


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_token_forward_matches_the_lookup_bit_for_bit(data):
    """Kernel triples (k, k+1, k+2) for k from 1 to 4; batches of 1 to 3
    and of 96; live lengths of none, the widest kernel less one, the
    widest kernel, or any; table rows of quarter values, all zeros (a
    token that reads as padding) or holding a NaN or an infinity; a
    frozen zero padding row or a live row 0; ±inf and NaN weights."""
    k = data.draw(st.integers(1, 4))
    widest = k + 2
    batch = data.draw(st.sampled_from([1, 2, 3, 96]))
    channels = data.draw(st.integers(1, 3))
    vocab = data.draw(st.integers(1, 6))
    length = data.draw(st.integers(widest, 12))
    frozen = data.draw(st.booleans())
    weight = data.draw(arrays(np.float64, (vocab + 1, channels),
                              elements=st.sampled_from(QUARTERS)))
    for row in range(1, vocab + 1):
        kind = data.draw(st.sampled_from(["values", "zero", "special"]))
        if kind == "zero":
            weight[row] = 0.0
        elif kind == "special":
            weight[row, data.draw(st.integers(0, channels - 1))] = \
                data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if frozen:
        weight[0] = 0.0
    live = st.one_of(st.sampled_from([0, widest - 1, widest]), st.integers(0, length))
    lives = [min(data.draw(live), length) for _ in range(batch)]
    tokens = _padded(data.draw(arrays(np.intp, (batch, length),
                                      elements=st.integers(0, vocab))), lives)
    pools = _pools(channels, data.draw(st.integers(1, 5)), (k, k + 1, k + 2))
    _set_params(pools, data, QUARTERS, specials=(np.inf, -np.inf, np.nan))
    _tokens_and_lookup(pools, weight, tokens, frozen_padding=frozen,
                       seed=data.draw(st.integers(0, 99)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("lives", [
    [0, 40, 17],            # an all-padding sample
    [1, 2, 4, 40],          # live lengths below the widest kernel
    [5, 5, 40],             # live lengths equal to the widest kernel
    [23],                   # batch 1
    list(range(41)) * 2 + list(range(0, 42, 3)),  # batch 96
])
@pytest.mark.parametrize("rows", ["normal", "zero row", "nan and inf rows"])
def test_token_forward_matches_the_lookup_on_each_edge_case(lives, rows):
    """Normal values at the PHP preset's kernel widths and 8 channels.
    Token 3's row is zero in "zero row", so it reads as padding, also
    after the last other live token; tokens 2 and 4 hold a NaN and an
    infinity in "nan and inf rows"."""
    rng = np.random.default_rng(len(lives))
    weight = rng.normal(size=(10, 8))
    weight[0] = 0.0
    if rows == "zero row":
        weight[3] = 0.0
    elif rows == "nan and inf rows":
        weight[2, 5], weight[4, 1] = np.nan, np.inf
    tokens = rng.integers(1, 10, size=(len(lives), 40))
    tokens[:, [7, 8, 20]] = 3
    assert len(lives) in (1, 3, 4, 96)
    pools = _pools(8, 16, (3, 4, 5), seed=len(lives))
    for pool in pools:
        pool.params["b"][:] = rng.normal(size=16)
    _tokens_and_lookup(pools, weight, _padded(tokens, lives))
