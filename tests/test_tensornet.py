"""Network core: losses, layers, optimizer, training loop, checkpoints."""

import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsdetect import tensornet as tn
from wsdetect.tensornet import layers
from wsdetect.tensornet.graph import CheckpointError
from wsdetect.tensornet.layers import ShapeError, _keep_where
from wsdetect.trafficmodel import TabularConfig, TabularDataset, build_dnn


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(tn.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_hand_arithmetic(self):
        probs = tn.softmax(np.array([[math.log(3), math.log(1)]]))
        assert np.allclose(probs, [[0.75, 0.25]], atol=1e-12)

    def test_no_overflow_on_huge_logits(self):
        probs = tn.softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tn.softmax(np.array([[np.inf, 0.0]]))

    @given(arrays(np.float64, (5, 3), elements=st.floats(-50, 50)))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, logits):
        probs = tn.softmax(logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @given(arrays(np.float64, (4, 3), elements=st.floats(-30, 30)),
           st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_argmax_invariant_to_row_shift(self, logits, shift):
        # keep rows tie-free so argmax is well defined
        logits = logits + np.arange(3) * 1e-3
        before = tn.softmax(logits).argmax(axis=1)
        after = tn.softmax(logits + shift).argmax(axis=1)
        assert np.array_equal(before, after)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        assert tn.cross_entropy(np.array([[0.0, 1.0]]), [1]) == pytest.approx(0.0)

    def test_half_probability(self):
        loss = tn.cross_entropy(np.array([[0.5, 0.5]]), [1])
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_weighted_mean_expansion(self):
        probs = np.array([[0.8, 0.2], [0.3, 0.7]])
        a = -math.log(0.8)  # y=0 sample
        b = -math.log(0.7)  # y=1 sample
        weights = tn.ClassWeights(benign=2.0, webshell=1.0)
        loss = tn.cross_entropy(probs, [0, 1], weights)
        assert loss == pytest.approx((2 * a + b) / 2, rel=1e-12)

    def test_zero_probability_clamped(self):
        loss = tn.cross_entropy(np.array([[1.0, 0.0]]), [1])
        assert np.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_unit_weights_bit_identical(self):
        rng = np.random.default_rng(0)
        probs = tn.softmax(rng.normal(size=(16, 2)))
        labels = rng.integers(0, 2, size=16)
        plain = tn.cross_entropy(probs, labels)
        weighted = tn.cross_entropy(probs, labels, tn.ClassWeights(1.0, 1.0))
        assert plain == weighted  # bit-for-bit

    def test_fused_head_gradient_closed_form(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        head = tn.SoftmaxCrossEntropy()
        _, probs = head.forward(logits, labels)
        onehot = np.eye(2)[labels]
        assert np.allclose(head.backward(), (probs - onehot) / 6, atol=1e-15)


class TestClassWeights:
    def test_balanced(self):
        w = tn.class_weights(100, 100)
        assert (w.benign, w.webshell) == (1.0, 1.0)

    def test_large_imbalance_case(self):
        w = tn.class_weights(180079, 7210)
        assert w.benign == pytest.approx(0.520019, abs=1e-5)
        assert w.webshell == pytest.approx(12.98814, abs=1e-5)

    def test_small_hand_case(self):
        w = tn.class_weights(3, 1)
        assert w.benign == pytest.approx(2 / 3)
        assert w.webshell == pytest.approx(2.0)

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            tn.class_weights(0, 5)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_mass_conservation(self, nb, nw):
        w = tn.class_weights(nb, nw)
        total = nb + nw
        assert nb * w.benign + nw * w.webshell == pytest.approx(
            total, rel=1e-9)


def _conv_max_pool(c_in, c_out, k, seed=0):
    return tn.ConvMaxPool(c_in, c_out, k, np.random.default_rng(seed))


def _identity_pool(channels):
    """Kernel-1 ConvMaxPool with identity weights: the conv stage passes
    its input through, so the layer is max over time, then ReLU."""
    layer = _conv_max_pool(channels, channels, 1)
    layer.params["w"][:] = np.eye(channels)[:, :, None]
    return layer


def _table(rows):
    """A frozen-padding embedding whose table is `rows` below a zero row 0."""
    rows = np.asarray(rows, dtype=np.float64)
    table = tn.Embedding(len(rows) + 1, rows.shape[1], np.random.default_rng(0),
                         frozen_padding=True)
    table.params["weight"][1:] = rows
    return table


def _naive_conv_max_pool(x, w, b, dout):
    """Triple-loop reference: forward output, dx, dw, db."""
    batch, length, channels = x.shape
    filters, _, k = w.shape
    out = np.zeros((batch, filters))
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for n in range(batch):
        for f in range(filters):
            best, best_t = None, None
            for t in range(length - k + 1):
                h = b[f] + sum(w[f, c, j] * x[n, t + j, c]
                               for j in range(k) for c in range(channels))
                if best is None or h > best:  # first position wins ties
                    best, best_t = h, t
            if best > 0:
                out[n, f] = best
                db[f] += dout[n, f]
                for j in range(k):
                    dw[f, :, j] += dout[n, f] * x[n, best_t + j]
                    dx[n, best_t + j] += dout[n, f] * w[f, :, j]
    return out, dx, dw, db


class TestConv1d:
    """The convolution stage of ConvMaxPool."""

    def test_all_ones_kernel_sums_window(self):
        layer = _conv_max_pool(1, 1, 3)
        layer.params["w"][:] = 1.0
        layer.params["b"][:] = 0.0
        out = layer.forward(np.array([[[1.0], [2.0], [3.0]]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(6.0)

    def test_kernel_one_identity(self):
        layer = _identity_pool(3)
        x = np.array([[[3.0, 1.0, 4.0]]])
        assert np.array_equal(layer.forward(x), x[:, 0, :])

    def test_zero_weights_bias_everywhere(self):
        layer = _conv_max_pool(2, 3, 2)
        layer.params["w"][:] = 0.0
        layer.params["b"][:] = 5.0
        out = layer.forward(np.ones((1, 4, 2)))
        assert out.shape == (1, 3)
        assert np.all(out == 5.0)

    def test_too_short_input(self):
        layer = _conv_max_pool(1, 1, 3)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 2, 1)))


class TestGlobalMaxPool:
    """The max-over-time stage of ConvMaxPool (kernel-1 identity conv)."""

    def test_columnwise_max(self):
        out = _identity_pool(2).forward(np.array([[[1.0, 5.0], [3.0, 2.0]]]))
        assert np.allclose(out, [[3.0, 5.0]])

    def test_single_row_identity(self):
        row = np.array([[[7.0, 2.0, 0.5]]])
        assert np.array_equal(_identity_pool(3).forward(row), row[:, 0, :])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            _identity_pool(2).forward(np.ones((1, 0, 2)))

    def test_tie_routes_gradient_to_first(self):
        layer = _identity_pool(1)
        table = _table([[2.0], [2.0], [1.0]])
        tn.conv_max_pool([layer], [[1, 2, 3]], table.params["weight"])  # rows 0 and 1 tie
        tn.conv_max_pool_backward([layer], np.array([[1.0]]), table)
        assert np.array_equal(table.grads["weight"][:, 0], [0.0, 1.0, 0.0, 0.0])


class TestConvMaxPool:
    def test_all_windows_negative_gives_zero_output_and_gradient(self):
        layer = _conv_max_pool(2, 3, 2)
        layer.params["w"][:] = 1.0
        layer.params["b"][:] = -0.5
        rng = np.random.default_rng(0)
        table = _table(-np.abs(rng.normal(size=(4, 2))))
        tokens = rng.integers(1, 5, size=(2, 5))
        assert np.array_equal(tn.conv_max_pool([layer], tokens, table.params["weight"]),
                              np.zeros((2, 3)))
        tn.conv_max_pool_backward([layer], np.ones((2, 3)), table)
        assert not table.grads["weight"].any()
        assert not layer.grads["w"].any() and not layer.grads["b"].any()

    def test_backward_reads_the_table_the_forward_saw(self):
        """An update to the table between the forward and the backward
        does not reach the w gradients: the forward keeps a copy."""
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 5, size=(3, 7))
        rows = rng.normal(size=(4, 2))

        def step(update):
            layer = _conv_max_pool(2, 4, 3)
            layer.params["b"][:] = 1.0
            table = _table(rows)
            tn.conv_max_pool([layer], tokens, table.params["weight"])
            table.params["weight"][1:] += update
            tn.conv_max_pool_backward([layer], np.ones((3, 4)), table)
            assert layer.grads["w"].any()
            return layer.grads["w"].tobytes(), table.grads["weight"].tobytes()

        assert step(9.0) == step(0.0)

    def test_backward_into_another_table_rejected(self):
        """After a forward over x's own rows, an embedding's table is not
        the one the forward read."""
        layer = _conv_max_pool(2, 4, 3)
        layer.forward(np.ones((3, 7, 2)))
        with pytest.raises(ShapeError, match="21 rows"):
            tn.conv_max_pool_backward([layer], np.ones((3, 4)), _table(np.ones((4, 2))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            _conv_max_pool(2, 1, 1).forward(np.ones((1, 4, 3)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference(self, data):
        batch = data.draw(st.integers(1, 3))
        channels = data.draw(st.integers(1, 3))
        filters = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 3))
        length = data.draw(st.integers(k, 6))
        # small integers keep every sum exact, so ties are real ties
        ints = st.integers(-3, 3).map(float)
        # x is a table lookup: tokens may repeat, and token 0 is padding
        vocab = data.draw(st.integers(1, batch * length))
        table = _table(data.draw(arrays(np.float64, (vocab, channels), elements=ints)))
        tokens = data.draw(arrays(np.intp, (batch, length),
                                  elements=st.integers(0, vocab)))
        x = table.forward(tokens)
        w = data.draw(arrays(np.float64, (filters, channels, k), elements=ints))
        b = data.draw(arrays(np.float64, filters, elements=ints))
        dout = data.draw(arrays(np.float64, (batch, filters), elements=ints))
        layer = _conv_max_pool(channels, filters, k)
        layer.params["w"][:] = w
        layer.params["b"][:] = b
        out, dx, dw, db = _naive_conv_max_pool(x, w, b, dout)
        # the naive dx, binned by token, with the padding row frozen
        dtable = np.zeros_like(table.params["weight"])
        np.add.at(dtable, tokens, dx)
        dtable[0] = 0.0
        assert np.array_equal(layer.forward(x), out)
        assert np.array_equal(tn.conv_max_pool([layer], tokens, table.params["weight"]), out)
        tn.conv_max_pool_backward([layer], dout, table)
        assert np.array_equal(table.grads["weight"], dtable)
        assert np.array_equal(layer.grads["w"], dw)
        assert np.array_equal(layer.grads["b"], db)


class TestBatchNorm:
    def test_train_normalizes(self):
        layer = tn.BatchNorm1d(1)
        out = layer.forward(np.array([[0.0], [2.0]]), mode="train")
        assert np.allclose(out, [[-1.0], [1.0]], atol=1e-4)

    def test_eval_identity_with_unit_stats(self):
        layer = tn.BatchNorm1d(2)
        x = np.array([[0.3, -0.7], [1.2, 0.0]])
        out = layer.forward(x, mode="eval")
        assert np.allclose(out, x, atol=1e-5)

    def test_gamma_zero_gives_beta(self):
        layer = tn.BatchNorm1d(2)
        layer.params["gamma"][:] = 0.0
        layer.params["beta"][:] = 3.0
        out = layer.forward(np.random.default_rng(0).normal(size=(4, 2)),
                            mode="train")
        assert np.all(out == 3.0)

    def test_batch_of_one_rejected_in_train(self):
        layer = tn.BatchNorm1d(2)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 2)), mode="train")

    def test_running_stats_update_only_in_train(self):
        layer = tn.BatchNorm1d(1)
        x = np.array([[10.0], [20.0]])
        layer.forward(x, mode="gradcheck")
        assert layer.buffers["running_mean"][0] == 0.0
        layer.forward(x, mode="train")
        assert layer.buffers["running_mean"][0] == pytest.approx(1.5)  # 0.9*0 + 0.1*15


class TestDropout:
    def test_eval_is_identity(self):
        layer = tn.Dropout(0.5)
        x = np.random.default_rng(0).normal(size=(8, 4))
        assert np.array_equal(layer.forward(x, mode="eval"), x)

    def test_train_scales_survivors(self):
        layer = tn.Dropout(0.5)
        rng = np.random.default_rng(0)
        x = np.ones((1000, 1))
        out = layer.forward(x, mode="train", rng=rng)
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scale 1/(1-0.5)
        assert 400 < len(kept) < 600

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            tn.Dropout(1.0)


def _flat(value, grad):
    flat = tn.FlatParams({"w": value})
    flat.grads[:] = grad
    return flat


def _small_dnn():
    rng = np.random.default_rng(2)
    data = TabularDataset(np.column_stack([rng.choice([80, 443], size=40),
                                           rng.choice([6, 17], size=40)]),
                          rng.normal(size=(40, 77)), rng.integers(0, 2, size=40))
    return build_dnn(TabularConfig(hidden=(8, 4)), data)


class TestAdam:
    def test_first_step_delta(self):
        flat = _flat(np.zeros(1), 1.0)
        state = tn.AdamState(lr=0.001)
        tn.adam_step(state, flat)
        assert flat.params[0] == pytest.approx(-0.000999999, abs=1e-9)

    def test_zero_gradient_no_move(self):
        flat = _flat(np.full(3, 7.0), 0.0)
        state = tn.AdamState(lr=0.01)
        tn.adam_step(state, flat)
        assert np.all(flat.params == 7.0)

    def test_constant_gradient_step_sizes_non_increasing(self):
        flat = _flat(np.zeros(1), 1.0)
        state = tn.AdamState(lr=0.001)
        tn.adam_step(state, flat)
        first = abs(flat.params[0])
        before = flat.params[0]
        tn.adam_step(state, flat)
        second = abs(flat.params[0] - before)
        assert second <= first * (1 + 1e-6)

    def test_nonfinite_gradient_fails_fast(self):
        with pytest.raises(ValueError, match="non-finite"):
            tn.adam_step(tn.AdamState(), _flat(np.zeros(1), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, entry", [("embed0.weight", 0), ("embed0.weight", -1),
                                             ("head.b", 0), ("head.b", -1)])
    def test_nonfinite_gradient_names_its_parameter_and_changes_nothing(
            self, bad, name, entry):
        model = _small_dnn()
        flat = model.flat()
        assert flat.names[0] == "embed0.weight" and flat.names[-1] == "head.b"
        state = tn.AdamState()
        flat.grads[:] = np.random.default_rng(0).normal(size=flat.grads.size)
        tn.adam_step(state, flat)
        before = [a.tobytes() for a in (flat.params, state.m, state.v)]
        model.gradients()[name].reshape(-1)[entry] = bad
        with pytest.raises(ValueError,
                           match=re.escape(f"non-finite gradient for parameter {name!r}")):
            tn.adam_step(state, flat)
        assert [a.tobytes() for a in (flat.params, state.m, state.v)] == before
        assert state.t == 1

    def test_huge_finite_gradients_do_not_raise(self):
        flat = _small_dnn().flat()
        flat.grads[:] = 1e308
        flat.grads[::2] = -1e308
        state = tn.AdamState()
        with np.errstate(over="ignore"):  # (1 - beta2) * g * g overflows
            tn.adam_step(state, flat)
        assert state.t == 1

    def test_entry_moves_again_after_one_huge_gradient(self):
        # 1e160 squared overflows: left at inf, v would hold the entry
        # still for good; the other entry is updated as if alone
        flat = _flat(np.full(2, 0.5), 1.0)
        flat.grads[0] = 1e160
        alone = _flat(np.full(1, 0.5), 1.0)
        state, alone_state = tn.AdamState(), tn.AdamState()
        tn.adam_step(state, flat)
        tn.adam_step(alone_state, alone)
        assert np.isfinite(state.v).all()
        after_spike = flat.params[0]
        for _ in range(5):
            flat.grads[:] = 1.0
            tn.adam_step(state, flat)
            tn.adam_step(alone_state, alone)
        assert np.isfinite(flat.params).all()
        assert flat.params[0] != after_spike
        assert flat.params[1] == alone.params[0]

    def test_one_huge_gradient_then_small_ones_move_about_lr(self):
        # exact Adam is scale-free: each of the six steps moves about lr
        flat = _flat(np.full(1, 0.5), 1e160)
        state = tn.AdamState(lr=1e-3)
        tn.adam_step(state, flat)
        for _ in range(5):
            flat.grads[:] = 1.0
            tn.adam_step(state, flat)
        assert abs(flat.params[0] - 0.5) < 10 * state.lr

    def test_run_of_gradients_below_the_overflow_stays_finite(self):
        # 4e155 squares without overflow, but v sums past the largest float
        flat = _flat(np.full(1, 0.5), 4e155)
        state = tn.AdamState()
        with np.errstate(over="raise"):
            for _ in range(5):
                tn.adam_step(state, flat)
        assert np.isfinite(state.v).all() and np.isfinite(flat.params).all()


class TestKeepWhere:
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
               arrays(np.float64, (n, 3), elements=st.floats(
                   allow_nan=True, allow_infinity=True, allow_subnormal=True)),
               arrays(np.bool_, (n, 3)))),
           st.sampled_from(["whole", "strided", "transposed"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_np_where_bit_for_bit(self, pair, layout):
        x, mask = pair
        x = np.concatenate([x, [[0.0, -0.0, 5e-324], [-5e-324, np.inf, -np.inf]]])
        mask = np.concatenate([mask, [[True, True, True], [True, False, True]]])
        if layout == "strided":
            x, mask = x[::2, ::2], mask[::2, ::2]
        elif layout == "transposed":
            x, mask = x.T, mask.T
        got = _keep_where(mask, x)
        want = np.where(mask, x, 0.0)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_no_where_select_left_in_layers(self):
        source = Path(layers.__file__).read_text()
        assert not re.search(r"np\.where\(", source)


class _DenseNet(tn.ModelGraph):
    kind = "test_dense_net"

    def __init__(self, seed=0, hidden=16):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.d1 = self.add_layer("d1", tn.Dense(2, hidden, rng))
        self.act = self.add_layer("act", tn.ReLU())
        self.d2 = self.add_layer("d2", tn.Dense(hidden, 2, rng))

    def forward(self, x, mode="eval", rng=None):
        h = self.act.forward(self.d1.forward(x, mode, rng), mode, rng)
        return self.d2.forward(h, mode, rng)

    def backward(self, dlogits):
        self.d1.backward(self.act.backward(self.d2.backward(dlogits)))


def _separable_blobs(n=200, seed=11):
    rng = np.random.default_rng(seed)
    x0 = rng.normal([-2.0, -2.0], 0.4, size=(n // 2, 2))
    x1 = rng.normal([2.0, 2.0], 0.4, size=(n // 2, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


class TestFit:
    def test_zero_epochs_leaves_parameters_untouched(self):
        model = _DenseNet()
        before = {k: v.copy() for k, v in model.parameters().items()}
        x, y = _separable_blobs()
        history = tn.fit(model, x, y, epochs=0, batch_size=16,
                         learning_rate=0.01)
        assert len(history) == 0
        for name, value in model.parameters().items():
            assert np.array_equal(before[name], value)

    def test_learns_separable_data(self):
        x, y = _separable_blobs()
        # linear-separability oracle: one hyperplane already classifies all
        assert np.all((x.sum(axis=1) > 0).astype(int) == y)
        model = _DenseNet()
        history = tn.fit(model, x, y, epochs=20, batch_size=16,
                         learning_rate=0.01, seed=0)
        assert len(history) == 20
        assert history.epochs[-1].accuracy >= 0.99

    def test_same_seed_identical_history(self):
        x, y = _separable_blobs()
        h1 = tn.fit(_DenseNet(), x, y, epochs=5, batch_size=32,
                    learning_rate=0.01, seed=42)
        h2 = tn.fit(_DenseNet(), x, y, epochs=5, batch_size=32,
                    learning_rate=0.01, seed=42)
        assert [(e.loss, e.accuracy) for e in h1.epochs] == \
            [(e.loss, e.accuracy) for e in h2.epochs]

    def test_epochs_report_seconds_and_samples_per_s(self):
        x, y = _separable_blobs(66)  # five batches of 13 and a skipped 1
        history = tn.fit(_DenseNet(), x, y, epochs=3, batch_size=13,
                         learning_rate=0.01)
        for epoch in history.epochs:
            assert epoch.seconds > 0 and epoch.samples_per_s > 0
            assert epoch.samples_per_s * epoch.seconds == pytest.approx(65, rel=1e-12)
        assert history.seconds == sum(e.seconds for e in history.epochs)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            tn.fit(_DenseNet(), np.zeros((0, 2)), np.zeros(0, dtype=int),
                   epochs=1, batch_size=4, learning_rate=0.01)

    def test_bad_batch_size(self):
        x, y = _separable_blobs(20)
        with pytest.raises(ValueError):
            tn.fit(_DenseNet(), x, y, epochs=1, batch_size=0, learning_rate=0.01)

    def test_weighted_with_unit_weights_matches_unweighted(self):
        x, y = _separable_blobs(80)
        m1 = _DenseNet(seed=3)
        m2 = _DenseNet(seed=3)
        tn.fit(m1, x, y, epochs=3, batch_size=16, learning_rate=0.01, seed=7)
        tn.fit(m2, x, y, epochs=3, batch_size=16, learning_rate=0.01, seed=7,
               weights=tn.ClassWeights(1.0, 1.0))
        for name in m1.parameters():
            assert np.array_equal(m1.parameters()[name], m2.parameters()[name])


def _tiny_cnn_checkpoint(path):
    from wsdetect.srcmodel import CnnConfig, build_cnn

    config = CnnConfig(vocab_size=7, max_length=12, embedding_dim=4,
                       kernel_sizes=(2, 3, 4), num_filters=3, seed=5)
    tn.save_model(build_cnn(config, language="php"), path)


def _rewrite_checkpoint(path, rewrite):
    """Rewrite a checkpoint: `rewrite(header, payload)` gets the parsed
    header and the array bytes and returns the new header bytes and
    payload."""
    raw = path.read_bytes()
    magic_len = len(b"WSNET1\n")
    (header_len,) = struct.unpack("<Q", raw[magic_len:magic_len + 8])
    body = magic_len + 8 + header_len
    blob, payload = rewrite(json.loads(raw[magic_len + 8:body]), raw[body:])
    path.write_bytes(raw[:magic_len] + struct.pack("<Q", len(blob)) + blob
                     + payload)


def _edit_checkpoint(path, edit):
    """Rewrite a checkpoint: `edit(manifest, payload)` returns the new
    payload and may change the manifest in place."""
    def rewrite(header, payload):
        payload = edit(header["arrays"], payload)
        return json.dumps(header).encode("utf-8"), payload
    _rewrite_checkpoint(path, rewrite)


def _header_edit(edit):
    """A header rewrite that applies `edit(header)` in place, then
    re-encodes the header as JSON."""
    def rewrite(header):
        edit(header)
        return json.dumps(header).encode("utf-8")
    return rewrite


# each maps the parsed header of a valid checkpoint to the header bytes
# written in its place
_MALFORMED_HEADERS = {
    "not_json": lambda header: b"{not json",
    "not_utf8": lambda header: b'{"kind": "\xff"}',
    "not_an_object": lambda header: b"[]",
    "no_kind": _header_edit(lambda h: h.pop("kind")),
    "no_config": _header_edit(lambda h: h.pop("config")),
    "no_arrays": _header_edit(lambda h: h.pop("arrays")),
    "entry_without_name": _header_edit(lambda h: h["arrays"][0].pop("name")),
    "entry_without_role": _header_edit(lambda h: h["arrays"][0].pop("role")),
    "entry_without_shape": _header_edit(lambda h: h["arrays"][0].pop("shape")),
    "config_unknown_key": _header_edit(
        lambda h: h["config"].update(colour="red")),  # TypeError
    "config_rejected": _header_edit(
        lambda h: h["config"].update(kernel_sizes=[2, 5, 9])),  # SrcModelError
}


class TestCheckpoint:
    def test_roundtrip_preserves_parameters(self, tmp_path):
        from wsdetect.srcmodel import CnnConfig, build_cnn

        config = CnnConfig(vocab_size=7, max_length=12, embedding_dim=4,
                           kernel_sizes=(2, 3, 4), num_filters=3, seed=5)
        model = build_cnn(config, language="php")
        path = tmp_path / "model.bin"
        tn.save_model(model, path)
        loaded = tn.load_model(path)
        assert loaded.config == config
        assert loaded.language == "php"
        for name, value in model.parameters().items():
            assert np.array_equal(value, loaded.parameters()[name])
        x = np.random.default_rng(0).integers(0, 8, size=(3, 12))
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(Exception, match="WSNET1"):
            tn.load_model(path)

    def test_missing_array_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        _tiny_cnn_checkpoint(path)

        def drop_last(manifest, payload):
            assert manifest.pop()["name"] == "dense.b"
            return payload[:-2 * 8]

        _edit_checkpoint(path, drop_last)
        with pytest.raises(CheckpointError, match="dense.b"):
            tn.load_model(path)

    def test_duplicate_array_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        _tiny_cnn_checkpoint(path)

        def repeat_last(manifest, payload):
            manifest.append(dict(manifest[-1]))
            return payload + payload[-2 * 8:]

        _edit_checkpoint(path, repeat_last)
        with pytest.raises(CheckpointError, match="twice"):
            tn.load_model(path)

    def test_wrong_shape_rejected(self, tmp_path):
        # a [1] array would broadcast into the [2] slot of dense.b
        path = tmp_path / "model.bin"
        _tiny_cnn_checkpoint(path)

        def shrink_last(manifest, payload):
            manifest[-1]["shape"] = [1]
            return payload[:-8]

        _edit_checkpoint(path, shrink_last)
        with pytest.raises(CheckpointError, match="shape"):
            tn.load_model(path)

    @pytest.mark.parametrize("raw", [
        b"WSNET1\n",
        b"WSNET1\n" + struct.pack("<Q", 2 ** 62) + b"{}",
    ], ids=["magic_only", "header_length_past_eof"])
    def test_truncated_header_rejected(self, tmp_path, raw):
        path = tmp_path / "model.bin"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            tn.load_model(path)

    @pytest.mark.parametrize("rewrite", _MALFORMED_HEADERS.values(),
                             ids=_MALFORMED_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, rewrite):
        path = tmp_path / "model.bin"
        _tiny_cnn_checkpoint(path)
        _rewrite_checkpoint(
            path, lambda header, payload: (rewrite(header), payload))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            tn.load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        _tiny_cnn_checkpoint(path)
        _edit_checkpoint(path, lambda manifest, payload: payload + bytes(8))
        with pytest.raises(CheckpointError, match="trailing"):
            tn.load_model(path)

    def test_a_fresh_interpreter_loads_either_kind(self, tmp_path):
        # the kind's module is imported by the load, whatever was imported before
        cnn, dnn = tmp_path / "cnn.bin", tmp_path / "dnn.bin"
        _tiny_cnn_checkpoint(cnn)
        tn.save_model(_small_dnn(), dnn)
        script = ("import sys\n"
                  "from wsdetect import tensornet as tn\n"
                  "assert 'wsdetect.srcmodel' not in sys.modules\n"
                  "assert 'wsdetect.trafficmodel' not in sys.modules\n"
                  "print(*(type(tn.load_model(p)).__name__ for p in sys.argv[1:]))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", script, str(cnn), str(dnn)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["OpcodeCnn", "TabularDnn"]

    def test_an_unexpected_kind_names_both_kinds(self, tmp_path):
        from wsdetect.srcmodel import OpcodeCnn
        from wsdetect.trafficmodel import TabularDnn

        cnn, dnn = tmp_path / "cnn.bin", tmp_path / "dnn.bin"
        _tiny_cnn_checkpoint(cnn)
        tn.save_model(_small_dnn(), dnn)
        assert isinstance(tn.load_model(cnn, expect=OpcodeCnn), OpcodeCnn)
        assert isinstance(tn.load_model(dnn, expect=TabularDnn), TabularDnn)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{cnn}: model kind is 'opcode_cnn', expected 'tabular_dnn'")):
            tn.load_model(cnn, expect=TabularDnn)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{dnn}: model kind is 'tabular_dnn', expected 'opcode_cnn'")):
            tn.load_model(dnn, expect=OpcodeCnn)

    def test_an_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        _tiny_cnn_checkpoint(path)
        _rewrite_checkpoint(path, lambda header, payload: (
            _header_edit(lambda h: h.update(kind="ModelGraph"))(header), payload))
        with pytest.raises(CheckpointError, match="unknown model kind 'ModelGraph'"):
            tn.load_model(path)
