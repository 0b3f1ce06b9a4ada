"""Finite-difference validation of every backward pass, alone and composed."""

import numpy as np

from wsdetect import tensornet as tn
from wsdetect.tensornet import grad_check

TOL = 1e-4


class _Single(tn.ModelGraph):
    """Wrap one parameterized layer, then project to 2 logits."""

    kind = "test_single"

    def __init__(self, layer, proj_in, seed=0):
        super().__init__()
        self.layer = self.add_layer("probe", layer)
        self.proj = self.add_layer(
            "proj", tn.Dense(proj_in, 2, np.random.default_rng(seed)))

    def forward(self, x, mode="eval", rng=None):
        h = self.layer.forward(x, mode, rng)
        return self.proj.forward(h, mode, rng)

    def backward(self, dlogits):
        self.layer.backward(self.proj.backward(dlogits))


def test_dense_layer():
    rng = np.random.default_rng(0)
    model = _Single(tn.Dense(3, 4, rng), proj_in=4)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5)
    assert grad_check(model, x, y) < TOL


def test_batchnorm_layer():
    rng = np.random.default_rng(1)
    model = _Single(tn.BatchNorm1d(4), proj_in=4)
    x = rng.normal(2.0, 3.0, size=(6, 4))
    y = rng.integers(0, 2, size=6)
    assert grad_check(model, x, y) < TOL


def test_conv_relu_pool_stack():
    rng = np.random.default_rng(2)

    class ConvNet(tn.ModelGraph):
        kind = "test_convnet"

        def __init__(self):
            super().__init__()
            self.conv = self.add_layer("conv", tn.ConvMaxPool(2, 3, 3, rng))
            self.out = self.add_layer("out", tn.Dense(3, 2, rng))

        def forward(self, x, mode="eval", rng=None):
            h = self.conv.forward(x, mode, rng)
            return self.out.forward(h, mode, rng)

        def backward(self, dlogits):
            self.conv.backward(self.out.backward(dlogits))

    x = rng.normal(size=(4, 9, 2))
    y = rng.integers(0, 2, size=4)
    assert grad_check(ConvNet(), x, y) < TOL


def test_embedding_layer():
    rng = np.random.default_rng(3)

    class EmbedNet(tn.ModelGraph):
        kind = "test_embednet"

        def __init__(self):
            super().__init__()
            self.emb = self.add_layer("emb", tn.Embedding(6, 3, rng))
            self.out = self.add_layer("out", tn.Dense(3, 2, rng))

        def forward(self, x, mode="eval", rng=None):
            h = self.emb.forward(x, mode, rng).mean(axis=1)
            self._length = x.shape[1]
            return self.out.forward(h, mode, rng)

        def backward(self, dlogits):
            dh = self.out.backward(dlogits)
            dh = np.repeat(dh[:, None, :], self._length, axis=1) / self._length
            self.emb.backward(dh)

    x = rng.integers(0, 6, size=(4, 5))
    y = rng.integers(0, 2, size=4)
    assert grad_check(EmbedNet(), x, y) < TOL


def test_weighted_loss_gradient():
    rng = np.random.default_rng(4)
    model = _Single(tn.Dense(3, 4, rng), proj_in=4)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    weights = tn.class_weights(4, 2)
    assert grad_check(model, x, y, weights=weights) < TOL


def test_full_cnn_graph():
    """Both presets' kernel triples. Row 3's padding starts at 3, inside
    the last live window of the widest kernel, so its windows' taps
    reach the frozen padding row, whose gradient stays zero; row 4 is
    all padding. Nonzero biases keep the idle windows, whose value is
    the bias, off the ReLU's kink at 0."""
    from wsdetect.srcmodel import CnnConfig, build_cnn

    for kernels in ((2, 3, 4), (4, 5, 6)):
        config = CnnConfig(vocab_size=5, max_length=9, embedding_dim=3,
                           kernel_sizes=kernels, num_filters=2,
                           dropout_rate=0.5, seed=6)
        model = build_cnn(config)
        rng = np.random.default_rng(7)
        for conv in model.convs:
            conv.params["b"][:] = rng.normal(0.0, 0.5, size=2)
        x = rng.integers(1, 6, size=(5, 9))
        x[:, 7:] = 0  # padded tails exercise the frozen zero row
        x[3, 3:] = 0
        x[4] = 0  # all padding
        y = np.array([0, 1, 0, 1, 1])
        assert grad_check(model, x, y) < TOL, kernels
        assert not model.embedding.grads["weight"][0].any()


def test_full_dnn_graph():
    from wsdetect.trafficmodel import TabularConfig, TabularDataset, build_dnn

    rng = np.random.default_rng(8)
    n = 8
    cats = np.column_stack([rng.choice([80, 443], size=n),
                            rng.choice([6, 17], size=n)])
    cont = rng.normal(size=(n, 77))
    labels = rng.integers(0, 2, size=n)
    dataset = TabularDataset(cats, cont, labels)
    config = TabularConfig(hidden=(6, 4), embedding_dims=(3, 2), seed=9)
    model = build_dnn(config, dataset)
    prepared = model.prepare(dataset)
    assert grad_check(model, prepared, dataset.labels, weights=tn.class_weights(
        int((labels == 0).sum()) or 1, int((labels == 1).sum()) or 1)) < TOL


def test_gradcheck_catches_a_broken_backward():
    rng = np.random.default_rng(10)

    class Broken(tn.ModelGraph):
        kind = "test_broken"

        def __init__(self):
            super().__init__()
            self.d = self.add_layer("d", tn.Dense(3, 2, rng))

        def forward(self, x, mode="eval", rng=None):
            return self.d.forward(x, mode, rng)

        def backward(self, dlogits):
            self.d.backward(dlogits * 2.0)  # wrong on purpose

    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5)
    assert grad_check(Broken(), x, y) > 0.1
