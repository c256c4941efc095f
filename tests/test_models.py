"""Model construction, per-sample losses/gradients and checkpoint I/O."""

import numpy as np
import pytest

from plislab import models
from plislab.autodiff import backward, finite_diff_check, Graph, mul, reshape, tsum, square
from plislab.errors import DataFormatError, ShapeError

LINEAR_NO_BIAS = models.ModelSpec((models.Linear(2, 1, bias=False),), models.MSE)


def _linear_params(w):
    spec = models.ModelSpec((models.Linear(len(w), 1, bias=False),), models.MSE)
    layout = models.layout_for(spec)
    return spec, models.ParamSet(np.asarray(w, dtype=float), layout)


class TestInitParams:
    def test_same_seed_is_identical(self):
        spec = models.ModelSpec(
            (models.Linear(4, 3), models.Relu(), models.Linear(3, 2)), models.MSE
        )
        a = models.init_params(spec, 7)
        b = models.init_params(spec, 7)
        np.testing.assert_array_equal(a.flat, b.flat)
        assert models.init_params(spec, 8).flat.tolist() != a.flat.tolist()

    def test_biases_are_zero(self):
        spec = models.ModelSpec((models.Conv2d(1, 2, 3), models.Flatten()), models.MSE)
        params = models.init_params(spec, 3)
        bias = next(b for b in params.layout if b.name == "0.bias")
        np.testing.assert_array_equal(params.flat[bias.offset : bias.offset + bias.size], 0.0)

    def test_linear_weights_within_uniform_bound(self):
        spec = models.ModelSpec((models.Linear(2, 1, bias=False),), models.MSE)
        params = models.init_params(spec, 7)
        a = np.sqrt(6.0 / 3.0)
        assert np.all(np.abs(params.flat) <= a)
        assert params.flat.std() > 0

    def test_conv_fan_bound(self):
        spec = models.ModelSpec((models.Conv2d(2, 4, 3, bias=False),), models.MSE)
        params = models.init_params(spec, 11)
        a = np.sqrt(6.0 / (2 * 9 + 4 * 9))
        assert np.all(np.abs(params.flat) <= a)


class TestParamSetLayout:
    def test_layout_size_mismatch_rejected(self):
        spec = models.ModelSpec((models.Linear(2, 2),), models.MSE)
        layout = models.layout_for(spec)
        with pytest.raises(ShapeError):
            models.ParamSet(np.zeros(5), layout)


class TestPerSampleLoss:
    def test_linear_mse_closed_form(self):
        spec, params = _linear_params([1.0, 2.0])
        loss = models.per_sample_loss(spec, params, [1.0, 1.0], 0.0)
        assert loss.item() == pytest.approx(9.0, abs=1e-12)

    def test_exact_fit_gives_zero(self):
        spec = models.ModelSpec((models.Linear(3, 2),), models.MSE)
        params = models.init_params(spec, 5)
        x = np.array([0.3, -0.2, 0.9])
        sample = models.attach_sample(spec, params, x[None], [np.zeros(2)])
        y = sample.prediction.data[0]
        loss = models.per_sample_loss(spec, params, x, y)
        assert loss.item() == 0.0

    def test_cross_entropy_uniform_logits_is_ln_k(self):
        spec = models.ModelSpec((models.Linear(4, 10, bias=False),), models.CROSS_ENTROPY)
        layout = models.layout_for(spec)
        params = models.ParamSet(np.zeros(40), layout)
        loss = models.per_sample_loss(spec, params, np.ones(4), 3)
        assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)

    def test_shape_mismatch_raises(self):
        spec, params = _linear_params([1.0, 2.0])
        with pytest.raises(ShapeError):
            models.per_sample_loss(spec, params, [1.0, 1.0, 1.0], 0.0)


class TestPerSampleGrad:
    def test_linear_closed_form(self):
        spec, params = _linear_params([1.0, 2.0])
        g = models.per_sample_grad(spec, params, [1.0, 1.0], 0.0)
        np.testing.assert_allclose(g.data, [6.0, 6.0], rtol=1e-12)

    def test_zero_residual_gives_zero_vector(self):
        spec, params = _linear_params([1.0, 2.0])
        g = models.per_sample_grad(spec, params, [1.0, 1.0], 3.0)
        np.testing.assert_array_equal(g.data, np.zeros(2))

    def test_matches_finite_differences_in_theta(self):
        spec = models.ModelSpec(
            (models.Linear(3, 4), models.Tanh(), models.Linear(4, 2)), models.MSE
        )
        params = models.init_params(spec, 2)
        x = np.array([0.4, -0.7, 0.2])
        y = np.array([0.1, -0.3])
        g = models.per_sample_grad(spec, params, x, y).data

        def loss_of_theta(theta):
            trial = params.with_flat(theta)
            return float(models.per_sample_loss(spec, trial, x, y).data.reshape(()))

        h = 1e-5
        fd = np.zeros_like(g)
        for j in range(params.count):
            up, down = params.flat.copy(), params.flat.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (loss_of_theta(up) - loss_of_theta(down)) / (2 * h)
        rel = np.abs(g - fd) / (np.abs(fd) + 1e-12)
        assert rel.max() < 1e-5

    def test_deterministic(self):
        spec = models.ModelSpec(
            (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(50, 2)),
            models.CROSS_ENTROPY,
        )
        params = models.init_params(spec, 9)
        x = np.linspace(0, 1, 49).reshape(1, 7, 7)
        a = models.per_sample_grad(spec, params, x, 1).data
        b = models.per_sample_grad(spec, params, x, 1).data
        np.testing.assert_array_equal(a, b)

    def test_create_graph_gradient_is_redifferentiable(self):
        spec, params = _linear_params([1.0, 2.0])
        sample = models.attach_sample(spec, params, [[1.0, 1.0]], [0.0])
        g = models.parameter_grad(sample, create_graph=True)
        norm_sq = tsum(square(g))
        (gx,) = backward(norm_sq, [sample.x])
        # d/dx 4 r^2 ||x||^2 = 8 r w ||x||^2 + 8 r^2 x, r = 3
        np.testing.assert_allclose(gx.data, [[120.0, 168.0]], rtol=1e-12)


def test_batch_mean_loss_gradient_equals_mean_of_per_sample_gradients():
    spec = models.ModelSpec(
        (models.Linear(3, 5), models.Softplus(), models.Linear(5, 2)), models.MSE
    )
    params = models.init_params(spec, 4)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=(6, 2))
    # one graph for the batch: the shared parameters' gradient of the mean
    # loss is the sum of the tiled parameter rows' gradients
    sample = models.attach_sample(spec, params, xs, ys)
    grads = backward(mul(sample.loss, 1.0 / len(xs)), sample.params)
    gb = np.concatenate([g.data.reshape(len(xs), -1).sum(axis=0) for g in grads])
    per = np.mean(
        [models.per_sample_grad(spec, params, x, y).data for x, y in zip(xs, ys)], axis=0
    )
    rel = np.abs(gb - per) / (np.abs(per) + 1e-15)
    assert rel.max() < 1e-10


def test_input_is_registered_as_differentiable_leaf():
    spec = models.ModelSpec(
        (models.Linear(2, 3), models.Relu(), models.Linear(3, 1)), models.MSE
    )
    params = models.init_params(spec, 1)
    x = np.array([0.5, -0.4])

    def loss_of_x(t):
        if t.graph is None:
            t = Graph().leaf(t.data)
        blocks = {
            b.name: t.graph.leaf(params.flat[b.offset : b.offset + b.size].reshape((1,) + b.shape))
            for b in params.layout
        }
        pred = models.forward(spec, blocks, reshape(t, (1, 2)))
        return tsum(models._loss_tensor(spec, pred, [np.array([0.2])]))

    assert finite_diff_check(loss_of_x, x) < 1e-5


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = models.ModelSpec(
            (models.Conv2d(1, 3, 3), models.Relu(), models.Flatten(), models.Linear(27, 2)),
            models.CROSS_ENTROPY,
        )
        params = models.init_params(spec, 42)
        path = tmp_path / "model.plck"
        models.save_checkpoint(path, spec, params)
        spec2, params2 = models.load_checkpoint(path)
        assert spec2 == spec
        assert params2.flat.tobytes() == params.flat.tobytes()
        models.save_checkpoint(tmp_path / "model2.plck", spec2, params2)
        assert (tmp_path / "model2.plck").read_bytes() == path.read_bytes()

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "junk.plck"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="byte 0"):
            models.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        spec, params = _linear_params([1.0, 2.0])
        path = tmp_path / "model.plck"
        models.save_checkpoint(path, spec, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError):
            models.load_checkpoint(path)

    def test_spec_text_roundtrip(self):
        spec = models.ModelSpec(
            (
                models.Conv2d(1, 8, 3),
                models.Relu(),
                models.Conv2d(8, 16, 3, bias=False),
                models.Tanh(),
                models.Flatten(),
                models.Softplus(),
                models.Linear(16, 2),
                models.Linear(2, 2, bias=False),
            ),
            models.CROSS_ENTROPY,
        )
        text = models.spec_to_text(spec)
        assert text == (
            "conv2d:1:8:3:1;relu;conv2d:8:16:3:0;tanh;flatten;softplus;"
            "linear:16:2:1;linear:2:2:0|cross_entropy"
        )
        assert models.spec_from_text(text) == spec
