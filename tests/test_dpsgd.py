"""Clipping contract, step semantics and trainer determinism."""

import numpy as np
import pytest

from plislab import dpsgd, models
from plislab.autodiff import (
    Graph,
    Tensor,
    backward,
    finite_diff_check,
    linear,
    reshape,
    square,
    tsum,
)
from plislab.errors import ConfigError, TrainingDivergedError


def _linear_dataset(n=40, d=3, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = np.array([1.5, -2.0, 0.5][:d])
    y = x @ w + noise * rng.normal(size=n)
    return [(x[i], np.array([y[i]])) for i in range(n)]


LINEAR_SPEC = models.ModelSpec((models.Linear(3, 1, bias=False),), models.MSE)


class TestClipDifferentiable:
    def test_large_gradient_scaled_to_threshold(self):
        g = Tensor(np.full(4, 5.0))  # norm 10
        out = dpsgd.clip_differentiable(g, 1.0)
        assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-12)

    def test_small_gradient_unchanged(self):
        g = Tensor([0.3, 0.4])  # norm 0.5
        out = dpsgd.clip_differentiable(g, 1.0)
        np.testing.assert_array_equal(out.data, g.data)

    def test_zero_gradient_unchanged(self):
        out = dpsgd.clip_differentiable(Tensor(np.zeros(3)), 1.0)
        np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_continuous_at_threshold(self):
        # both branches give g exactly at ||g|| = C
        g = np.array([3.0, 4.0])  # norm 5
        out = dpsgd.clip_differentiable(Tensor(g), 5.0)
        np.testing.assert_array_equal(out.data, g)

    @pytest.mark.parametrize("scale,label", [(0.25, "below"), (4.0, "above")])
    def test_gradient_matches_finite_differences_off_threshold(self, scale, label):
        # g(x) = A x, clip threshold 1; scale puts ||g|| clearly below/above
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))

        def clipped_norm_sq(t):
            if t.graph is None:
                t = Graph().leaf(t.data)
            g = reshape(linear(Tensor(a[None]), reshape(t, (1, 3))), (4,))
            return tsum(square(dpsgd.clip_differentiable(g, 1.0)))

        x = scale * rng.normal(size=3)
        if label == "below":
            assert finite_diff_check(clipped_norm_sq, x, h=1e-6) < 1e-4
        else:
            # above the threshold ||clip(g)||^2 is locally the constant C^2,
            # so the true derivative is identically zero; assert both the
            # analytic value and finite differences vanish rather than
            # comparing a 0/0 ratio
            graph = Graph()
            leaf = graph.leaf(x)
            analytic = backward(clipped_norm_sq(leaf), [leaf])[0].data
            assert np.abs(analytic).max() < 1e-8
            h = 1e-6
            for j in range(3):
                up, down = x.copy(), x.copy()
                up[j] += h
                down[j] -= h
                fd = (
                    clipped_norm_sq(Tensor(up)).item() - clipped_norm_sq(Tensor(down)).item()
                ) / (2 * h)
                assert abs(fd) < 1e-8

    def test_nonpositive_clip_rejected(self):
        with pytest.raises(ConfigError):
            dpsgd.clip_differentiable(Tensor([1.0]), 0.0)

    @pytest.mark.parametrize("clip", [np.inf, np.nan])
    def test_nonfinite_clip_rejected(self, clip):
        # at C = inf, C / max(C, ||g||) is inf / inf = NaN
        with pytest.raises(ConfigError, match="finite"):
            dpsgd.clip_differentiable(Tensor([1.0]), clip)


class TestDpSgdStep:
    def test_sigma_zero_all_within_clip_equals_plain_sgd(self):
        data = _linear_dataset()
        params = models.init_params(LINEAR_SPEC, 1)
        batch = data[:8]
        private_cfg = dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=1, batch_size=8, private=True, clip=1e9, sigma=1e-300
        )
        plain_cfg = dpsgd.DpSgdConfig(learning_rate=0.05, epochs=1, batch_size=8)
        # clip huge and sigma -> 0: same update as the non-private path
        a = dpsgd.dp_sgd_step(LINEAR_SPEC, params, batch, private_cfg).params.flat
        b = dpsgd.dp_sgd_step(LINEAR_SPEC, params, batch, plain_cfg).params.flat
        np.testing.assert_allclose(a, b, atol=1e-290)

    def test_clipped_norms_never_exceed_threshold(self):
        data = _linear_dataset(noise=0.5)
        params = models.init_params(LINEAR_SPEC, 1)
        cfg = dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=1, batch_size=10, private=True, clip=0.2, sigma=1.0
        )
        result = dpsgd.dp_sgd_step(LINEAR_SPEC, params, data[:10], cfg)
        assert result.max_clipped_norm <= 0.2 + 1e-9

    def test_fixed_seed_trajectory_is_bit_identical(self):
        data = _linear_dataset()
        cfg = dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=3, batch_size=10, seed=9,
            private=True, clip=1.0, sigma=0.8,
        )
        a = dpsgd.train(LINEAR_SPEC, data, cfg)
        b = dpsgd.train(LINEAR_SPEC, data, cfg)
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert a.step_records == b.step_records

    def test_empty_batch_rejected(self):
        params = models.init_params(LINEAR_SPEC, 1)
        cfg = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=4)
        with pytest.raises(ConfigError):
            dpsgd.dp_sgd_step(LINEAR_SPEC, params, [], cfg)


class TestTrain:
    def test_nonprivate_converges_on_noiseless_data(self):
        data = _linear_dataset(n=60, noise=0.0)
        cfg = dpsgd.DpSgdConfig(learning_rate=0.2, epochs=60, batch_size=60, seed=2)
        trace = dpsgd.train(LINEAR_SPEC, data, cfg)
        assert trace.per_epoch_loss[-1] < 1e-3
        assert trace.accountant is None
        assert trace.final_epsilon is None

    def test_private_run_meets_target_epsilon(self):
        data = _linear_dataset(n=40)
        cfg = dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=5, batch_size=40, seed=2,
            private=True, clip=1.0, target_epsilon=1.0, target_delta=1e-5,
        )
        trace = dpsgd.train(LINEAR_SPEC, data, cfg)
        assert trace.final_epsilon is not None and trace.final_epsilon <= 1.0
        assert len(trace.accountant.steps) == 5
        assert all(s.sensitivity == 1.0 for s in trace.accountant.steps)
        assert trace.sigma_used > 0

    def test_zero_epochs_leaves_params_at_init(self):
        data = _linear_dataset(n=10)
        cfg = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=0, batch_size=5, seed=7)
        trace = dpsgd.train(LINEAR_SPEC, data, cfg)
        np.testing.assert_array_equal(trace.params.flat, models.init_params(LINEAR_SPEC, 7).flat)

    def test_divergence_names_the_step(self):
        data = _linear_dataset(n=20)
        cfg = dpsgd.DpSgdConfig(learning_rate=1e200, epochs=5, batch_size=20)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match=r"step \d+"):
            dpsgd.train(LINEAR_SPEC, data, cfg)


class TestConfigFile:
    def test_parse_full_file(self):
        text = """
        # training configuration
        clip = 1.5
        sigma = 0.8
        lr = 0.05      # step size
        epochs = 12
        batch_size = 64
        seed = 3
        private = true
        target_epsilon = 1.0
        target_delta = 1e-5
        """
        cfg = dpsgd.parse_config_text(text)
        assert cfg == dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=12, batch_size=64, seed=3,
            private=True, clip=1.5, sigma=0.8, target_epsilon=1.0, target_delta=1e-5,
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            dpsgd.parse_config_text("momentum = 0.9")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            dpsgd.parse_config_text("lr = 0.1\nlr = 0.2")

    def test_private_without_clip_rejected(self):
        with pytest.raises(ConfigError):
            dpsgd.parse_config_text("private = true\nsigma = 1.0")

    @pytest.mark.parametrize("clip", ["inf", "nan", "0"])
    def test_private_with_nonfinite_or_zero_clip_rejected(self, clip):
        with pytest.raises(ConfigError, match="finite positive clip"):
            dpsgd.parse_config_text(f"private = true\nsigma = 1.0\nclip = {clip}")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            dpsgd.parse_config_text("private = maybe")
