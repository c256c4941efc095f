"""Observed-gradient semantics and reconstruction behavior."""

import numpy as np
import pytest

from plislab import attack, models
from plislab.errors import ConfigError
from plislab.plis import SubjectRecord


def _linear(w):
    w = np.asarray(w, dtype=float)
    spec = models.ModelSpec((models.Linear(len(w), 1, bias=False),), models.MSE)
    return spec, models.ParamSet(w, models.layout_for(spec))


class TestObserveGradient:
    def test_without_dp_equals_per_sample_grad(self):
        spec, params = _linear([1.0, -0.5, 0.2])
        subject = SubjectRecord("s", [0.3, 0.6, -0.1], 0.4)
        g = attack.observe_gradient(spec, params, subject)
        expected = models.per_sample_grad(spec, params, subject.x, subject.y).data
        np.testing.assert_array_equal(g, expected)

    def test_dp_with_zero_sigma_is_exactly_clipped(self):
        spec, params = _linear([2.0, 3.0])
        subject = SubjectRecord("s", [1.0, 1.0], 0.0)
        g = attack.observe_gradient(
            spec, params, subject, dp=attack.DpRelease(clip=1.0, sigma=0.0, seed=1)
        )
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_dp_draw_deterministic_under_seed(self):
        spec, params = _linear([2.0, 3.0])
        subject = SubjectRecord("s", [1.0, 1.0], 0.0)
        release = attack.DpRelease(clip=1.0, sigma=0.7, seed=11)
        a = attack.observe_gradient(spec, params, subject, dp=release)
        b = attack.observe_gradient(spec, params, subject, dp=release)
        np.testing.assert_array_equal(a, b)
        c = attack.observe_gradient(
            spec, params, subject, dp=attack.DpRelease(clip=1.0, sigma=0.7, seed=12)
        )
        assert not np.array_equal(a, c)


class TestReconstruct:
    def test_linear_model_recovers_direction(self):
        # gradient 2 r x pins x up to scale; cosine match recovers direction
        spec, params = _linear([0.8, -0.6, 0.4, 0.2])
        x_true = np.array([0.9, 0.2, 0.7, 0.4])
        subject = SubjectRecord("s", x_true, 0.0)
        observed = attack.observe_gradient(spec, params, subject)
        config = attack.AttackConfig(
            iterations=400, learning_rate=0.05, restarts=2, seed=3, tv_weight=0.0
        )
        result = attack.reconstruct(spec, params, observed, 0.0, config)
        cos = result.reconstruction @ x_true / (
            np.linalg.norm(result.reconstruction) * np.linalg.norm(x_true)
        )
        assert abs(cos) > 0.99

    def test_fixed_point_has_zero_loss_at_iteration_zero(self):
        spec, params = _linear([1.0, 2.0, -1.0])
        x0 = np.array([0.5, 0.25, 0.75])
        observed = models.per_sample_grad(spec, params, x0, 0.0).data
        config = attack.AttackConfig(iterations=1, restarts=1, seed=0, tv_weight=0.0)
        objective, match, _ = attack._objective(spec, params, x0, 0.0, observed, config)
        assert objective == pytest.approx(0.0, abs=1e-12)
        assert match == objective

    def test_deterministic_given_seed(self):
        spec, params = _linear([0.8, -0.6])
        subject = SubjectRecord("s", [0.4, 0.9], 0.0)
        observed = attack.observe_gradient(spec, params, subject)
        config = attack.AttackConfig(iterations=50, restarts=2, seed=7, tv_weight=0.0)
        a = attack.reconstruct(spec, params, observed, 0.0, config)
        b = attack.reconstruct(spec, params, observed, 0.0, config)
        np.testing.assert_array_equal(a.reconstruction, b.reconstruction)
        assert a.traces == b.traces
        assert a.best_restart == b.best_restart

    def test_monotone_mode_trace_never_increases(self):
        spec = models.ModelSpec(
            (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(72, 2)),
            models.CROSS_ENTROPY,
        )
        params = models.init_params(spec, 5)
        x_true = np.clip(np.random.default_rng(0).normal(0.5, 0.25, size=(1, 8, 8)), 0, 1)
        subject = SubjectRecord("s", x_true, 1)
        observed = attack.observe_gradient(spec, params, subject)
        config = attack.AttackConfig(
            iterations=40, learning_rate=0.5, restarts=1, seed=2, tv_weight=0.0, monotone=True
        )
        result = attack.reconstruct(
            spec, params, observed, 1, config, input_shape=(1, 8, 8)
        )
        trace = result.traces[result.best_restart]
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_cosine_match_invariant_to_observed_rescaling(self):
        spec, params = _linear([0.8, -0.6])
        subject = SubjectRecord("s", [0.4, 0.9], 0.0)
        observed = attack.observe_gradient(spec, params, subject)
        config = attack.AttackConfig(iterations=30, restarts=1, seed=4, tv_weight=0.0)
        a = attack.reconstruct(spec, params, observed, 0.0, config)
        b = attack.reconstruct(spec, params, observed * 37.5, 0.0, config)
        np.testing.assert_allclose(a.reconstruction, b.reconstruction, rtol=1e-9)
        np.testing.assert_allclose(a.traces[0], b.traces[0], rtol=1e-9, atol=1e-12)

    def test_observed_shape_validated(self):
        spec, params = _linear([1.0, 2.0])
        config = attack.AttackConfig(iterations=1)
        with pytest.raises(ConfigError):
            attack.reconstruct(spec, params, np.zeros(5), 0.0, config)

    def test_conv_model_requires_explicit_shape(self):
        spec = models.ModelSpec(
            (models.Conv2d(1, 2, 3), models.Flatten(), models.Linear(72, 2)),
            models.CROSS_ENTROPY,
        )
        params = models.init_params(spec, 1)
        with pytest.raises(ConfigError, match="input_shape"):
            attack.reconstruct(
                spec, params, np.zeros(params.count), 1, attack.AttackConfig(iterations=1)
            )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            attack.AttackConfig(iterations=0)
        with pytest.raises(ConfigError):
            attack.AttackConfig(match_loss="psnr")
        with pytest.raises(ConfigError):
            attack.AttackConfig(tv_weight=-0.1)

    @pytest.mark.parametrize("clip, sigma", [(0.0, 1.0), (np.inf, 1.0), (np.nan, 1.0),
                                             (1.0, -1.0), (1.0, np.inf), (1.0, np.nan)])
    def test_dp_release_validation(self, clip, sigma):
        with pytest.raises(ConfigError):
            attack.DpRelease(clip, sigma, 0)
