"""Observed-gradient semantics, reconstruction behavior and the attack
objective's oracle: central finite differences of the objective."""

import numpy as np
import pytest

from plislab import attack, models
from plislab.autodiff import backward
from plislab.errors import AttackFailedError, ConfigError
from plislab.plis import SubjectRecord


def _linear(w):
    w = np.asarray(w, dtype=float)
    spec = models.ModelSpec((models.Linear(len(w), 1, bias=False),), models.MSE)
    return spec, models.ParamSet(w, models.layout_for(spec))


def _image_linear():
    """A bias-free linear model on flattened 1x4x5 images, so the prior applies."""
    spec = models.ModelSpec((models.Flatten(), models.Linear(20, 1, bias=False)), models.MSE)
    return spec, models.init_params(spec, 4), (1, 4, 5)


def _small_cnn():
    spec = models.ModelSpec(
        (models.Conv2d(1, 2, 3), models.Tanh(), models.Flatten(), models.Linear(12, 3)),
        models.CROSS_ENTROPY,
    )
    return spec, models.init_params(spec, 6), (1, 4, 5)


def _attack_case(make, seed):
    """(spec, params, x, label, observed): observed from a different input
    than x, so the match is far from its minimum."""
    spec, params, shape = make()
    rng = np.random.default_rng(seed)
    label = 0.3 if spec.loss == models.MSE else 1
    x_true, x = rng.uniform(0.1, 0.9, size=(2, *shape))
    observed = models.per_sample_grad(spec, params, x_true, label).data
    return spec, params, x, label, observed


OBJECTIVE_CASES = [
    (make, loss, tv)
    for make in (_image_linear, _small_cnn)
    for loss in (attack.COSINE, attack.L2)
    for tv in (0.0, 0.05)
]


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
        result = attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(4,))
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
        a = attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(2,))
        b = attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(2,))
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

    def test_monotone_line_search_backtracks(self, monkeypatch):
        # a first step of 5.0 overshoots, so the search halves it before moving
        spec, params = _linear([0.8, -0.6, 0.4, 0.2])
        subject = SubjectRecord("s", [0.9, 0.2, 0.7, 0.4], 0.0)
        observed = attack.observe_gradient(spec, params, subject)
        config = attack.AttackConfig(
            iterations=20, learning_rate=5.0, restarts=1, seed=3, tv_weight=0.0, monotone=True
        )
        calls = []
        value = attack._objective_value
        monkeypatch.setattr(attack, "_objective_value", lambda *a: calls.append(a) or value(*a))
        a = attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(4,))
        assert len(calls) > config.iterations
        trace = a.traces[0]
        assert len(trace) == 20 and all(x >= y for x, y in zip(trace, trace[1:]))
        b = attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(4,))
        assert a.traces == b.traces
        assert a.reconstruction.tobytes() == b.reconstruction.tobytes()

    def test_cosine_match_invariant_to_observed_rescaling(self):
        spec, params = _linear([0.8, -0.6])
        subject = SubjectRecord("s", [0.4, 0.9], 0.0)
        observed = attack.observe_gradient(spec, params, subject)
        config = attack.AttackConfig(iterations=30, restarts=1, seed=4, tv_weight=0.0)
        a = attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(2,))
        b = attack.reconstruct(spec, params, observed * 37.5, 0.0, config, input_shape=(2,))
        np.testing.assert_allclose(a.reconstruction, b.reconstruction, rtol=1e-9)
        np.testing.assert_allclose(a.traces[0], b.traces[0], rtol=1e-9, atol=1e-12)

    def test_all_nan_observed_gradient_discards_every_restart(self, monkeypatch):
        spec, params = _linear([0.8, -0.6])
        outcomes = []
        run_restart = attack._run_restart

        def recording(*args):
            outcomes.append(run_restart(*args))
            return outcomes[-1]

        monkeypatch.setattr(attack, "_run_restart", recording)
        config = attack.AttackConfig(iterations=5, restarts=3)
        with pytest.raises(AttackFailedError, match="every attack restart"):
            attack.reconstruct(spec, params, np.full(2, np.nan), 0.0, config, input_shape=(2,))
        assert outcomes == [None, None, None]

    def test_observed_shape_validated(self):
        spec, params = _linear([1.0, 2.0])
        config = attack.AttackConfig(iterations=1)
        with pytest.raises(ConfigError):
            attack.reconstruct(spec, params, np.zeros(5), 0.0, config, input_shape=(2,))

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


def _assert_gradient_matches_central_differences(spec, params, x, label, observed, config):
    value, _, gx = attack._objective(spec, params, x, label, observed, config)
    assert np.isfinite(value) and np.isfinite(gx).all()
    h = 1e-6
    numeric = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        hi = attack._objective(spec, params, x + step.reshape(x.shape), label, observed, config)
        lo = attack._objective(spec, params, x - step.reshape(x.shape), label, observed, config)
        numeric.flat[j] = (hi[0] - lo[0]) / (2 * h)
    assert np.abs(gx - numeric).max() <= 1e-6 * np.abs(numeric).max()


class TestObjective:
    @pytest.mark.parametrize("make, loss, tv", OBJECTIVE_CASES)
    def test_gradient_matches_central_differences(self, make, loss, tv):
        spec, params, x, label, observed = _attack_case(make, 11)
        config = attack.AttackConfig(tv_weight=tv, match_loss=loss)
        _assert_gradient_matches_central_differences(spec, params, x, label, observed, config)

    @pytest.mark.parametrize("shape", [(1, 1, 6), (1, 5, 1), (1, 1, 1)],
                             ids=["one-row", "one-column", "one-pixel"])
    def test_image_one_pixel_high_or_wide(self, shape):
        """An axis one pixel long has no neighbour pairs: the prior adds
        nothing along it, and the objective stays finite with the gradient
        central differences give."""
        d = shape[1] * shape[2]
        spec = models.ModelSpec((models.Flatten(), models.Linear(d, 1)), models.MSE)

        def make():
            return spec, models.init_params(spec, 5), shape

        _, params, x, label, observed = _attack_case(make, 12)
        config = attack.AttackConfig(tv_weight=0.05, match_loss=attack.L2)
        _assert_gradient_matches_central_differences(spec, params, x, label, observed, config)
        tv, grad = attack._smoothed_tv(x[None], 0.05)
        if shape == (1, 1, 1):
            assert tv == 0.0 and not grad.any()

    @pytest.mark.parametrize("make, loss, tv", OBJECTIVE_CASES)
    def test_value_alone_equals_the_terms_value_bit_for_bit(self, make, loss, tv):
        """The line search's value path skips c and t and keeps every bit."""
        spec, params, x, label, observed = _attack_case(make, 14)
        config = attack.AttackConfig(tv_weight=tv, match_loss=loss)
        g = models.per_sample_grad(spec, params, x, label).data[None]
        full = attack._terms(g, x[None], observed, config)
        alone = attack._terms(g, x[None], observed, config, gradient=False)
        assert alone[2] is None and alone[3] is None
        assert (alone[0], alone[1]) == (full[0], full[1])
        assert attack._objective_value(spec, params, x, label, observed, config) == full[0]

    def test_objective_tape_holds_only_the_model(self, monkeypatch):
        """The attack workload's CNN: the input leaf and the gradient node,
        which the backward pass seeds with c; nothing sits above it."""
        spec = models.cnn_spec(28, 28, 2)
        params = models.init_params(spec, 0)
        x = np.full((1, 28, 28), 0.5)
        observed = np.linspace(-1.0, 1.0, params.count)
        sizes = []

        def counting_backward(out, wrt, **kwargs):
            sizes.append(len(out.graph.nodes))
            return backward(out, wrt, **kwargs)

        monkeypatch.setattr(attack, "backward", counting_backward)
        attack._objective(spec, params, x, 1, observed, attack.AttackConfig())
        assert sizes == [2]
