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
        observation = attack._observation(spec, params, observed, 0.0, config, x0.shape)
        objective, match, _ = attack._objective(spec, params, x0, observation, config)
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

    def test_non_finite_objective_discards_every_restart(self, monkeypatch):
        """A NaN weight makes every restart's objective NaN at its first
        iteration: each is discarded, and then the reconstruction fails."""
        spec, params = _linear([np.nan, -0.6])
        outcomes = []
        run_restart = attack._run_restart

        def recording(*args):
            outcomes.append(run_restart(*args))
            return outcomes[-1]

        monkeypatch.setattr(attack, "_run_restart", recording)
        config = attack.AttackConfig(iterations=5, restarts=3)
        with pytest.raises(AttackFailedError, match="every attack restart"):
            attack.reconstruct(spec, params, np.ones(2), 0.0, config, input_shape=(2,))
        assert outcomes == [None, None, None]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("loss", [attack.COSINE, attack.L2])
    def test_non_finite_observed_gradient_is_refused_before_any_restart(
        self, monkeypatch, bad, loss
    ):
        spec, params = _linear([0.8, -0.6, 0.4])
        restarts = []
        monkeypatch.setattr(attack, "_run_restart", lambda *a: restarts.append(a))
        config = attack.AttackConfig(iterations=5, restarts=2, match_loss=loss)
        observed = np.array([0.5, bad, -0.25])
        with pytest.raises(ConfigError, match="observed gradient has norm (nan|inf)"):
            attack.reconstruct(spec, params, observed, 0.0, config, input_shape=(3,))
        assert restarts == []

    def test_all_zero_observed_gradient_is_refused_under_the_cosine_match(self, monkeypatch):
        """The cosine match divides by |o|: an all-zero observed gradient is
        refused before any restart runs.  The L2 match is defined there."""
        spec = models.ModelSpec((models.Linear(3, 1, bias=False),), models.MSE)
        params = models.init_params(spec, 0)
        restarts = []
        run_restart = attack._run_restart
        monkeypatch.setattr(
            attack, "_run_restart", lambda *a: restarts.append(a) or run_restart(*a)
        )
        config = attack.AttackConfig(iterations=5, restarts=2)
        with pytest.raises(ConfigError, match="all zeros: the cosine match"):
            attack.reconstruct(spec, params, np.zeros(3), 0.0, config, input_shape=(3,))
        assert restarts == []
        l2 = attack.AttackConfig(iterations=5, restarts=2, match_loss=attack.L2)
        result = attack.reconstruct(spec, params, np.zeros(3), 0.0, l2, input_shape=(3,))
        assert len(restarts) == 2 and np.isfinite(result.match_loss)

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
    observation = attack._observation(spec, params, observed, label, config, x.shape)
    value, _, gx = attack._objective(spec, params, x, observation, config)
    assert np.isfinite(value) and np.isfinite(gx).all()
    h = 1e-6
    numeric = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        hi = attack._objective(spec, params, x + step.reshape(x.shape), observation, config)
        lo = attack._objective(spec, params, x - step.reshape(x.shape), observation, config)
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
        observation = attack._observation(spec, params, observed, label, config, x.shape)
        full = attack._terms(g, x[None], observation, config)
        alone = attack._terms(g, x[None], observation, config, gradient=False)
        assert alone[2] is None and alone[3] is None
        assert (alone[0], alone[1]) == (full[0], full[1])
        assert attack._objective_value(spec, params, x, observation, config) == full[0]

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
        config = attack.AttackConfig()
        observation = attack._observation(spec, params, observed, 1, config, x.shape)
        attack._objective(spec, params, x, observation, config)
        assert sizes == [2]


def _embed(a, shape, index):
    out = np.zeros(shape)
    out[index] = a
    return out


def _tv_gradient_by_embeds(x, weight):
    """The prior's gradient as the four shifted slices' cotangents, each
    placed in zeros of x's shape, summed in their fixed order."""
    lead = (slice(None),) * (x.ndim - 2)
    down_hi, down_lo = lead + (slice(1, None), slice(None)), lead + (slice(0, -1), slice(None))
    right_hi, right_lo = lead + (slice(None), slice(1, None)), lead + (slice(None), slice(0, -1))
    down = x[down_hi] - x[down_lo]
    right = x[right_hi] - x[right_lo]
    abs_down = np.sqrt(down * down + attack._TV_SMOOTH)
    abs_right = np.sqrt(right * right + attack._TV_SMOOTH)
    down_bar = weight * (1.0 / max(down.size, 1)) / (abs_down * 2.0) * (down * 2.0)
    right_bar = weight * (1.0 / max(right.size, 1)) / (abs_right * 2.0) * (right * 2.0)
    grad = _embed(-right_bar, x.shape, right_lo) + _embed(right_bar, x.shape, right_hi)
    grad = grad + _embed(-down_bar, x.shape, down_lo)
    return grad + _embed(down_bar, x.shape, down_hi)


def _published_adam(x, gx, m, v, t, learning_rate):
    """Adam's update equations as published, on fresh arrays."""
    m = attack._ADAM_BETA1 * m + (1.0 - attack._ADAM_BETA1) * gx
    v = attack._ADAM_BETA2 * v + (1.0 - attack._ADAM_BETA2) * gx * gx
    m_hat = m / (1.0 - attack._ADAM_BETA1**t)
    v_hat = v / (1.0 - attack._ADAM_BETA2**t)
    x = np.clip(x - learning_rate * m_hat / (np.sqrt(v_hat) + attack._ADAM_EPS), 0.0, 1.0)
    return x, m, v


IN_PLACE_SHAPES = [(1, 1, 28, 28), (1, 1, 1, 6), (1, 1, 5, 1), (2, 3, 4, 5)]


def _clipped_image(rng, shape):
    """Pixels on a grid of quarters, so neighbours are often equal, clipped to
    [0, 1], so many are exactly 0.0 or 1.0; half the zeros are -0.0."""
    x = np.clip(np.round(rng.normal(0.5, 0.6, size=shape) * 4.0) / 4.0, 0.0, 1.0)
    x[(x == 0.0) & (rng.random(shape) < 0.5)] = -0.0
    return x


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("shape", IN_PLACE_SHAPES)
def test_in_place_tv_gradient_keeps_the_embed_sums_bits(shape):
    """Signed zeros included: a border pixel misses a slice and so gets the
    embed's +0.0, an interior pixel whose four terms are -0.0 keeps -0.0."""
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = _clipped_image(rng, shape)
        for weight in (0.05, 1e-3):
            tv, grad = attack._smoothed_tv(x, weight)
            ref = _tv_gradient_by_embeds(x, weight)
            assert tv == attack._smoothed_tv(x, weight, gradient=False)[0]
            assert grad.shape == ref.shape and _bits(grad) == _bits(ref)


@pytest.mark.parametrize("shape", IN_PLACE_SHAPES)
def test_in_place_adam_step_keeps_the_published_update_bits(shape):
    """Five steps from clipped images, on gradients with zeros of both signs
    and steps large enough to clip x to 0 and 1 again."""
    rng = np.random.default_rng(16)
    for learning_rate in (0.1, 5.0):
        x = _clipped_image(rng, shape)
        m, v = np.zeros(shape), np.zeros(shape)
        ref = (x.copy(), m.copy(), v.copy())
        for t in range(1, 6):
            gx = rng.normal(size=shape) * rng.choice([0.0, 1e-3, 1.0, 1e3], size=shape)
            gx[rng.random(shape) < 0.1] = -0.0
            attack._adam_step(x, gx, m, v, t, learning_rate)
            ref = _published_adam(ref[0], gx, ref[1], ref[2], t, learning_rate)
            assert [_bits(a) for a in (x, m, v)] == [_bits(a) for a in ref]
