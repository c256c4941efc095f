"""Clipping contract, step semantics and trainer determinism."""

from dataclasses import replace

import numpy as np
import pytest

from plislab import accounting, autodiff, datasets, dpsgd, experiments, models, plis
from plislab.errors import ConfigError, TrainingDivergedError


def _linear_dataset(n=40, d=3, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = np.array([1.5, -2.0, 0.5][:d])
    y = x @ w + noise * rng.normal(size=n)
    return [(x[i], np.array([y[i]])) for i in range(n)]


LINEAR_SPEC = models.ModelSpec((models.Linear(3, 1, bias=False),), models.MSE)


def _stacked(spec, pairs):
    """(x, y) pairs as one models.Batch."""
    return models.stack_batch(spec, [x for x, _ in pairs], [y for _, y in pairs])


def _step_through_clip_differentiable(spec, params, batch, cfg, noise):
    """A private step's new parameters with each chunk's rows clipped by
    clip_differentiable, and the clipped rows."""
    total = np.zeros(params.count)
    rows = []
    for part in models.chunks(batch, models.chunk_size(params)):
        g = models.per_sample_loss_and_grad(spec, params, _stacked(spec, part))[1]
        rows.append(dpsgd.clip_differentiable(g, cfg.clip)[0])
        total += rows[-1].sum(axis=0)
    total = total + noise * (cfg.sigma * cfg.clip)
    return params.flat - cfg.learning_rate * (total / len(batch)), np.concatenate(rows)


class TestClipFactor:
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    @pytest.mark.parametrize("clip_ratio", [1.0, 2.5])
    def test_in_place_scaling_equals_clip_rows_bit_for_bit(self, scale, clip_ratio):
        rng = np.random.default_rng(8)
        clip = clip_ratio * scale  # C = 1 only at scale 1 and ratio 1
        # row norms from 0.05 C to 20 C, a zero row and a row of norm C exactly
        g = rng.normal(size=(12, 7))
        g *= np.geomspace(0.05, 20.0, 12)[:, None] / np.linalg.norm(g, axis=1, keepdims=True)
        g *= clip
        g[3] = 0.0
        g[4] = 0.0
        g[4, 2] = clip
        norms = np.linalg.norm(g, axis=1)
        assert (norms > clip).any() and (norms[norms != 0] < clip).any()
        assert norms[4] == clip
        expected = dpsgd.clip_differentiable(g, clip)[0]
        # the max(||g||, C) form the sqrt(max(||g||^2, C^2)) form must equal
        max_form = g * (clip / np.maximum(np.sqrt((g * g).sum(axis=-1, keepdims=True)), clip))
        g *= dpsgd.clip_factor(g, clip)
        assert g.tobytes() == expected.tobytes() == max_form.tobytes()

    def test_sqrt_form_equals_max_form_over_the_clip_range(self):
        # sqrt(fl(C * C)) = C while C * C is a normal float, so the forms agree
        # from the smallest clip check_clip takes to the largest, also on rows
        # within an ulp or two of the threshold
        rng = np.random.default_rng(9)
        eps = np.finfo(float).eps
        scales = np.array([0.0, 0.05, 0.5, 1 - eps, 1 - eps / 2, 1.0, 1 + eps, 1 + 2 * eps, 1.01])
        for clip in [1.5e-154, *np.geomspace(1e-150, 1e150, 13), 1.3e154]:
            dpsgd.check_clip(clip)
            unit = rng.normal(size=(len(scales), 5))
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            # random directions, and one axis so the norm is exactly scale * C
            rows = np.vstack([unit, np.tile(np.eye(5)[0], (len(scales), 1))])
            g = clip * np.tile(scales, 2)[:, None] * rows
            norm = np.sqrt((g * g).sum(axis=-1, keepdims=True))
            max_form = clip / np.maximum(norm, clip)
            assert dpsgd.clip_factor(g, clip).tobytes() == max_form.tobytes(), clip


def _central_differences(f, x, h):
    """The gradient of the scalar f at x by central differences, entry by entry."""
    out = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        step = step.reshape(x.shape)
        out.flat[j] = (f(x + step) - f(x - step)) / (2 * h)
    return out


class TestClipDifferentiable:
    def test_large_gradient_scaled_to_threshold(self):
        clipped, _ = dpsgd.clip_differentiable(np.full(4, 5.0), 1.0)  # norm 10
        assert np.linalg.norm(clipped) == pytest.approx(1.0, abs=1e-12)

    def test_small_gradient_unchanged(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        np.testing.assert_array_equal(dpsgd.clip_differentiable(g, 1.0)[0], g)

    def test_zero_gradient_unchanged(self):
        np.testing.assert_array_equal(dpsgd.clip_differentiable(np.zeros(3), 1.0)[0], np.zeros(3))

    def test_continuous_at_threshold(self):
        # both branches give g exactly at ||g|| = C
        g = np.array([3.0, 4.0])  # norm 5
        np.testing.assert_array_equal(dpsgd.clip_differentiable(g, 5.0)[0], g)

    @pytest.mark.parametrize("scale,label", [(0.25, "below"), (4.0, "above")])
    def test_gradient_matches_finite_differences_off_threshold(self, scale, label):
        # g(x) = A x, clip threshold 1; scale puts ||g|| clearly below/above
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3))

        def clipped_norm_sq(x):
            return float(np.square(dpsgd.clip_differentiable(a @ x, 1.0)[0]).sum())

        x = scale * rng.normal(size=3)
        clipped, pullback = dpsgd.clip_differentiable(a @ x, 1.0)
        analytic = a.T @ pullback(2.0 * clipped)
        numeric = _central_differences(clipped_norm_sq, x, 1e-6)
        if label == "below":
            assert (np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)).max() < 1e-4
        else:
            # above the threshold ||clip(g)||^2 is locally the constant C^2,
            # so the true derivative is identically zero; assert both the
            # analytic value and finite differences vanish rather than
            # comparing a 0/0 ratio
            assert np.abs(analytic).max() < 1e-8
            assert np.abs(numeric).max() < 1e-8

    def test_pullback_matches_central_differences_and_the_projection(self):
        """pullback(r) against central differences of <r, clip(g)> on rows
        below C, above C and at 0; above C against the projection
        (C / ||g||) (r - u <u, r>), u = g / ||g||; at ||g|| = C exactly and
        at 0 it is the no-clip branch's derivative, r itself."""
        rng = np.random.default_rng(15)
        clip = 0.7
        norms = np.array([0.1, 0.5, 0.9, 1.2, 2.0, 10.0, 1.0, 0.0]) * clip
        g = rng.normal(size=(8, 5))
        g *= norms[:, None] / np.linalg.norm(g, axis=1, keepdims=True)
        g[6] = 0.0
        g[6, 3] = clip  # ||g|| = C exactly
        r = rng.normal(size=g.shape)
        _, pullback = dpsgd.clip_differentiable(g, clip)
        got = pullback(r)
        for i in (0, 1, 2, 3, 4, 5, 7):
            numeric = _central_differences(
                lambda row: float(r[i] @ dpsgd.clip_differentiable(row, clip)[0]), g[i], 1e-7)
            assert np.abs(got[i] - numeric).max() <= 1e-7 * np.abs(r[i]).max(), i
        above = np.linalg.norm(g[3:6], axis=1, keepdims=True)
        u = g[3:6] / above
        projection = clip / above * (r[3:6] - u * (u * r[3:6]).sum(axis=1, keepdims=True))
        assert np.abs(got[3:6] - projection).max() <= 1e-12 * np.abs(projection).max()
        assert got[6].tobytes() == r[6].tobytes() and got[7].tobytes() == r[7].tobytes()
        assert got[:3].tobytes() == r[:3].tobytes()

    def test_nonpositive_clip_rejected(self):
        with pytest.raises(ConfigError):
            dpsgd.clip_differentiable(np.ones(1), 0.0)

    @pytest.mark.parametrize("clip", [np.inf, np.nan])
    def test_nonfinite_clip_rejected(self, clip):
        # at C = inf, C / max(C, ||g||) is inf / inf = NaN
        with pytest.raises(ConfigError, match="finite"):
            dpsgd.clip_differentiable(np.ones(1), clip)

    @pytest.mark.parametrize("clip", [1.35e154, 1.45e-154])
    def test_clip_whose_square_is_not_normal_rejected(self, clip):
        # just past either end: C * C overflows to inf or falls below the
        # normal range, where sqrt(C * C) is no longer C
        with pytest.raises(ConfigError, match="whose square is a normal float"):
            dpsgd.clip_differentiable(np.ones(1), clip)


class TestDpSgdStep:
    def test_sigma_zero_all_within_clip_equals_plain_sgd(self):
        data = _linear_dataset()
        params = models.init_params(LINEAR_SPEC, 1)
        batch = data[:8]
        private_cfg = dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=1, batch_size=8, private=True, clip=1e9, sigma=1e-150
        )
        plain_cfg = dpsgd.DpSgdConfig(learning_rate=0.05, epochs=1, batch_size=8)
        # clip huge and sigma -> 0 (1e-150, near the smallest whose square is a
        # normal float): same update as the non-private path
        a = dpsgd.dp_sgd_step(LINEAR_SPEC, params, _stacked(LINEAR_SPEC, batch), private_cfg)
        b = dpsgd.dp_sgd_step(LINEAR_SPEC, params, _stacked(LINEAR_SPEC, batch), plain_cfg)
        np.testing.assert_allclose(a.params.flat, b.params.flat, atol=1e-290)

    def test_clipped_norms_never_exceed_threshold(self):
        data = _linear_dataset(noise=0.5)
        params = models.init_params(LINEAR_SPEC, 1)
        cfg = dpsgd.DpSgdConfig(
            learning_rate=0.05, epochs=1, batch_size=10, private=True, clip=0.2, sigma=1.0
        )
        result = dpsgd.dp_sgd_step(LINEAR_SPEC, params, _stacked(LINEAR_SPEC, data[:10]), cfg)
        expected, rows = _step_through_clip_differentiable(LINEAR_SPEC, params, data[:10], cfg, result.noise)
        assert result.params.flat.tobytes() == expected.tobytes()
        norms = np.linalg.norm(rows, axis=1)
        assert norms.max() <= 0.2 + 1e-9
        assert np.isclose(norms, 0.2, rtol=1e-12).sum() >= 1  # some rows were clipped

    def test_cnn_step_over_two_chunks_matches_the_tape_clip(self):
        images = datasets.make_glyph_images(9, 4, 28, 28)
        spec = models.cnn_spec(28, 28, images.classes)
        params = models.init_params(spec, 2)
        assert 1 < 9 / models.chunk_size(params) <= 2
        batch = [(s.x, s.y) for s in datasets.image_subjects(images)]
        grads = models.per_sample_loss_and_grad(spec, params, _stacked(spec, batch))[1]
        clip = float(np.median(np.linalg.norm(grads, axis=1)))  # rows above and below C
        cfg = dpsgd.DpSgdConfig(
            learning_rate=0.1, epochs=1, batch_size=9, seed=5, private=True, clip=clip, sigma=0.3
        )
        result = dpsgd.dp_sgd_step(spec, params, _stacked(spec, batch), cfg, step_index=3)
        expected, _ = _step_through_clip_differentiable(spec, params, batch, cfg, result.noise)
        assert result.params.flat.tobytes() == expected.tobytes()

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

    def test_non_finite_loss_is_refused_before_the_update(self):
        # the squared residual overflows; numpy's warning is silenced, so under
        # the suite's warnings-as-errors filter only the step's error is raised
        params = models.init_params(LINEAR_SPEC, 1).with_flat(np.full(3, 1e200))
        cfg = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=4)
        with pytest.raises(TrainingDivergedError, match="^non-finite loss at step 7$"):
            dpsgd.dp_sgd_step(LINEAR_SPEC, params, _stacked(LINEAR_SPEC, _linear_dataset()[:4]),
                              cfg, step_index=7)

    def test_update_that_overflows_is_refused(self):
        params = models.init_params(LINEAR_SPEC, 1)
        cfg = dpsgd.DpSgdConfig(learning_rate=1e308, epochs=1, batch_size=4)
        with pytest.raises(TrainingDivergedError, match="^non-finite parameters after step 3$"):
            dpsgd.dp_sgd_step(LINEAR_SPEC, params, _stacked(LINEAR_SPEC, _linear_dataset()[:4]),
                              cfg, step_index=3)

    def test_row_whose_squared_norm_overflows_is_refused(self):
        # w = 0, y = 1: the first row's gradient is -2e154, whose square is inf,
        # so its clip factor is 0 and clipping would silently drop the row
        spec = models.ModelSpec((models.Linear(1, 1, bias=False),), models.MSE)
        params = models.ParamSet(np.zeros(1), models.layout_for(spec))
        cfg = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=2, private=True,
                                clip=1.0, sigma=1.0)
        batch = [(np.array([1e154]), 1.0), (np.array([1.0]), 1.0)]
        with pytest.raises(TrainingDivergedError, match="overflows at step 5; clipping would"):
            dpsgd.dp_sgd_step(spec, params, _stacked(spec, batch), cfg, step_index=5)

    def test_empty_batch_rejected(self):
        params = models.init_params(LINEAR_SPEC, 1)
        cfg = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=4)
        with pytest.raises(ConfigError):
            empty = _stacked(LINEAR_SPEC, _linear_dataset())[:0]
            dpsgd.dp_sgd_step(LINEAR_SPEC, params, empty, cfg)


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
        with pytest.raises(TrainingDivergedError, match=r"step \d+"):
            dpsgd.train(LINEAR_SPEC, data, cfg)


def _step_loop(spec, data, config, sigma):
    """train's outputs from a loop of dp_sgd_step over slices of (x, y) pairs,
    each stacked on its own and each step drawing its own noise: the final
    parameters, the step records, the per-epoch losses, the final epsilon
    and the accountant."""
    step_config = replace(config, target_epsilon=None, sigma=sigma) if config.private else config
    params = models.init_params(spec, config.seed)
    accountant = accounting.AccountantState() if config.private else None
    records, per_epoch = [], []
    for _ in range(config.epochs):
        losses = []
        for start in range(0, len(data), config.batch_size):
            step = len(records)
            batch = _stacked(spec, data[start : start + config.batch_size])
            result = dpsgd.dp_sgd_step(spec, params, batch, step_config, step)
            params, eps = result.params, 0.0
            if accountant is not None:
                accountant.add_step(config.clip, sigma * config.clip)
                eps = accounting.epsilon_from_rdp(accountant, config.target_delta).epsilon
            losses.append(result.mean_loss)
            records.append((step, result.mean_loss, eps))
        per_epoch.append(float(np.mean(losses)))
    final = None
    if accountant is not None:
        final = accounting.epsilon_from_rdp(accountant, config.target_delta).epsilon
    return params, records, per_epoch, final, accountant


_MLP = models.ModelSpec((models.Linear(4, 16), models.Tanh(), models.Linear(16, 1)), models.MSE)
_CNN = models.ModelSpec(
    (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(2 * 4 * 4, 2)),
    models.CROSS_ENTROPY,
)


def _tabular(n):
    rng = np.random.default_rng(31)
    return [(rng.normal(size=4), rng.normal(size=1)) for _ in range(n)]


def _images(n):
    rng = np.random.default_rng(32)
    return [(rng.uniform(0, 1, (1, 6, 6)), i % 2) for i in range(n)]


class TestTrainIsAStepLoop:
    """train checks and stacks the dataset once and draws noise in blocks;
    its outputs equal a loop of the public step to the bit."""

    def _assert_same(self, spec, data, config):
        trace = dpsgd.train(spec, data, config)
        params, records, per_epoch, final, accountant = _step_loop(
            spec, data, config, trace.sigma_used
        )
        assert trace.params.flat.tobytes() == params.flat.tobytes()
        assert trace.step_records == records
        assert trace.per_epoch_loss == per_epoch
        assert trace.final_epsilon == final
        if accountant is None:
            assert trace.accountant is None
        else:
            assert trace.accountant.steps == accountant.steps
            assert trace.accountant.ratio_sq == accountant.ratio_sq

    @pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "blocks-of-3"])
    def test_private_batch_one_mlp_to_a_target_epsilon(self, monkeypatch, block_rows):
        params = models.init_params(_MLP, 0)
        if block_rows is not None:
            # 40 steps in 14 blocks, the last of one row
            monkeypatch.setattr(dpsgd, "NOISE_BLOCK_ENTRIES", block_rows * params.count + 5)
        assert dpsgd.NOISE_BLOCK_ENTRIES // params.count == (block_rows or 84)
        config = dpsgd.DpSgdConfig(learning_rate=0.05, epochs=4, batch_size=1, seed=3,
                                   private=True, clip=0.5, target_epsilon=4.0)
        self._assert_same(_MLP, _tabular(10), config)

    @pytest.mark.parametrize("private", [True, False], ids=["private", "non-private"])
    def test_cnn_whose_ragged_last_batch_spans_chunks(self, monkeypatch, private):
        # batches of 5, 5 and 4 samples in chunks of 3: 3 + 2, 3 + 2, 3 + 1
        params = models.init_params(_CNN, 0)
        monkeypatch.setattr(models, "CHUNK_ENTRIES", 3 * params.count)
        config = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=2, batch_size=5, seed=4,
                                   private=private, clip=0.3 if private else None,
                                   sigma=0.9 if private else 0.0)
        self._assert_same(_CNN, _images(14), config)

    @pytest.mark.parametrize("private", [True, False], ids=["private", "non-private"])
    def test_divergence_names_its_step_past_a_noise_block(self, monkeypatch, private):
        # sample 9's residual is about 1e200: its loss and gradient overflow
        monkeypatch.setattr(dpsgd, "NOISE_BLOCK_ENTRIES", 4 * 3)
        data = _linear_dataset(n=12)
        data[9] = (np.array([1e200, 0.0, 0.0]), data[9][1])
        config = dpsgd.DpSgdConfig(learning_rate=0.01, epochs=2, batch_size=1,
                                   private=private, clip=1.0 if private else None,
                                   sigma=1.0 if private else 0.0)
        with pytest.raises(TrainingDivergedError, match=r"at step 9(;|$)"):
            dpsgd.train(LINEAR_SPEC, data, config)


class TestTrainOwnsItsParameters:
    """train copies its start parameters once into a buffer it owns and every
    step updates that buffer in place; dp_sgd_step without out leaves the
    caller's parameters alone and returns new ones."""

    @pytest.mark.parametrize("private", [True, False], ids=["private", "non-private"])
    def test_initial_is_left_unchanged(self, private):
        data = _tabular(7)
        initial = models.init_params(_MLP, 9)
        before = initial.flat.copy()
        config = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=2, batch_size=3, seed=1,
                                   private=private, clip=1.0 if private else None,
                                   sigma=1.0 if private else 0.0)
        trace = dpsgd.train(_MLP, data, config, initial=initial)
        assert initial.flat.tobytes() == before.tobytes()
        assert not np.shares_memory(trace.params.flat, initial.flat)
        assert trace.params.flat.tobytes() != before.tobytes()

    def test_dp_regression_starts_from_zeros_it_keeps(self, monkeypatch):
        starts = []
        original = dpsgd.train

        def recorded(spec, dataset, config, initial=None):
            starts.append((initial, initial.flat.copy()))
            return original(spec, dataset, config, initial=initial)

        monkeypatch.setattr(dpsgd, "train", recorded)
        run = experiments.dp_regression(0)
        ((initial, before),) = starts
        assert not before.any() and initial.flat.tobytes() == before.tobytes()
        assert run.params.flat.any() and not np.shares_memory(run.params.flat, initial.flat)

    def test_steps_update_one_buffer_that_shares_no_memory_with_their_noise(self, monkeypatch):
        results, original = [], dpsgd.dp_sgd_step

        def recorded(*args, out):
            results.append((out, original(*args, out=out)))
            return results[-1][1]

        monkeypatch.setattr(dpsgd, "dp_sgd_step", recorded)
        config = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=2, batch_size=2, seed=1,
                                   private=True, clip=1.0, sigma=1.0)
        trace = dpsgd.train(_MLP, _tabular(5), config)
        assert len(results) == 6
        for out, result in results:
            assert out is trace.params and result.params is out
            assert not np.shares_memory(trace.params.flat, result.noise)

    @pytest.mark.parametrize("private", [True, False], ids=["private", "non-private"])
    def test_step_without_out_returns_new_parameters(self, private):
        params = models.init_params(_MLP, 2)
        before = params.flat.copy()
        batch = _stacked(_MLP, _tabular(4))
        config = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=4, private=private,
                                   clip=1.0 if private else None, sigma=1.0 if private else 0.0)
        fresh = dpsgd.dp_sgd_step(_MLP, params, batch, config, 3)
        assert fresh.params is not params
        assert not np.shares_memory(fresh.params.flat, params.flat)
        assert params.flat.tobytes() == before.tobytes()
        out = params.with_flat(params.flat.copy())
        in_place = dpsgd.dp_sgd_step(_MLP, out, batch, config, 3, out=out)
        assert in_place.params is out
        assert out.flat.tobytes() == fresh.params.flat.tobytes()
        assert in_place.mean_loss == fresh.mean_loss


@pytest.mark.parametrize("private", [False, True], ids=["non-private", "private"])
def test_training_reuses_one_workspace_and_returns_none_of_it(monkeypatch, private):
    """3 CNN steps of 7 samples in chunks of 3, 3 and 1: each layer's patch
    matrix lands in one buffer for every chunk, a private run's gradient
    rows in one buffer per chunk length, and neither train's parameters nor
    PLIS, the rows or J^T u share memory with any array the workspace
    handed out."""
    params = models.init_params(_CNN, 0)
    monkeypatch.setattr(models, "CHUNK_ENTRIES", 3 * params.count)
    handed, patches, rows = [], {}, {}

    class Recording(models.Workspace):
        def empty(self, key, shape, dtype=np.float64):
            handed.append(super().empty(key, shape, dtype))
            if key == "rows":
                rows.setdefault(shape[0], set()).add(handed[-1].__array_interface__["data"][0])
            return handed[-1]

    original = autodiff._im2col

    def recorded(images, k, out=None):
        if out is not None:  # a workspace's buffer: train's until the PLIS call below
            patches.setdefault(images.shape[1:], []).append(
                (len(images), out.__array_interface__["data"][0])
            )
        return original(images, k, out)

    monkeypatch.setattr(dpsgd, "Workspace", Recording)
    monkeypatch.setattr(autodiff, "_im2col", recorded)
    data = _images(7)
    config = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=3, batch_size=7, seed=2, private=private,
                               clip=0.5 if private else None, sigma=1.0 if private else 0.0)
    trace = dpsgd.train(_CNN, data, config)
    assert len(trace.step_records) == 3
    assert list(patches) == [(1, 6, 6)]  # the one conv layer
    for calls in patches.values():
        assert [n for n, _ in calls] == [3, 3, 1] * 3
        assert len({address for _, address in calls}) == 1
    assert rows == ({3: rows[3], 1: rows[1]} if private else {})
    assert all(len(addresses) == 1 for addresses in rows.values())
    subjects = [plis.SubjectRecord(f"s{i}", x, y) for i, (x, y) in enumerate(data)]
    batch = _stacked(_CNN, data)
    sample = models.attach_sample(_CNN, trace.params, batch)
    (jtu,) = autodiff.backward(sample.grads, [sample.x], cotangent=np.ones(sample.grads.shape))
    outputs = [trace.params.flat, sample.grads.data, jtu.data,
               *models.per_sample_loss_and_grad(_CNN, trace.params, batch)]
    for report in plis.plis_reports(_CNN, trace.params, subjects, sigma=1.0, clip=0.5):
        outputs += [report.plis, np.asarray(report.pl)]
    assert handed
    assert not any(np.shares_memory(a, b) for a in outputs for b in handed)


class TestConfigFile:
    def test_parse_full_file(self):
        text = """
        # training configuration
        clip = 1.5
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
            private=True, clip=1.5, target_epsilon=1.0, target_delta=1e-5,
        )

    @pytest.mark.parametrize("text", ["", "# nothing set\n\n"])
    def test_keys_not_given_take_the_config_defaults(self, text):
        cfg = dpsgd.parse_config_text(text)
        expected = dpsgd.DpSgdConfig(
            learning_rate=0.1, epochs=1, batch_size=32, seed=0,
            private=False, clip=None, sigma=0.0, target_epsilon=None, target_delta=1e-5,
        )
        # repr tells 0 from 0.0, which == does not
        assert repr(cfg) == repr(expected)

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
