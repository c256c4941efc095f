"""Batched routes against one sample at a time, two routes through the
gradient's input Jacobian, and graph lifetime.

Every batched route must reproduce its per-sample counterpart within
1e-12 relative (to the largest entry of the per-sample result), on random
small linear, MLP and CNN specs, for a batch of one and for batches whose
last chunk is ragged.  On the same specs, the per-sample gradients must
match central differences of the losses in theta, batched direct-route
PLIS central differences of the privacy loss in x, the clip must bound
every per-sample gradient and leave those below the threshold alone, and
the FIM must equal J^T J / sigma^2.  J = dg/dx is reached two ways that
share only the forward pass: forward-mode (plis.input_jacobian and
models.grad_tangents, J times input directions) and reverse through
attach_sample's gradient node (J^T c, one backward pass per column of
J^T), and unclipped PLIS must equal (2/sigma^2) J^T g with J from the
first.  PLIS also passes a dot test against the forward mode, row by
row.  Central differences of the per-sample gradient check J too.  The
node and the tape-free route take their batch from one check, which
refuses a bad batch.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plislab import attack, autodiff, datasets, dpsgd, models, plis
from plislab.autodiff import backward
from plislab.errors import ShapeError

REL = 1e-12


def assert_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = np.abs(expected).max(initial=0.0)
    assert np.abs(actual - expected).max(initial=0.0) <= REL * scale


@contextlib.contextmanager
def chunked(params, size):
    """Make graphs hold `size` samples for this model."""
    saved = models.CHUNK_ENTRIES
    models.CHUNK_ENTRIES = size * params.count
    try:
        assert models.chunk_size(params) == size
        yield
    finally:
        models.CHUNK_ENTRIES = saved


@st.composite
def problems(draw):
    """(spec, params, subjects, samples per graph) for a random small model."""
    kind = draw(st.sampled_from(["linear", "mlp", "cnn"]))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cnn":
        side, channels = draw(st.integers(4, 6)), draw(st.integers(1, 3))
        layers = (
            models.Conv2d(1, channels, 3),
            models.Relu(),
            models.Flatten(),
            models.Linear(channels * (side - 2) ** 2, 2),
        )
        spec = models.ModelSpec(layers, models.CROSS_ENTROPY)
        xs = rng.uniform(0, 1, size=(n, 1, side, side))
    else:
        d = draw(st.integers(1, 5))
        if kind == "linear":
            layers, out = (models.Linear(d, 1, bias=draw(st.booleans())),), 1
        else:
            hidden, out = draw(st.integers(2, 5)), draw(st.integers(1, 3))
            act = draw(st.sampled_from([models.Relu(), models.Tanh(), models.Softplus()]))
            layers = (models.Linear(d, hidden), act, models.Linear(hidden, out))
        loss = models.MSE if out == 1 else draw(st.sampled_from([models.MSE, models.CROSS_ENTROPY]))
        spec = models.ModelSpec(layers, loss)
        xs = rng.normal(size=(n, d))
    if spec.loss == models.CROSS_ENTROPY:
        ys = [int(v) for v in rng.integers(0, 2, size=n)]
    else:
        ys = [rng.normal(size=models.output_shape(spec, xs.shape[1:])) for _ in range(n)]
    params = models.init_params(spec, int(rng.integers(0, 1 << 30)))
    subjects = [plis.SubjectRecord(f"s{i}", xs[i], ys[i]) for i in range(n)]
    return spec, params, subjects, draw(st.integers(1, n))


def _stacked(spec, subjects):
    """The subjects' inputs and targets as one models.Batch."""
    return models.stack_batch(spec, [s.x for s in subjects], [s.y for s in subjects])


def _per_sample_grads(spec, params, subjects):
    return [models.per_sample_grad(spec, params, s.x, s.y).data for s in subjects]


@settings(max_examples=30, deadline=None)
@given(problems())
def test_losses_and_gradients_match_per_sample(problem):
    spec, params, subjects, _ = problem
    losses, grads = models.per_sample_loss_and_grad(spec, params, _stacked(spec, subjects))
    for i, s in enumerate(subjects):
        one = models.stack_batch(spec, [s.x], [s.y])
        assert_close(losses[i], models.per_sample_loss_and_grad(spec, params, one)[0][0])
    assert_close(grads, np.stack(_per_sample_grads(spec, params, subjects)))


def _same_bits(got, want):
    return [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=30, deadline=None)
@given(problems())
def test_rows_match_central_differences_of_the_losses_in_theta(problem):
    """The (B, p) rows against central differences of the B losses in each
    parameter, and attach_sample's node holds the same rows to the bit."""
    spec, params, subjects, _ = problem
    assume(not _near_a_kink(spec, params, subjects, None))
    batch = _stacked(spec, subjects)
    losses, rows = models.per_sample_loss_and_grad(spec, params, batch)
    sample = models.attach_sample(spec, params, batch)
    assert sample.grads.data.tobytes() == rows.tobytes()
    h = 1e-6

    def at(theta):
        return models.per_sample_loss_and_grad(spec, params.with_flat(theta), batch)[0]

    theta = params.flat
    numeric = np.stack([(at(theta + e) - at(theta - e)) / (2 * h) for e in h * np.eye(theta.size)], 1)
    # roundoff of about eps * loss / h: measure against the losses too
    scale = max(np.abs(numeric).max(), losses.max(), 1e-300)
    assert np.abs(rows - numeric).max() <= 1e-6 * scale


@pytest.mark.parametrize("spec", [
    models.cnn_spec(8, 7, 3),
    models.ModelSpec(
        (models.Conv2d(1, 3, 3, bias=False), models.Softplus(), models.Conv2d(3, 2, 2),
         models.Tanh(), models.Flatten(), models.Linear(2 * 5 * 4, 2, bias=False)),
        models.MSE,
    ),
], ids=["cnn-spec", "softplus-tanh-mse"])
def test_step_over_a_ragged_last_chunk_equals_the_unchunked_step(spec):
    """Two convs, 7 samples in chunks of 3, 3 and 1: each chunk's rows equal
    the unchunked batch's to the bit, the private step's parameters are
    those rows clipped and summed chunk by chunk, to the bit, and match the
    unchunked step's."""
    params = models.init_params(spec, 11)
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 1, size=(7, 1, 8, 7))
    if spec.loss == models.CROSS_ENTROPY:
        ys = [int(v) for v in rng.integers(0, 3, size=7)]
    else:
        ys = list(rng.normal(size=(7, 2)))
    batch = models.stack_batch(spec, xs, ys)
    all_losses, all_rows = models.per_sample_loss_and_grad(spec, params, batch)
    clip = float(np.median(np.linalg.norm(all_rows, axis=1)))
    config = dpsgd.DpSgdConfig(learning_rate=0.5, epochs=1, batch_size=7, private=True,
                               clip=clip, sigma=0.7)
    whole = dpsgd.dp_sgd_step(spec, params, batch, config)
    with chunked(params, 3):
        result = dpsgd.dp_sgd_step(spec, params, batch, config)
    total, losses = np.zeros(params.count), []
    for part in models.chunks(range(7), 3):
        chunk = models.stack_batch(spec, xs[part.start : part.stop], [ys[i] for i in part])
        loss, g = models.per_sample_loss_and_grad(spec, params, chunk)
        rows = slice(part.start, part.stop)
        assert _same_bits((loss, g), (all_losses[rows], all_rows[rows]))
        losses.append(loss)
        total += (g * dpsgd.clip_factor(g, clip)).sum(axis=0)
    assert len(losses[-1]) == 1
    update = (total + result.noise * (0.7 * clip)) / 7
    assert result.params.flat.tobytes() == (params.flat - 0.5 * update).tobytes()
    assert result.mean_loss == float(np.mean(np.concatenate(losses)))
    assert_close(result.params.flat, whole.params.flat)


_LINEAR3 = models.ModelSpec((models.Linear(3, 1),), models.MSE)
_LOGITS2 = models.ModelSpec((models.Linear(3, 2),), models.CROSS_ENTROPY)


@pytest.mark.parametrize("spec, xs, ys", [
    pytest.param(_LINEAR3, np.zeros((0, 3)), [], id="empty-batch"),
    pytest.param(_LINEAR3, np.zeros((2, 3)), [0.0], id="target-count"),
    pytest.param(_LINEAR3, np.zeros((2, 3)), [np.zeros(2)] * 2, id="target-shape"),
    pytest.param(_LINEAR3, np.zeros((2, 3)), [np.zeros(1), np.zeros(2)], id="ragged-targets"),
    pytest.param(_LOGITS2, np.zeros((2, 3)), [0, 2], id="label-out-of-range"),
    pytest.param(_LOGITS2, np.zeros((2, 3)), [[0, 1], [1, 0]], id="label-count"),
    pytest.param(models.ModelSpec((models.Linear(3, 1),), models.CROSS_ENTROPY),
                 np.zeros((1, 3)), [0], id="single-logit"),
])
def test_tape_free_route_refuses_a_batch_as_the_tape_does(spec, xs, ys):
    """The node and the tape-free route take their samples from one check,
    stack_batch, which refuses a bad batch before either runs."""
    with pytest.raises(ShapeError):
        models.stack_batch(spec, xs, ys)


def test_plis_names_a_ragged_subject_by_its_place_in_the_list():
    """Chunks of 2: subject 3's input, in the second chunk, is named as
    sample 3 against sample 2, the first of its chunk."""
    params = models.init_params(_LINEAR3, 0)
    subjects = [plis.SubjectRecord(f"s{i}", np.zeros(4 if i == 3 else 3), np.zeros(1))
                for i in range(5)]
    with chunked(params, 2), pytest.raises(
        ShapeError, match=r"^sample 3 has input shape \(4,\), sample 2 has \(3,\)$"
    ):
        plis.plis_reports(_LINEAR3, params, subjects)


@settings(max_examples=30, deadline=None)
@given(problems(), st.floats(0.3, 3.0))
def test_dp_sgd_step_clipped_sum_matches_per_sample(problem, clip_quantile):
    spec, params, subjects, size = problem
    grads = _per_sample_grads(spec, params, subjects)
    # a threshold some rows exceed and others do not
    clip = clip_quantile * float(np.median([np.linalg.norm(g) for g in grads])) + 1e-3
    clipped = [dpsgd.clip_differentiable(g, clip)[0] for g in grads]
    config = dpsgd.DpSgdConfig(
        learning_rate=0.5, epochs=1, batch_size=len(subjects), private=True, clip=clip, sigma=0.7
    )
    with chunked(params, size):
        result = dpsgd.dp_sgd_step(spec, params, _stacked(spec, subjects), config)
    update = (np.sum(clipped, axis=0) + result.noise * (0.7 * clip)) / len(subjects)
    assert_close(result.params.flat, params.flat - 0.5 * update)
    # the same chunks through clip_differentiable give the step's parameters to the bit
    total = np.zeros(params.count)
    for part in models.chunks(subjects, size):
        g = models.per_sample_loss_and_grad(spec, params, _stacked(spec, part))[1]
        total += dpsgd.clip_differentiable(g, clip)[0].sum(axis=0)
    update = (total + result.noise * (0.7 * clip)) / len(subjects)
    assert result.params.flat.tobytes() == (params.flat - 0.5 * update).tobytes()


@settings(max_examples=30, deadline=None)
@given(problems())
def test_non_private_step_sums_the_rows_of_each_chunk(problem):
    """The summed walk against the rows route, chunk by chunk (the last may
    be ragged): the totals that loss_and_grad_sum adds up in one workspace
    equal per_sample_loss_and_grad's rows summed per chunk, conv kernel and
    bias blocks to the bit, and Linear weight blocks (one GEMM g^T h) within
    1e-14 of the largest sum of their terms' magnitudes.  The losses keep
    their bits, and a non-private step is that total's update, to the bit."""
    spec, params, subjects, size = problem
    rows_total, summed, abs_total = (np.zeros(params.count) for _ in range(3))
    work = models.Workspace()
    for part in models.chunks(subjects, size):
        batch = _stacked(spec, part)
        loss, g = models.per_sample_loss_and_grad(spec, params, batch)
        rows_total += g.sum(axis=0)
        abs_total += np.abs(g).sum(axis=0)
        assert _same_bits([models.loss_and_grad_sum(spec, params, batch, summed, work)], [loss])
    for block in params.layout:
        layer = spec.layers[int(block.name.split(".")[0])]
        got, want = params.columns(summed, block.name), params.columns(rows_total, block.name)
        if isinstance(layer, models.Linear) and block.name.endswith(".weight"):
            scale = params.columns(abs_total, block.name).max()
            assert np.abs(got - want).max() <= 1e-14 * scale
        else:
            assert got.tobytes() == want.tobytes()
    config = dpsgd.DpSgdConfig(learning_rate=0.5, epochs=1, batch_size=len(subjects))
    with chunked(params, size):
        result = dpsgd.dp_sgd_step(spec, params, _stacked(spec, subjects), config)
    update = summed / len(subjects)
    assert result.params.flat.tobytes() == (params.flat - 0.5 * update).tobytes()


@pytest.mark.parametrize("spec", [
    _LINEAR3,
    models.ModelSpec((models.Conv2d(1, 1, 1), models.Flatten(), models.Linear(4, 1)), models.MSE),
], ids=["linear-bias", "one-entry-kernel"])
def test_summed_blocks_of_one_entry_keep_the_row_sums_bits(spec):
    """20 samples in one chunk: numpy sums a lone column pairwise, but the
    (20, p) rows column by column in batch order; a one-entry bias or conv
    kernel block of the summed walk takes the rows' bits."""
    rng = np.random.default_rng(3)  # sums that the two orders round apart
    shape = (3,) if spec is _LINEAR3 else (1, 2, 2)
    xs = rng.normal(size=(20, *shape)) * 10.0 ** rng.integers(-6, 6, size=(20, *shape))
    batch = models.stack_batch(spec, xs, rng.normal(size=(20, 1)))
    params = models.init_params(spec, 5)
    summed = np.zeros(params.count)
    models.loss_and_grad_sum(spec, params, batch, summed, models.Workspace())
    rows = models.per_sample_loss_and_grad(spec, params, batch)[1].sum(axis=0)
    for block in params.layout:
        if block.size == 1:
            assert params.columns(summed, block.name).tobytes() == (
                params.columns(rows, block.name).tobytes())


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from([None, 0.7]), st.booleans(), st.booleans())
def test_plis_routes_match_per_sample(problem, sigma, clipped, expanded):
    spec, params, subjects, size = problem
    clip = None
    if clipped:
        norms = [np.linalg.norm(g) for g in _per_sample_grads(spec, params, subjects)]
        clip = float(np.median(norms)) + 1e-3
    one = plis.plis_expanded if expanded else plis.plis_direct
    expected = [one(spec, params, s, sigma=sigma, clip=clip) for s in subjects]
    with chunked(params, size):
        reports = plis.plis_reports(spec, params, subjects, sigma, clip, expanded=expanded)
    assert [r.subject_id for r in reports] == [s.id for s in subjects]
    for got, want, s in zip(reports, expected, subjects):
        assert_close(got.pl, want.pl)
        # a saturated clipped subject's expanded PLIS is roundoff (its direct
        # PLIS is exactly 0): compare against the floor
        assert plis.deviation(want, got, s.x) <= REL
        assert got.mode == want.mode


def _relu_inputs(spec, params, xs):
    """The input of each relu layer, from a forward pass of the layers below it."""
    inputs = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, models.Relu):
            if i == 0:
                inputs.append(xs)
                continue
            below = models.ModelSpec(spec.layers[:i], models.MSE)
            layout = models.layout_for(below)
            head = models.ParamSet(params.flat[: sum(b.size for b in layout)], layout)
            inputs.append(models._layer_records(below, head, xs)[0])
    return inputs


def _near_a_kink(spec, params, subjects, clip):
    """True when a relu input lies within 1e-5 of 0, or a gradient norm
    within 1e-4 relative of the clip: a finite-difference step of 1e-6
    could cross the kink there, where the PL jumps or bends."""
    batch = _stacked(spec, subjects)
    if any(np.abs(z).min() < 1e-5 for z in _relu_inputs(spec, params, batch.xs)):
        return True
    norms = np.linalg.norm(models.per_sample_loss_and_grad(spec, params, batch)[1], axis=1)
    return clip is not None and bool(np.any(np.abs(norms - clip) < 1e-4 * clip))


def _pl(spec, params, xs, y, sigma, clip):
    """PL at each input of xs with label y: values of plis_reports' forward pass."""
    subjects = [plis.SubjectRecord(f"x{i}", x, y) for i, x in enumerate(xs)]
    return np.array([r.pl for r in plis.plis_reports(spec, params, subjects, sigma, clip)])


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from([None, 0.7]), st.booleans())
def test_direct_plis_matches_finite_differences_of_privacy_loss(problem, sigma, clipped):
    spec, params, subjects, size = problem
    clip = None
    if clipped:
        norms = [np.linalg.norm(g) for g in _per_sample_grads(spec, params, subjects)]
        clip = float(np.median(norms)) + 1e-3
    assume(not _near_a_kink(spec, params, subjects, clip))
    with chunked(params, size):
        reports = plis.plis_reports(spec, params, subjects, sigma, clip)
    _assert_central_differences_of_pl(spec, params, subjects, reports, sigma, clip)


def _assert_central_differences_of_pl(spec, params, subjects, reports, sigma, clip):
    h = 1e-6
    for report, s in zip(reports, subjects):
        steps = h * np.eye(s.x.size).reshape((s.x.size,) + s.x.shape)
        hi, lo = (_pl(spec, params, [s.x + d for d in sign * steps], s.y, sigma, clip)
                  for sign in (1, -1))
        numeric = (hi - lo) / (2 * h)
        # central differences carry roundoff of about eps * PL / h; measure
        # against the floor plis.deviation uses, PL / max |x|
        scale = max(np.abs(numeric).max(), report.pl / np.abs(s.x).max(), 1e-300)
        assert np.abs(report.plis.reshape(-1) - numeric).max() <= 1e-5 * scale


@pytest.mark.parametrize("expanded", [False, True], ids=["direct", "expanded"])
@pytest.mark.parametrize("spec, shape, y", [
    pytest.param(models.ModelSpec((models.Tanh(), models.Linear(3, 4), models.Softplus(),
                                   models.Linear(4, 1)), models.MSE),
                 (3,), np.array([0.3]), id="tanh-first-mlp"),
    pytest.param(models.ModelSpec((models.Flatten(), models.Linear(20, 1, bias=False)), models.MSE),
                 (1, 4, 5), np.array([0.3]), id="flatten-first-linear"),
    pytest.param(models.ModelSpec((models.Softplus(), models.Conv2d(1, 2, 2), models.Conv2d(2, 2, 2),
                                   models.Tanh(), models.Flatten(), models.Linear(2 * 3 * 2, 3)),
                                  models.CROSS_ENTROPY),
                 (1, 5, 4), 2, id="softplus-first-conv-conv"),
    pytest.param(models.ModelSpec((models.Tanh(), models.Flatten()), models.MSE),
                 (1, 2, 3), np.zeros(6), id="no-parameters"),
])
def test_plis_reaches_x_through_the_layers_below_the_first_weighted_one(spec, shape, y, expanded):
    """The walk runs past the first weighted layer down to x: through leading
    activations and Flatten, through two convs with no activation between,
    and for a model without parameters, whose PL and PLIS are 0."""
    params = models.init_params(spec, 7)
    rng = np.random.default_rng(7)
    subjects = [plis.SubjectRecord(f"s{i}", rng.uniform(-1, 1, size=shape), y) for i in range(3)]
    reports = plis.plis_reports(spec, params, subjects, 0.7, expanded=expanded)
    if not params.count:
        assert all(r.pl == 0.0 and not r.plis.any() for r in reports)
    _assert_central_differences_of_pl(spec, params, subjects, reports, 0.7, None)


def _jacobian_by_columns(spec, params, subject):
    """Oracle: J (p x d) from one graph for the subject and one backward pass
    per column of J^T: the node seeded with e_k gives J^T e_k, the
    reverse half of the walk, which shares no tangent code with grad_tangents."""
    sample = models.attach_sample(spec, params, _stacked(spec, [subject]))
    return np.stack([
        backward(sample.grads, [sample.x], cotangent=e[None])[0].data.reshape(-1)
        for e in np.eye(params.count)
    ])


@settings(max_examples=30, deadline=None)
@given(problems(), st.integers(1, 7))
def test_input_jacobian_matches_column_loop(problem, replicas):
    spec, params, subjects, _ = problem
    subject = subjects[0]
    with chunked(params, replicas):
        jac = plis.input_jacobian(spec, params, subject)
    assert_close(jac, _jacobian_by_columns(spec, params, subject))


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from([None, 0.7]), st.booleans())
def test_unclipped_plis_is_two_over_sigma_squared_times_jt_g(problem, sigma, expanded):
    """Both PLIS routes, reverse through the gradient node, against
    (2/sigma^2) J^T g with J from the forward-mode input Jacobian."""
    spec, params, subjects, size = problem
    with chunked(params, size):
        reports = plis.plis_reports(spec, params, subjects, sigma, expanded=expanded)
    scale = 1.0 if sigma is None else 1.0 / sigma**2
    for report, s in zip(reports, subjects):
        g = models.per_sample_grad(spec, params, s.x, s.y).data
        jac = plis.input_jacobian(spec, params, s)
        assert_close(report.plis.reshape(-1), 2.0 * scale * (g @ jac))


@settings(max_examples=30, deadline=None)
@given(problems())
def test_grad_tangents_apply_the_jacobian_to_each_direction(problem):
    """One direction per row: a subject three times, then every subject."""
    spec, params, subjects, _ = problem
    subject = subjects[0]
    directions = np.random.default_rng(subject.x.size).normal(size=(3, *subject.x.shape))
    tangents = models.grad_tangents(spec, params, _stacked(spec, [subject] * 3), directions)
    assert_close(tangents, directions.reshape(3, -1) @ _jacobian_by_columns(spec, params, subject).T)
    directions = np.random.default_rng(len(subjects)).normal(size=(len(subjects), *subject.x.shape))
    tangents = models.grad_tangents(spec, params, _stacked(spec, subjects), directions)
    for row, s, v in zip(tangents, subjects, directions):
        assert_close(row, _jacobian_by_columns(spec, params, s) @ v.reshape(-1))


@settings(max_examples=30, deadline=None)
@given(problems(), st.integers(2, 5))
def test_a_one_sample_batch_takes_every_direction(problem, n):
    """grad_tangents of a one-sample Batch along n directions has the bits of
    grad_tangents of n stacked copies: the sample's records broadcast."""
    spec, params, subjects, _ = problem
    subject = subjects[0]
    directions = np.random.default_rng(n).normal(size=(n, *subject.x.shape))
    one = models.grad_tangents(spec, params, _stacked(spec, [subject]), directions)
    copies = models.grad_tangents(spec, params, _stacked(spec, [subject] * n), directions)
    assert one.tobytes() == copies.tobytes()


@settings(max_examples=30, deadline=None)
@given(problems(), st.booleans())
def test_plis_rows_pass_the_dot_test(problem, expanded):
    """Reverse against forward: PLIS_i = J_i^T u_i with u_i = (2/sigma^2) g_i,
    so ||PLIS_i||^2 = <u_i, J_i PLIS_i>, and one grad_tangents call takes
    every subject's PLIS as its direction.  The sides share the forward pass."""
    spec, params, subjects, size = problem
    sigma = 0.7
    with chunked(params, size):
        reports = plis.plis_reports(spec, params, subjects, sigma, expanded=expanded)
    batch = _stacked(spec, subjects)
    u = (2.0 / sigma**2) * models.per_sample_loss_and_grad(spec, params, batch)[1]
    directions = np.stack([r.plis for r in reports])
    tangents = models.grad_tangents(spec, params, batch, directions)
    for u_i, t_i, v_i in zip(u, tangents, directions):
        norm_sq = float(np.sum(v_i * v_i))
        assert abs(norm_sq - float(u_i @ t_i)) <= REL * norm_sq


def _small_cnn(seed):
    spec = models.ModelSpec(
        (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(2 * 4 * 4, 2)),
        models.CROSS_ENTROPY,
    )
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(1, 6, 6))
    return spec, models.init_params(spec, seed), plis.SubjectRecord("s", x, 1)


def _tabular_mlp(act, seed):
    """The CLI's tabular MLP shape, Linear(4, 16), act, Linear(16, 1), on one subject."""
    spec = models.ModelSpec((models.Linear(4, 16), act, models.Linear(16, 1)), models.MSE)
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=4), rng.normal(size=1)
    return spec, models.init_params(spec, seed), plis.SubjectRecord("s", x, y)


def _relu_mlp(seed):
    """Linear(5, 8), relu, Linear(8, 3) with biases and a 3-class cross-entropy:
    5 inputs, so chunks of 3 directions leave a ragged last chunk of 2."""
    spec = models.ModelSpec(
        (models.Linear(5, 8), models.Relu(), models.Linear(8, 3)), models.CROSS_ENTROPY
    )
    x = np.random.default_rng(seed).normal(size=5)
    return spec, models.init_params(spec, seed), plis.SubjectRecord("s", x, 2)


def _two_conv(seed):
    """Two convs, softplus then tanh, MSE, no bias in the first conv: a (1, 7, 5)
    input, so chunks of 3 directions leave a ragged last chunk of 2."""
    spec = models.ModelSpec(
        (models.Conv2d(1, 3, 3, bias=False), models.Softplus(), models.Conv2d(3, 2, 2),
         models.Tanh(), models.Flatten(), models.Linear(2 * 4 * 2, 2)),
        models.MSE,
    )
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0.0, 1.0, size=(1, 7, 5)), rng.normal(size=2)
    return spec, models.init_params(spec, seed), plis.SubjectRecord("s", x, y)


def _relu_cnn(seed):
    """The CLI's CNN shape on 6x6 images: two relu convs with biases, then a
    Linear layer, so the walk takes a conv input adjoint."""
    spec = models.cnn_spec(6, 6, 2)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(1, 6, 6))
    return spec, models.init_params(spec, seed), plis.SubjectRecord("s", x, 0)


@pytest.mark.parametrize("make", [
    _small_cnn, _relu_cnn, _two_conv, _relu_mlp,
    lambda seed: _tabular_mlp(models.Tanh(), seed),
    lambda seed: _tabular_mlp(models.Softplus(), seed),
], ids=["relu-cnn", "two-relu-conv", "softplus-tanh-conv", "relu-mlp", "tanh-mlp", "softplus-mlp"])
def test_a_one_sample_batch_takes_every_direction_through_each_layer(make):
    """The broadcast walk against n stacked copies, to the bit, on models
    with two convs, each activation and a bias-free conv; and the input
    Jacobian built from it equals one built from the copies."""
    spec, params, subject = make(8)
    n = 4
    directions = np.random.default_rng(9).normal(size=(n, *subject.x.shape))
    one = models.grad_tangents(spec, params, _stacked(spec, [subject]), directions)
    copies = models.grad_tangents(spec, params, _stacked(spec, [subject] * n), directions)
    assert one.tobytes() == copies.tobytes()
    d = subject.x.size
    units = np.eye(d).reshape(d, *subject.x.shape)
    jac = models.grad_tangents(spec, params, _stacked(spec, [subject] * d), units).T
    assert plis.input_jacobian(spec, params, subject).tobytes() == jac.tobytes()


def _address(a):
    return a.__array_interface__["data"][0]


def _glyph_cnn(n):
    """The CLI's CNN on 28x28 glyphs (19,682 parameters: chunks of 6) and n subjects."""
    spec = models.cnn_spec(28, 28, 2)
    return spec, models.init_params(spec, 3), datasets.image_subjects(
        datasets.make_glyph_images(n, 4))


def _bits(reports):
    return [(r.subject_id, r.pl, r.plis.tobytes(), r.subject_plis_norm, r.mode) for r in reports]


@pytest.mark.parametrize("least", [0, None], ids=["every-array", "large-arrays"])
@pytest.mark.parametrize("clip", [None, 0.5, 1e-3])
@pytest.mark.parametrize("expanded", [False, True], ids=["direct", "expanded"])
@pytest.mark.parametrize("make", [_small_cnn, _two_conv], ids=["relu-cnn", "two-conv"])
def test_plis_chunks_keep_the_bits_of_one_chunk_calls(monkeypatch, make, expanded, clip, least):
    """8 subjects in chunks of 3, 3 and 2 report the bits of each chunk run
    as its own one-chunk call, which makes no workspace: no chunk reads an
    array that an earlier chunk left in the workspace, and no report is a
    view of one.  With least 0 the workspace hands out every array."""
    spec, params, subject = make(0)
    rng = np.random.default_rng(5)
    subjects = [plis.SubjectRecord(f"s{i}", rng.uniform(0.0, 1.0, subject.x.shape), subject.y)
                for i in range(8)]
    if least is not None:
        monkeypatch.setattr(plis, "WORK_ENTRIES", least, raising=False)
    with chunked(params, 3):
        reports = plis.plis_reports(spec, params, subjects, 1.3, clip, expanded)
        alone = [plis.plis_reports(spec, params, subjects[i : i + 3], 1.3, clip, expanded)
                 for i in range(0, 8, 3)]
    assert _bits(reports) == _bits([r for part in alone for r in part])


@pytest.mark.parametrize("expanded", [False, True], ids=["direct", "expanded"])
def test_plis_holds_one_chunk_at_a_time(monkeypatch, expanded):
    """When each chunk's attach_sample call starts, the AttachedSample and
    graph of every earlier chunk are gone: they are freed, without the
    cycle collector, before the next chunk is built."""
    spec, params, subject = _small_cnn(1)
    subjects = [plis.SubjectRecord(f"s{i}", subject.x * (i + 1) / 7, i % 2) for i in range(7)]
    earlier = []
    original = plis.attach_sample

    def tracked(*args, **kwargs):
        assert [r() for r in earlier] == [None] * len(earlier)
        sample = original(*args, **kwargs)
        earlier.extend([weakref.ref(sample), weakref.ref(sample.graph)])
        return sample

    monkeypatch.setattr(plis, "attach_sample", tracked)
    gc.disable()
    try:
        with chunked(params, 2):
            plis.plis_reports(spec, params, subjects, 1.0, 0.5, expanded)
    finally:
        gc.enable()
    assert len(earlier) == 2 * 4


@pytest.mark.parametrize("least", [0, None], ids=["every-array", "large-arrays"])
def test_plis_reuses_one_workspace_and_returns_none_of_it(monkeypatch, least):
    """14 glyphs on the CLI's CNN, in chunks of 6, 6 and 2: each layer's
    patch matrices taken from the workspace (at least its least entries)
    land in one buffer for every chunk, the tangent walk's in one more, and
    so do the rows; no report's PL or PLIS shares memory with any array
    the workspace handed out."""
    spec, params, subjects = _glyph_cnn(14)
    if least is not None:
        monkeypatch.setattr(plis, "WORK_ENTRIES", least)
    least = plis.WORK_ENTRIES
    handed, patches, rows = [], {}, set()

    class Recording(models.Workspace):
        def empty(self, key, shape, dtype=np.float64):
            handed.append(super().empty(key, shape, dtype))
            if key == "rows" and handed[-1].size >= least:
                rows.add(_address(handed[-1]))
            return handed[-1]

    original = autodiff._im2col

    def recorded(images, k, out=None):
        if out is not None and out.size >= least:
            patches.setdefault(images.shape[1:], []).append((len(images), _address(out)))
        return original(images, k, out)

    monkeypatch.setattr(plis, "Workspace", Recording)
    monkeypatch.setattr(autodiff, "_im2col", recorded)
    reports = plis.plis_reports(spec, params, subjects, sigma=1.0)
    assert [len(r.plis) for r in reports] == [1] * 14
    conv2 = patches.pop((8, 26, 26))  # the forward's patches, then the walk's
    assert [n for n, _ in conv2] == [6, 6, 6, 6, 2, 2]
    assert len({a for _, a in conv2[0::2]}) == len({a for _, a in conv2[1::2]}) == 1
    assert patches == ({} if least else {(1, 28, 28): patches[(1, 28, 28)]})
    for calls in patches.values():  # the first conv's input moves not along dtheta
        assert [n for n, _ in calls] == [6, 6, 2] and len({a for _, a in calls}) == 1
    assert len(rows) == 1
    outputs = [np.asarray(r.pl) for r in reports] + [r.plis for r in reports]
    assert not any(np.shares_memory(a, b) for a in outputs for b in handed)


def test_a_one_chunk_plis_call_makes_no_workspace(monkeypatch):
    """A call whose subjects fit one chunk, as plis_direct's, makes no
    workspace; a call of two chunks makes one."""
    made = []

    class Counting(models.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(plis, "Workspace", Counting)
    spec, params, subject = _small_cnn(2)
    with chunked(params, 3):
        plis.plis_reports(spec, params, [subject] * 3, sigma=1.0)
        plis.plis_direct(spec, params, subject)
        plis.plis_expanded(spec, params, subject, clip=0.5)
        assert made == []
        plis.plis_reports(spec, params, [subject] * 4, sigma=1.0)
    assert len(made) == 1


def _central_difference_jacobian(spec, params, subject, h):
    """J[:, j] ~ (g(x + h e_j) - g(x - h e_j)) / 2h from the per-sample gradient g."""
    x = subject.x
    columns = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        step = step.reshape(x.shape)
        plus = models.per_sample_grad(spec, params, x + step, subject.y).data
        minus = models.per_sample_grad(spec, params, x - step, subject.y).data
        columns.append((plus - minus) / (2.0 * h))
    return np.stack(columns, axis=1)


def _relu_margin(spec, params, x):
    """Smallest |pre-activation| of the first (conv or linear) layer over the
    largest |weight|: a step in x shorter than this crosses no relu kink."""
    (pre,) = _relu_inputs(spec, params, x[None])
    weight = next(b for b in params.layout if b.name == "0.weight")
    weights = params.flat[weight.offset : weight.offset + weight.size]
    return np.abs(pre).min() / np.abs(weights).max()


@pytest.mark.parametrize("make", [
    lambda: _small_cnn(3),
    lambda: _tabular_mlp(models.Tanh(), 5),
    lambda: _tabular_mlp(models.Softplus(), 6),
    lambda: _relu_mlp(4),
    lambda: _two_conv(9),
], ids=["cnn", "tanh-mlp", "softplus-mlp", "relu-ce3-mlp-ragged", "softplus-tanh-cnn-ragged"])
def test_input_jacobian_matches_central_differences(make):
    spec, params, subject = make()
    h = 1e-5
    if isinstance(spec.layers[1], models.Relu):
        # the stencil stays on one side of every relu kink
        assert _relu_margin(spec, params, subject.x) > 10 * h
    assert subject.x.size > 3  # two chunks at least
    with chunked(params, 3):
        jac = plis.input_jacobian(spec, params, subject)
    oracle = _central_difference_jacobian(spec, params, subject, h)
    assert np.abs(jac - oracle).max() <= 1e-8 * np.abs(oracle).max()


@pytest.mark.parametrize("make", [
    lambda: _small_cnn(7),
    lambda: _tabular_mlp(models.Tanh(), 8),
], ids=["cnn", "cli-mlp"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_input_jacobian_matches_column_loop_over_chunks(make, replicas):
    spec, params, subject = make()
    assert subject.x.size > replicas
    with chunked(params, replicas):
        jac = plis.input_jacobian(spec, params, subject)
    assert_close(jac, _jacobian_by_columns(spec, params, subject))


@settings(max_examples=30, deadline=None)
@given(problems(), st.floats(0.3, 3.0))
def test_clip_bounds_every_row_and_keeps_rows_below_the_threshold(problem, clip_quantile):
    """||clip(g_i)|| <= C (1 + 1e-12) for every per-sample gradient, and a
    row whose norm is at most C comes back unchanged, to the bit."""
    spec, params, subjects, _ = problem
    grads = models.per_sample_loss_and_grad(spec, params, _stacked(spec, subjects))[1]
    norms = np.linalg.norm(grads, axis=1)
    clip = clip_quantile * float(np.median(norms)) + 1e-3
    clipped = dpsgd.clip_differentiable(grads, clip)[0]
    assert (np.linalg.norm(clipped, axis=1) <= clip * (1 + 1e-12)).all()
    below = norms <= clip
    assert clipped[below].tobytes() == grads[below].tobytes()


@settings(max_examples=30, deadline=None)
@given(problems(), st.floats(0.1, 10.0))
def test_fim_matches_jacobian_gram_matrix(problem, sigma):
    """fim_subject against J^T J / sigma^2 with J from the column loop: the
    FIM, its per-attribute diagonal root and the FIL (sqrt of the largest
    eigenvalue of the FIM)."""
    spec, params, subjects, _ = problem
    subject = subjects[0]
    jac = _jacobian_by_columns(spec, params, subject)
    fim = jac.T @ jac / sigma**2
    report = plis.fim_subject(spec, params, subject, sigma)
    assert_close(report.fim, fim)
    assert_close(report.fil_per_attribute, np.sqrt(np.clip(np.diag(fim), 0.0, None)))
    assert_close(report.fil_subject, np.sqrt(max(np.linalg.eigvalsh(fim)[-1], 0.0)))


def test_graphs_are_freed_by_reference_counting(monkeypatch):
    """With the cycle collector off, no graph outlives the call that built it.
    A DP-SGD step and the input Jacobian build none; each other analysis
    call builds at least one."""
    refs = []

    class TrackedGraph(autodiff.Graph):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(models, "Graph", TrackedGraph)
    spec = models.ModelSpec(
        (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(18, 2)),
        models.CROSS_ENTROPY,
    )
    params = models.init_params(spec, 1)
    subjects = [
        plis.SubjectRecord(f"s{i}", np.full((1, 5, 5), 0.1 * i), i % 2) for i in range(3)
    ]
    config = dpsgd.DpSgdConfig(learning_rate=0.1, epochs=1, batch_size=3, private=True,
                               clip=1.0, sigma=1.0)
    gc.disable()
    try:
        sample = models.attach_sample(spec, params, _stacked(spec, subjects[:1]))
        # alive, with its nodes, for as long as the caller holds the sample
        assert refs[-1]() is sample.graph and sample.graph.nodes
        del sample
        dpsgd.dp_sgd_step(spec, params, _stacked(spec, subjects), config)
        plis.input_jacobian(spec, params, subjects[0])
        assert len(refs) == 1
        for analysis in (
            lambda: plis.plis_reports(spec, params, subjects, sigma=1.0, clip=1.0),
            lambda: plis.plis_expanded(spec, params, subjects[0]),
            lambda: attack.reconstruct(spec, params, np.ones(params.count), 0,
                                       attack.AttackConfig(iterations=2, restarts=1),
                                       input_shape=(1, 5, 5)),
        ):
            built = len(refs)
            analysis()
            assert len(refs) > built
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
