"""Batched graphs against one graph per sample, and graph lifetime.

Every batched route must reproduce its per-sample counterpart within
1e-12 relative (to the largest entry of the per-sample result), on random
small linear, MLP and CNN specs, for a batch of one and for batches whose
last chunk is ragged.  On the same specs, batched direct-route PLIS must
match central finite differences of the privacy loss, the clip must bound
every per-sample gradient and leave those below the threshold alone, and
the FIM must equal J^T J / sigma^2.  The per-sample counterparts take one
sample at a time; the input Jacobian's oracles are the column-by-column loop
with one backward pass per input coordinate (the double-backward route
through a dual leaf) and central differences of the per-sample gradient.
The tape-free per-sample gradients must equal the tape's (attach_sample,
then parameter_grad) bit for bit, and refuse a bad batch with its error.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plislab import attack, autodiff, dpsgd, models, plis
from plislab.autodiff import Tensor, backward, mul, reshape, tslice, tsum
from plislab.errors import PlisLabError

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


def _per_sample_grads(spec, params, subjects):
    return [models.per_sample_grad(spec, params, s.x, s.y).data for s in subjects]


@settings(max_examples=30, deadline=None)
@given(problems())
def test_losses_and_gradients_match_per_sample(problem):
    spec, params, subjects, _ = problem
    xs, ys = np.stack([s.x for s in subjects]), [s.y for s in subjects]
    losses, grads = models.per_sample_loss_and_grad(spec, params, xs, ys)
    for i, s in enumerate(subjects):
        assert_close(losses[i], models.attach_sample(spec, params, [s.x], [s.y]).loss.item())
    assert_close(grads, np.stack(_per_sample_grads(spec, params, subjects)))


def _tape_rows(spec, params, xs, ys):
    """Losses and (B, p) gradient rows from the tape: one graph, one backward pass."""
    sample = models.attach_sample(spec, params, xs, ys)
    return sample.losses.data, models.parameter_grad(sample).data


def _same_bits(got, want):
    return [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=60, deadline=None)
@given(problems())
def test_tape_free_rows_equal_the_tape_bit_for_bit(problem):
    spec, params, subjects, _ = problem
    xs, ys = np.stack([s.x for s in subjects]), [s.y for s in subjects]
    assert _same_bits(models.per_sample_loss_and_grad(spec, params, xs, ys),
                      _tape_rows(spec, params, xs, ys))


@pytest.mark.parametrize("spec", [
    models.cnn_spec(8, 7, 3),
    models.ModelSpec(
        (models.Conv2d(1, 3, 3, bias=False), models.Softplus(), models.Conv2d(3, 2, 2),
         models.Tanh(), models.Flatten(), models.Linear(2 * 5 * 4, 2, bias=False)),
        models.MSE,
    ),
], ids=["cnn-spec", "softplus-tanh-mse"])
def test_tape_free_step_equals_the_tape_over_a_ragged_last_chunk(spec):
    """Two convs, 7 samples in chunks of 3, 3 and 1: each chunk's rows, and
    the private step's parameters, equal the tape's to the bit."""
    params = models.init_params(spec, 11)
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 1, size=(7, 1, 8, 7))
    if spec.loss == models.CROSS_ENTROPY:
        ys = [int(v) for v in rng.integers(0, 3, size=7)]
    else:
        ys = list(rng.normal(size=(7, 2)))
    clip = float(np.median(np.linalg.norm(_tape_rows(spec, params, xs, ys)[1], axis=1)))
    config = dpsgd.DpSgdConfig(learning_rate=0.5, epochs=1, batch_size=7, private=True,
                               clip=clip, sigma=0.7)
    with chunked(params, 3):
        result = dpsgd.dp_sgd_step(spec, params, list(zip(xs, ys)), config)
    total, losses = np.zeros(params.count), []
    for part in models.chunks(range(7), 3):
        part_ys = [ys[i] for i in part]
        loss, g = _tape_rows(spec, params, xs[part.start : part.stop], part_ys)
        assert _same_bits(
            models.per_sample_loss_and_grad(spec, params, xs[part.start : part.stop], part_ys),
            (loss, g),
        )
        losses.append(loss)
        total += (g * dpsgd.clip_factor(g, clip)).sum(axis=0)
    assert len(losses[-1]) == 1
    update = (total + result.noise * (0.7 * clip)) / 7
    assert result.params.flat.tobytes() == (params.flat - 0.5 * update).tobytes()
    assert result.mean_loss == float(np.mean(np.concatenate(losses)))


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
    params = models.init_params(spec, 0)
    with pytest.raises(PlisLabError) as tape:
        models.attach_sample(spec, params, xs, ys)
    with pytest.raises(PlisLabError) as free:
        models.per_sample_loss_and_grad(spec, params, xs, ys)
    assert (type(free.value), str(free.value)) == (type(tape.value), str(tape.value))


@settings(max_examples=30, deadline=None)
@given(problems(), st.floats(0.3, 3.0))
def test_dp_sgd_step_clipped_sum_matches_per_sample(problem, clip_quantile):
    spec, params, subjects, size = problem
    grads = _per_sample_grads(spec, params, subjects)
    # a threshold some rows exceed and others do not
    clip = clip_quantile * float(np.median([np.linalg.norm(g) for g in grads])) + 1e-3
    clipped = [dpsgd.clip_differentiable(Tensor(g), clip).data for g in grads]
    config = dpsgd.DpSgdConfig(
        learning_rate=0.5, epochs=1, batch_size=len(subjects), private=True, clip=clip, sigma=0.7
    )
    with chunked(params, size):
        result = dpsgd.dp_sgd_step(spec, params, [(s.x, s.y) for s in subjects], config)
    update = (np.sum(clipped, axis=0) + result.noise * (0.7 * clip)) / len(subjects)
    assert_close(result.params.flat, params.flat - 0.5 * update)
    # the same chunks through the tape clip give the step's parameters to the bit
    total = np.zeros(params.count)
    for part in models.chunks(subjects, size):
        xs, ys = np.stack([s.x for s in part]), [s.y for s in part]
        g = models.per_sample_loss_and_grad(spec, params, xs, ys)[1]
        total += dpsgd.clip_differentiable(Tensor(g), clip).data.sum(axis=0)
    update = (total + result.noise * (0.7 * clip)) / len(subjects)
    assert result.params.flat.tobytes() == (params.flat - 0.5 * update).tobytes()


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
        # a saturated clipped subject's PLIS is roundoff: compare against the floor
        assert plis.deviation(want, got, s.x) <= REL
        assert got.mode == want.mode


def _near_a_kink(spec, params, subjects, clip):
    """True when a relu input lies within 1e-5 of 0, or a gradient norm
    within 1e-4 relative of the clip: a finite-difference step of 1e-6
    could cross the kink there, where the PL jumps or bends."""
    xs, ys = np.stack([s.x for s in subjects]), [s.y for s in subjects]
    sample = models.attach_sample(spec, params, xs, ys)
    relu_inputs = [node.input_data[0] for node in sample.graph.nodes if node.op == "relu"]
    if any(np.abs(z).min() < 1e-5 for z in relu_inputs):
        return True
    norms = np.linalg.norm(models.parameter_grad(sample).data, axis=1)
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


def _jacobian_by_columns(spec, params, subject):
    """Oracle: one graph for the subject and one backward pass per input coordinate."""
    sample = models.attach_sample(spec, params, subject.x[None], [subject.y])
    g = models.parameter_grad(sample, create_graph=True)
    w = sample.graph.leaf(np.ones((1, params.count)))
    (gx,) = backward(tsum(mul(g, w)), [sample.x], create_graph=True)
    d = subject.x.size
    gx_flat = reshape(gx, (d,))
    return np.stack([backward(tslice(gx_flat, (j,)), [w])[0].data[0] for j in range(d)], axis=1)


@settings(max_examples=30, deadline=None)
@given(problems(), st.integers(1, 7))
def test_input_jacobian_matches_column_loop(problem, replicas):
    spec, params, subjects, _ = problem
    subject = subjects[0]
    with chunked(params, replicas):
        jac = plis.input_jacobian(spec, params, subject)
    assert_close(jac, _jacobian_by_columns(spec, params, subject))


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


def _conv_margin(spec, params, x):
    """Smallest |pre-activation| of the first (conv) layer over the largest
    |kernel entry|: a step in x shorter than this crosses no relu kink."""
    blocks = {b.name: Tensor(params.flat[b.offset : b.offset + b.size].reshape((1, *b.shape)))
              for b in params.layout if b.name.startswith("0.")}
    conv = models.ModelSpec(spec.layers[:1], models.MSE)
    pre = models.forward(conv, blocks, Tensor(x[None])).data
    return np.abs(pre).min() / np.abs(blocks["0.weight"].data).max()


@pytest.mark.parametrize("make", [
    lambda: _small_cnn(3),
    lambda: _tabular_mlp(models.Tanh(), 5),
    lambda: _tabular_mlp(models.Softplus(), 6),
], ids=["cnn", "tanh-mlp", "softplus-mlp"])
def test_input_jacobian_matches_central_differences(make):
    spec, params, subject = make()
    h = 1e-5
    if isinstance(spec.layers[1], models.Relu):
        # the stencil stays on one side of every relu kink
        assert _conv_margin(spec, params, subject.x) > 10 * h
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
    xs, ys = np.stack([s.x for s in subjects]), [s.y for s in subjects]
    grads = models.per_sample_loss_and_grad(spec, params, xs, ys)[1]
    norms = np.linalg.norm(grads, axis=1)
    clip = clip_quantile * float(np.median(norms)) + 1e-3
    clipped = dpsgd.clip_differentiable(Tensor(grads), clip).data
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
    A DP-SGD step builds none; each analysis call builds at least one."""
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
        sample = models.attach_sample(spec, params, subjects[0].x[None], [subjects[0].y])
        g = models.parameter_grad(sample, create_graph=True)
        # alive, with its nodes, for as long as the caller holds the sample
        assert refs[-1]() is sample.graph and sample.graph.nodes
        del sample, g
        dpsgd.dp_sgd_step(spec, params, [(s.x, s.y) for s in subjects], config)
        assert len(refs) == 1
        for analysis in (
            lambda: plis.plis_reports(spec, params, subjects, sigma=1.0, clip=1.0),
            lambda: plis.plis_expanded(spec, params, subjects[0]),
            lambda: plis.input_jacobian(spec, params, subjects[0]),
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


@settings(max_examples=30, deadline=None)
@given(problems(), st.booleans())
def test_input_gradient_is_bitwise_equal_with_or_without_parameters_in_wrt(problem, create_graph):
    """Pruning the parameter cotangents changes no bit of the input gradient,
    first-order (of the loss) or second-order (of the squared gradient norm)."""
    spec, params, subjects, _ = problem
    xs, ys = np.stack([s.x for s in subjects]), [s.y for s in subjects]

    def input_grads(with_params):
        sample = models.attach_sample(spec, params, xs, ys)
        wrt = [sample.x] + (sample.params if with_params else [])
        (first, *_) = backward(sample.loss, wrt, create_graph=create_graph)
        g = models.parameter_grad(sample, create_graph=True)
        (second, *_) = backward(tsum(mul(g, g)), wrt, create_graph=create_graph)
        return first.data.tobytes(), second.data.tobytes()

    assert input_grads(False) == input_grads(True)
