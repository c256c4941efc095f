"""Batched graphs against one graph per sample, and graph lifetime.

Every batched route must reproduce its per-sample counterpart within
1e-12 relative (to the largest entry of the per-sample result), on random
small linear, MLP and CNN specs, for a batch of one and for batches whose
last chunk is ragged.  On the same specs, batched direct-route PLIS must
match central finite differences of the privacy loss, the clip must bound
every per-sample gradient and leave those below the threshold alone, and
the FIM must equal J^T J / sigma^2.  The per-sample counterparts build one
graph per sample; the input Jacobian's oracle is the column-by-column loop
with one backward pass per input coordinate.
"""

import contextlib
import gc
import weakref

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from plislab import attack, autodiff, dpsgd, models, plis
from plislab.autodiff import Tensor, backward, mul, reshape, tslice, tsum

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
        assert_close(losses[i], models.per_sample_loss(spec, params, s.x, s.y).item())
    assert_close(grads, np.stack(_per_sample_grads(spec, params, subjects)))


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
        numeric = np.zeros(s.x.size)
        for j in range(s.x.size):
            step = np.zeros(s.x.size)
            step[j] = h
            step = step.reshape(s.x.shape)
            hi, lo = (
                plis.privacy_loss(spec, params, plis.SubjectRecord(s.id, s.x + d, s.y), sigma, clip)
                for d in (step, -step)
            )
            numeric[j] = (hi - lo) / (2 * h)
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
    """With the cycle collector off, no graph outlives the call that built it."""
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
        plis.plis_reports(spec, params, subjects, sigma=1.0, clip=1.0)
        plis.plis_expanded(spec, params, subjects[0])
        plis.privacy_loss(spec, params, subjects[0])
        plis.input_jacobian(spec, params, subjects[0])
        attack.reconstruct(spec, params, np.ones(params.count), 0,
                           attack.AttackConfig(iterations=2, restarts=1),
                           input_shape=(1, 5, 5))
        assert len(refs) > 6
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
