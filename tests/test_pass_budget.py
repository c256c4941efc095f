"""Reverse passes per chunk, counted rather than timed.

Each batched route has a fixed number of backward passes per chunk of
models.chunk_size() samples: PLIS one on every route (it reaches the
gradient node, whose rule is tape-free), a DP-SGD step none (its
gradients are tape-free: per-sample rows when private, their batch sum
by the summed walk otherwise), the input Jacobian none (it is
forward-mode and tape-free, one call per chunk of input directions).  The
attack objective takes one per call.  The counts come from wrappers on
autodiff.backward and on the names plis and attack import, so they hold
on any machine.  Four more counts: the rows of each forward pass of the
input Jacobian (one), the weight adjoints of one input-Jacobian call, the
batch checks of one training run, and the label stacks and
observed-gradient norms of one reconstruction.
"""

import math

import numpy as np
import pytest

from plislab import attack, autodiff, dpsgd, models, plis

_CNN = models.ModelSpec(
    (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(2 * 4 * 4, 2)),
    models.CROSS_ENTROPY,
)
_MLP = models.ModelSpec(
    (models.Linear(4, 16), models.Tanh(), models.Linear(16, 1)), models.MSE
)


@pytest.fixture
def passes(monkeypatch):
    """The node count of the graph each backward pass runs over, in call order."""
    calls = []
    original = autodiff.backward

    def counted(output, wrt, **kwargs):
        calls.append(len(output.graph.nodes))
        return original(output, wrt, **kwargs)

    for module in (autodiff, plis, attack):
        monkeypatch.setattr(module, "backward", counted)
    return calls


def _chunk(monkeypatch, params, size):
    monkeypatch.setattr(models, "CHUNK_ENTRIES", size * params.count)
    assert models.chunk_size(params) == size


def _subjects(spec, n):
    rng = np.random.default_rng(0)
    if spec is _CNN:
        return [plis.SubjectRecord(f"s{i}", rng.uniform(0, 1, (1, 6, 6)), i % 2) for i in range(n)]
    return [plis.SubjectRecord(f"s{i}", rng.normal(size=4), rng.normal(size=1)) for i in range(n)]


@pytest.mark.parametrize("spec", [_CNN, _MLP], ids=["cnn", "mlp"])
@pytest.mark.parametrize("size", [1, 3])
def test_input_jacobian_takes_no_tape_pass(monkeypatch, passes, spec, size):
    params = models.init_params(spec, 1)
    subject = _subjects(spec, 1)[0]
    _chunk(monkeypatch, params, size)
    tangents = []
    original = plis.grad_tangents

    def counted(*args):
        tangents.append(args)
        return original(*args)

    monkeypatch.setattr(plis, "grad_tangents", counted)
    plis.input_jacobian(spec, params, subject)
    n_chunks = math.ceil(subject.x.size / size)
    assert n_chunks >= 2
    assert len(tangents) == n_chunks
    assert passes == []


@pytest.mark.parametrize("spec", [_CNN, _MLP], ids=["cnn", "mlp"])
@pytest.mark.parametrize("size", [1, 3])
def test_input_jacobian_runs_each_forward_pass_on_one_row(monkeypatch, spec, size):
    """Each chunk of directions runs the subject's forward pass once, on its
    one row, however many directions the chunk takes."""
    params = models.init_params(spec, 1)
    subject = _subjects(spec, 1)[0]
    _chunk(monkeypatch, params, size)
    rows = []
    original = models._layer_records

    def counted(spec, params, xs, *rest):
        rows.append(len(xs))
        return original(spec, params, xs, *rest)

    monkeypatch.setattr(models, "_layer_records", counted)
    plis.input_jacobian(spec, params, subject)
    assert rows == [1] * math.ceil(subject.x.size / size)


@pytest.mark.parametrize("spec", [_CNN, _MLP], ids=["cnn", "mlp"])
@pytest.mark.parametrize("expanded", [False, True], ids=["direct", "expanded"])
@pytest.mark.parametrize("clip", [None, 0.5])
def test_plis_reports_take_one_pass_per_chunk(monkeypatch, passes, spec, expanded, clip):
    params = models.init_params(spec, 2)
    _chunk(monkeypatch, params, 3)
    plis.plis_reports(spec, params, _subjects(spec, 7), sigma=1.5, clip=clip, expanded=expanded)
    # the input leaf and the gradient node: the clip's pullback records nothing
    assert passes == [2, 2, 2]


@pytest.mark.parametrize("spec", [_CNN, _MLP], ids=["cnn", "mlp"])
def test_attack_objective_takes_one_pass_per_call(passes, spec):
    params = models.init_params(spec, 4)
    subject = _subjects(spec, 1)[0]
    observed = models.per_sample_grad(spec, params, subject.x, subject.y).data[::-1].copy()
    config = attack.AttackConfig(tv_weight=0.05 if spec is _CNN else 0.0)
    observation = attack._observation(spec, params, observed, subject.y, config, subject.x.shape)
    for _ in range(2):
        attack._objective(spec, params, subject.x, observation, config)
    # the input leaf and the gradient node, seeded with c; t is added after
    assert passes == [2, 2]


@pytest.mark.parametrize("monotone", [False, True], ids=["adam", "monotone"])
def test_reconstruct_builds_its_constants_once(monkeypatch, monotone):
    """2 restarts of 5 iterations: the label batch is stacked and checked
    once, and the observed gradient's norm is taken once."""
    params = models.init_params(_CNN, 4)
    subject = _subjects(_CNN, 1)[0]
    observed = models.per_sample_grad(_CNN, params, subject.x, subject.y).data[::-1].copy()
    stacks, norms = [], []
    stack_batch, norm = attack.stack_batch, np.linalg.norm
    monkeypatch.setattr(attack, "stack_batch", lambda *a: stacks.append(a) or stack_batch(*a))
    monkeypatch.setattr(np.linalg, "norm", lambda a, *r, **k: norms.append(a) or norm(a, *r, **k))
    config = attack.AttackConfig(iterations=5, restarts=2, tv_weight=0.05, monotone=monotone)
    result = attack.reconstruct(_CNN, params, observed, subject.y, config, subject.x.shape)
    assert [len(trace) for trace in result.traces] == [5, 5]
    assert len(stacks) == 1
    assert len(norms) == 1 and norms[0].tobytes() == observed.tobytes()


@pytest.mark.parametrize("spec", [_CNN, _MLP], ids=["cnn", "mlp"])
@pytest.mark.parametrize("private", [False, True])
def test_dp_sgd_step_takes_no_tape_pass(monkeypatch, passes, spec, private):
    """Private: one call for per-sample rows per chunk.  Non-private: one
    summed-walk call per chunk, and no rows."""
    params = models.init_params(spec, 3)
    _chunk(monkeypatch, params, 3)
    calls = {"per_sample_loss_and_grad": [], "loss_and_grad_sum": []}

    def counting(name):
        original = getattr(dpsgd, name)

        def counted(*args):
            calls[name].append(args)
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(dpsgd, name, counting(name))
    config = dpsgd.DpSgdConfig(0.1, 1, 7, private=private,
                               clip=1.0 if private else None, sigma=1.0 if private else 0.0)
    subjects = _subjects(spec, 7)
    batch = models.stack_batch(spec, [s.x for s in subjects], [s.y for s in subjects])
    dpsgd.dp_sgd_step(spec, params, batch, config)
    rows, sums = (3, 0) if private else (0, 3)
    assert len(calls["per_sample_loss_and_grad"]) == rows
    assert len(calls["loss_and_grad_sum"]) == sums
    assert passes == []


def test_grad_tangents_takes_two_weight_adjoints_per_weighted_layer(monkeypatch):
    """One grad_tangents call on a Linear-Tanh-Linear MLP: its first-order
    walk writes no gradient rows, so each weighted layer takes the two weight
    adjoints of its tangent row (g' h^T + g h'^T) and no third."""
    params = models.init_params(_MLP, 5)
    subjects = _subjects(_MLP, 3)
    batch = models.stack_batch(_MLP, [s.x for s in subjects], [s.y for s in subjects])
    calls = []
    original = autodiff._linear_weight_adjoint_np

    def counted(g, h, *out):
        calls.append(g.shape)
        return original(g, h, *out)

    monkeypatch.setattr(autodiff, "_linear_weight_adjoint_np", counted)
    models.grad_tangents(_MLP, params, batch, np.ones_like(batch.xs))
    assert len(calls) == 2 * 2


def test_private_training_builds_its_views_once_per_chunk_length(monkeypatch):
    """3 epochs of 4 batch-1 private steps on an MLP: one gradient call per
    step, while the parameter tiles (ParamSet.tiles, from one ParamSet.views
    of the flat vector, kept beside it) and the rows' block views (one more
    ParamSet.views, kept in train's workspace) are built once for the one
    chunk length, not once per step."""
    views, original = [], models.ParamSet.views

    def counted(self, arg):
        views.append(arg)
        return original(self, arg)

    monkeypatch.setattr(models.ParamSet, "views", counted)
    grads, gradient = [], dpsgd.per_sample_loss_and_grad
    monkeypatch.setattr(dpsgd, "per_sample_loss_and_grad",
                        lambda *args: grads.append(args) or gradient(*args))
    subjects = _subjects(_MLP, 4)
    config = dpsgd.DpSgdConfig(0.1, 3, 1, private=True, clip=1.0, sigma=1.0)
    trace = dpsgd.train(_MLP, [(s.x, s.y) for s in subjects], config)
    assert len(trace.step_records) == 3 * 4
    assert len(grads) == 3 * 4
    assert np.shares_memory(views[0], trace.params.flat)
    assert [np.shape(a) for a in views] == [(1, trace.params.count)] * 2


def test_training_checks_its_dataset_once(monkeypatch):
    """2 epochs of 3 batches: train stacks and checks the dataset once, and
    no step checks its slice again."""
    checks = []
    original = models.output_shape

    def counted(spec, shape):
        checks.append(shape)
        return original(spec, shape)

    monkeypatch.setattr(models, "output_shape", counted)
    subjects = _subjects(_MLP, 7)
    config = dpsgd.DpSgdConfig(0.1, 2, 3, private=True, clip=1.0, sigma=1.0)
    trace = dpsgd.train(_MLP, [(s.x, s.y) for s in subjects], config)
    assert len(trace.step_records) == 2 * 3
    assert checks == [(4,)]
