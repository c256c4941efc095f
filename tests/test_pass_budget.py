"""Reverse passes per chunk, counted rather than timed.

Each batched route has a fixed number of backward passes per chunk of
models.chunk_size() samples: PLIS two, a DP-SGD step none (its per-sample
gradients are tape-free), the input Jacobian none (it is forward-mode and
tape-free, one call per chunk of input directions).  The counts come from
wrappers on autodiff.backward (which models.parameter_grad looks up at
call time) and on the names plis imports, so they hold on any machine.
"""

import math

import numpy as np
import pytest

from plislab import autodiff, dpsgd, models, plis

_CNN = models.ModelSpec(
    (models.Conv2d(1, 2, 3), models.Relu(), models.Flatten(), models.Linear(2 * 4 * 4, 2)),
    models.CROSS_ENTROPY,
)
_MLP = models.ModelSpec(
    (models.Linear(4, 16), models.Tanh(), models.Linear(16, 1)), models.MSE
)


@pytest.fixture
def passes(monkeypatch):
    """The create_graph flag of every backward pass, in call order."""
    calls = []
    original = autodiff.backward

    def counted(output, wrt, create_graph=False):
        calls.append(create_graph)
        return original(output, wrt, create_graph=create_graph)

    monkeypatch.setattr(autodiff, "backward", counted)
    monkeypatch.setattr(plis, "backward", counted)
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
@pytest.mark.parametrize("expanded", [False, True], ids=["direct", "expanded"])
@pytest.mark.parametrize("clip", [None, 0.5])
def test_plis_reports_take_two_passes_per_chunk(monkeypatch, passes, spec, expanded, clip):
    params = models.init_params(spec, 2)
    _chunk(monkeypatch, params, 3)
    plis.plis_reports(spec, params, _subjects(spec, 7), sigma=1.5, clip=clip, expanded=expanded)
    assert len(passes) <= 2 * 3


@pytest.mark.parametrize("spec", [_CNN, _MLP], ids=["cnn", "mlp"])
@pytest.mark.parametrize("private", [False, True])
def test_dp_sgd_step_takes_no_tape_pass(monkeypatch, passes, spec, private):
    params = models.init_params(spec, 3)
    _chunk(monkeypatch, params, 3)
    gradients = []
    original = dpsgd.per_sample_loss_and_grad

    def counted(*args):
        gradients.append(args)
        return original(*args)

    monkeypatch.setattr(dpsgd, "per_sample_loss_and_grad", counted)
    config = dpsgd.DpSgdConfig(0.1, 1, 7, private=private,
                               clip=1.0 if private else None, sigma=1.0 if private else 0.0)
    dpsgd.dp_sgd_step(spec, params, [(s.x, s.y) for s in _subjects(spec, 7)], config)
    assert len(gradients) == 3
    assert passes == []
