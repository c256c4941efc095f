"""Input checks at the library's boundaries: each bad value raises its own
PlisLabError subclass, never a numpy or Python error from deeper down."""

import numpy as np
import pytest

from plislab import accounting, attack, datasets, dpsgd, models, plis
from plislab.errors import ConfigError, DataFormatError, ShapeError
from plislab.imagemetrics import GrayImage

_LINEAR = models.ModelSpec((models.Linear(3, 1),), models.MSE)
_CNN = models.ModelSpec(
    (models.Conv2d(1, 2, 3), models.Flatten(), models.Linear(2 * 4 * 4, 2)),
    models.CROSS_ENTROPY,
)
_ONE_LOGIT = models.ModelSpec((models.Linear(3, 1),), models.CROSS_ENTROPY)


def _dp(epochs=1, batch_size=1, learning_rate=0.1, **kwargs):
    return lambda: dpsgd.DpSgdConfig(learning_rate, epochs, batch_size, **kwargs)


def _attach(spec, xs, ys):
    return lambda: models.attach_sample(
        spec, models.init_params(spec, 0), models.stack_batch(spec, xs, ys)
    )


# w = 0, y = 1, x = 1e154: the gradient -2e154 has a squared norm that
# overflows, so clipping would scale its row to zero
_ONE_WEIGHT = models.ModelSpec((models.Linear(1, 1, bias=False),), models.MSE)
_HUGE = [plis.SubjectRecord("ok", np.array([1.0]), np.array([1.0])),
         plis.SubjectRecord("huge", np.array([1e154]), np.array([1.0]))]


_TABULAR = plis.SubjectRecord("s", np.zeros(3), np.zeros(1))


# _LINEAR takes inputs of shape (3,): sample 1 does not stack with sample 0
_RAGGED = [(np.zeros(3), np.zeros(1)), (np.zeros(4), np.zeros(1)), (np.zeros(3), np.zeros(1))]
_RAGGED_SUBJECTS = [plis.SubjectRecord(f"s{i}", x, y) for i, (x, y) in enumerate(_RAGGED)]
_RAGGED_MESSAGE = r"sample 1 has input shape \(4,\), sample 0 has \(3,\)"


def _zero_weight():
    return models.ParamSet(np.zeros(1), models.layout_for(_ONE_WEIGHT))


# w = 1, y = 0, x = 1e308: the gradient 2x^2, its PL and its Jacobian 4x overflow
_VAST = [plis.SubjectRecord("ok", np.array([1.0]), np.array([0.0])),
         plis.SubjectRecord("vast", np.array([1e308]), np.array([0.0]))]


# weights of 1e160: a finite input Jacobian (entries up to about 1e161)
# whose Gram matrix J^T J overflows
_BIG_LINEAR = models.ModelSpec((models.Linear(4, 1),), models.MSE)
_FOUR_FEATURES = plis.SubjectRecord("four", np.array([0.5, -0.25, 0.1, 0.3]), np.array([0.2]))


def _big_weights():
    return models.ParamSet(np.array([1e160] * 4 + [0.0]), models.layout_for(_BIG_LINEAR))


def _unit_weight():
    return models.ParamSet(np.ones(1), models.layout_for(_ONE_WEIGHT))


def _images(shape):
    n = shape[0]
    return lambda: datasets.ImageDataset(
        np.zeros(shape), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), 2
    )


def case(name, call, error, message):
    return pytest.param(call, error, message, id=name)


CASES = [
    case("dpsgd-negative-epochs", _dp(epochs=-1), ConfigError, "epochs must be >= 0"),
    case("dpsgd-zero-batch-size", _dp(batch_size=0), ConfigError, "batch size must be >= 1"),
    case("dpsgd-private-without-noise-or-budget", _dp(private=True, clip=1.0), ConfigError,
         "sigma > 0 or a target epsilon"),
    case("dpsgd-private-sigma-and-target",
         _dp(private=True, clip=1.0, sigma=0.5, target_epsilon=1.0), ConfigError,
         "sigma or a target epsilon, not both"),
    case("dpsgd-nonprivate-clip", _dp(clip=1.0), ConfigError, "non-private training takes no"),
    case("dpsgd-nonprivate-sigma", _dp(sigma=5.0), ConfigError, "non-private training takes no"),
    case("dpsgd-nonprivate-target-epsilon", _dp(target_epsilon=0.01), ConfigError,
         "non-private training takes no"),
    case("dpsgd-step-target-without-sigma",
         lambda: dpsgd.dp_sgd_step(
             _LINEAR, models.init_params(_LINEAR, 0),
             models.stack_batch(_LINEAR, [np.zeros(3)], [np.zeros(1)]),
             dpsgd.DpSgdConfig(0.1, 1, 4, private=True, clip=1.0, target_epsilon=1.0)),
         ConfigError, "a private step needs sigma > 0"),
    case("train-ragged-inputs-batch-1", lambda: dpsgd.train(_LINEAR, _RAGGED, _dp()()),
         ShapeError, _RAGGED_MESSAGE),
    case("train-ragged-inputs-batch-3",
         lambda: dpsgd.train(_LINEAR, _RAGGED, _dp(batch_size=3)()), ShapeError, _RAGGED_MESSAGE),
    case("stack-batch-ragged-inputs",
         lambda: models.stack_batch(_LINEAR, [x for x, _ in _RAGGED], [y for _, y in _RAGGED]),
         ShapeError, _RAGGED_MESSAGE),
    case("stack-batch-ragged-inputs-from-sample-5",
         lambda: models.stack_batch(_LINEAR, [x for x, _ in _RAGGED], [y for _, y in _RAGGED], 5),
         ShapeError, r"sample 6 has input shape \(4,\), sample 5 has \(3,\)"),
    case("plis-ragged-inputs",
         lambda: plis.plis_reports(_LINEAR, models.init_params(_LINEAR, 0), _RAGGED_SUBJECTS),
         ShapeError, _RAGGED_MESSAGE),
    case("train-empty-dataset", lambda: dpsgd.train(_LINEAR, [], dpsgd.DpSgdConfig(0.1, 1, 1)),
         ConfigError, "empty dataset"),
    case("dpsgd-infinite-learning-rate", _dp(learning_rate=np.inf), ConfigError,
         "learning rate must be finite and positive, got inf"),
    # an infinite target would train at the budget search's floor sigma
    case("dpsgd-infinite-target-epsilon", _dp(private=True, clip=1.0, target_epsilon=np.inf),
         ConfigError, "target epsilon must be finite and positive, got inf"),
    case("dpsgd-nan-target-epsilon", _dp(private=True, clip=1.0, target_epsilon=np.nan),
         ConfigError, "target epsilon must be finite and positive, got nan"),
    case("dpsgd-zero-target-epsilon", _dp(private=True, clip=1.0, target_epsilon=0.0),
         ConfigError, "target epsilon must be finite and positive, got 0.0"),
    case("dpsgd-negative-target-epsilon", _dp(private=True, clip=1.0, target_epsilon=-1.0),
         ConfigError, "target epsilon must be finite and positive, got -1.0"),
    # C * C overflows or is not a normal float: sqrt(C * C) is no longer C
    case("dpsgd-clip-square-overflows", _dp(private=True, clip=1e200, sigma=1.0), ConfigError,
         r"whose square is a normal float .*, got 1e\+200"),
    case("dpsgd-clip-square-underflows", _dp(private=True, clip=1e-160, sigma=1.0), ConfigError,
         "whose square is a normal float .*, got 1e-160"),
    # sigma * sigma is not a normal float: the accountant's (C / sigma C)^2
    # overflows, or sigma C underflows to 0, or epsilon reads inf
    case("dpsgd-sigma-square-underflows", _dp(private=True, clip=0.5, sigma=1e-160), ConfigError,
         "sigma must have a square that is a normal float .*, got 1e-160"),
    case("dpsgd-subnormal-sigma", _dp(private=True, clip=0.5, sigma=1e-320), ConfigError,
         "sigma must have a square that is a normal float .*, got 1e-320"),
    case("dpsgd-sigma-square-overflows", _dp(private=True, clip=0.5, sigma=1e160), ConfigError,
         r"sigma must have a square that is a normal float .*, got 1e\+160"),
    case("clip-differentiable-clip-square-overflows",
         lambda: dpsgd.clip_differentiable(np.ones(1), 1e200), ConfigError,
         "whose square is a normal float"),
    case("clip-differentiable-clip-square-underflows",
         lambda: dpsgd.clip_differentiable(np.ones(1), 1e-160), ConfigError,
         "whose square is a normal float"),
    case("dp-release-clip-square-overflows", lambda: attack.DpRelease(1e200, 1.0), ConfigError,
         "whose square is a normal float"),
    case("dp-release-clip-square-underflows", lambda: attack.DpRelease(1e-160, 1.0),
         ConfigError, "whose square is a normal float"),
    case("attack-zero-restarts", lambda: attack.AttackConfig(restarts=0), ConfigError,
         "restarts must be >= 1"),
    case("attack-nan-tv-weight", lambda: attack.AttackConfig(tv_weight=np.nan), ConfigError,
         "total-variation weight must be finite and >= 0, got nan"),
    case("attack-infinite-tv-weight", lambda: attack.AttackConfig(tv_weight=np.inf),
         ConfigError, "total-variation weight must be finite and >= 0, got inf"),
    case("attack-infinite-learning-rate", lambda: attack.AttackConfig(learning_rate=np.inf),
         ConfigError, "attack learning rate must be finite and positive, got inf"),
    case("attack-negative-learning-rate", lambda: attack.AttackConfig(learning_rate=-1.0),
         ConfigError, "attack learning rate must be finite and positive, got -1.0"),
    case("mechanism-zero-sigma", lambda: accounting.GaussianMechanismParams(1.0, 0.0),
         ConfigError, "sigma must be positive"),
    case("mechanism-negative-sigma", lambda: accounting.GaussianMechanismParams(1.0, -1.0),
         ConfigError, "sigma must be positive"),
    case("mechanism-negative-sensitivity", lambda: accounting.GaussianMechanismParams(-1.0, 1.0),
         ConfigError, "sensitivity must be nonnegative"),
    case("budget-zero-epsilon", lambda: accounting.sigma_for_budget(0.0, 1e-5, 10), ConfigError,
         "epsilon must be positive"),
    case("budget-negative-epsilon", lambda: accounting.sigma_for_budget(-1.0, 1e-5, 10),
         ConfigError, "epsilon must be positive"),
    case("inject-ood-negative-count",
         lambda: datasets.inject_ood(datasets.make_glyph_images(2, 0, 6, 6), -1, 0),
         ConfigError, "count must be nonnegative"),
    case("image-dataset-2d-images", _images((2, 6)), DataFormatError, r"images must be \(n,h,w\)"),
    case("gray-image-3d", lambda: GrayImage(np.zeros((1, 4, 4))), ShapeError,
         "expects a 2-d array"),
    case("model-unknown-loss", lambda: models.ModelSpec((models.Linear(3, 1),), "hinge"),
         ConfigError, "unknown loss"),
    case("model-no-layers", lambda: models.ModelSpec((), models.MSE), ConfigError,
         "at least one layer"),
    case("paramset-2d-flat",
         lambda: models.ParamSet(np.zeros((1, 4)), models.layout_for(_LINEAR)),
         ShapeError, "one-dimensional"),
    case("output-shape-conv-channels", lambda: models.output_shape(_CNN, (2, 6, 6)), ShapeError,
         r"conv2d expects \(1,H,W\)"),
    case("output-shape-kernel-too-large", lambda: models.output_shape(_CNN, (1, 2, 6)),
         ShapeError, "kernel 3 too large"),
    case("attach-empty-batch", _attach(_LINEAR, np.zeros((0, 3)), []), ShapeError,
         "non-empty batch"),
    case("attach-single-logit", _attach(_ONE_LOGIT, np.zeros((1, 3)), [0]), ShapeError,
         "needs >=2 logits"),
    case("attach-target-count", _attach(_LINEAR, np.zeros((2, 3)), [0.0]), ShapeError,
         "2 inputs but 1 targets"),
    case("attach-target-shape", _attach(_LINEAR, np.zeros((2, 3)), [np.zeros(2)] * 2),
         ShapeError, r"targets of shape \(2, 2\) do not fit 2 outputs of shape \(1,\)"),
    case("attach-ragged-targets", _attach(_LINEAR, np.zeros((2, 3)), [[0.0], [0.0, 1.0]]),
         ShapeError, "do not stack into one float array"),
    case("plis-clip-would-drop-a-row",
         lambda: plis.plis_reports(_ONE_WEIGHT, _zero_weight(), _HUGE, sigma=1.0, clip=1.0),
         DataFormatError, "subject 'huge': its gradient's squared norm overflows; clipping would"),
    case("dp-release-would-drop-the-row",
         lambda: attack.observe_gradient(_ONE_WEIGHT, _zero_weight(), _HUGE[1],
                                         attack.DpRelease(1.0, 1.0)),
         DataFormatError, "subject 'huge': its gradient's squared norm overflows; clipping would"),
    case("grad-tangents-direction-shape",
         lambda: models.grad_tangents(
             _LINEAR, models.init_params(_LINEAR, 0),
             models.stack_batch(_LINEAR, np.zeros((2, 3)), np.zeros((2, 1))), np.zeros((2, 4))),
         ShapeError, r"directions of shape \(2, 4\) do not fit inputs of shape \(2, 3\)"),
    case("grad-tangents-direction-count",
         lambda: models.grad_tangents(
             _LINEAR, models.init_params(_LINEAR, 0),
             models.stack_batch(_LINEAR, np.zeros((2, 3)), np.zeros((2, 1))), np.zeros((3, 3))),
         ShapeError, r"directions of shape \(3, 3\) do not fit inputs of shape \(2, 3\)"),
    case("fim-without-sigma",
         lambda: plis.fim_subject(_LINEAR, models.init_params(_LINEAR, 0), _TABULAR, sigma=None),
         ConfigError, "sigma must be finite and positive, got None"),
    case("plis-infinite-sigma",
         lambda: plis.plis_reports(_LINEAR, models.init_params(_LINEAR, 0), [_TABULAR],
                                   sigma=np.inf),
         ConfigError, "sigma must be finite and positive, got inf"),
    case("plis-sigma-square-underflows",
         lambda: plis.plis_reports(_LINEAR, models.init_params(_LINEAR, 0), [_TABULAR],
                                   sigma=1e-160),
         ConfigError, "sigma must have a square that is a normal float .*, got 1e-160"),
    case("fim-sigma-square-overflows",
         lambda: plis.fim_subject(_LINEAR, models.init_params(_LINEAR, 0), _TABULAR, sigma=1e160),
         ConfigError, "sigma must have a square that is a normal float .*, got 1e[+]160"),
    case("plis-direct-gradient-overflows",
         lambda: plis.plis_reports(_ONE_WEIGHT, _unit_weight(), _VAST, sigma=1.0),
         DataFormatError, "subject 'vast': its privacy loss is not finite"),
    case("plis-expanded-gradient-overflows",
         lambda: plis.plis_reports(_ONE_WEIGHT, _unit_weight(), _VAST, expanded=True),
         DataFormatError, "subject 'vast': its privacy loss is not finite"),
    case("input-jacobian-overflows",
         lambda: plis.input_jacobian(_ONE_WEIGHT, _unit_weight(), _VAST[1]),
         DataFormatError, "subject 'vast': its input Jacobian is not finite"),
    case("jacsens-gram-overflows",
         lambda: plis.jacsens_subject(_BIG_LINEAR, _big_weights(), _FOUR_FEATURES),
         DataFormatError, r"subject 'four': its Jacobian's Gram matrix J\^T J is not finite"),
    case("rank-no-subjects",
         lambda: plis.rank_subjects([], _LINEAR, models.init_params(_LINEAR, 0)),
         ConfigError, "empty dataset"),
    case("as-plane-4d", lambda: plis.as_plane(np.zeros((1, 1, 2, 2))), ConfigError,
         "no 2-d view"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_bad_input_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
