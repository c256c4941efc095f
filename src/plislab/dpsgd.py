"""Per-sample-clipped, noised gradient descent with a differentiable clip.

The clip is g * C / sqrt(max(||g||^2, C^2)) per row, which is
g * C / max(||g||, C) to the bit while C^2 is a normal float (check_clip
refuses any other C).  A step scales its rows in place by clip_factor;
PLIS takes clip_differentiable, the same formula as a chain of graph ops,
differentiable to any order.  At ||g||^2 = C^2 its derivative is the
no-clip branch's, and a zero row gets the identity's: sqrt's rule then
divides by 2C, never by 0.  Noise is N(0, (sigma*C)^2)
per coordinate on the *sum* of clipped gradients, i.e. each step is a
Gaussian mechanism with sensitivity C and noise multiplier sigma, so the
accountant sees (C, sigma*C) and the RDP closed form reduces to
(alpha/2)/sigma^2 independent of C.  A row whose squared norm overflows
would be clipped to zero and silently dropped; the step, clipped PLIS
and a DP release refuse it (dropped_row).

Batches are fixed contiguous slices (no Poisson subsampling): per-subject
privacy-loss attribution is incompatible with secret subsampling, so no
amplification is claimed or used.

Batch axis: a step takes its per-sample gradients as the (B, p) rows of
models.per_sample_loss_and_grad, one call per chunk of
models.chunk_size() samples, and clips each row in place.  That route is
tape-free: a step builds no graph.  Only PLIS, which differentiates the
clipped rows again, builds them on the tape through clip_differentiable.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .accounting import AccountantState, check_delta, epsilon_from_rdp, sigma_for_budget
from .autodiff import Tensor, broadcast, div, max_scalar, mul, sqrt, square, tsum
from .errors import ConfigError, DataFormatError, TrainingDivergedError
from .models import (
    ModelSpec,
    ParamSet,
    chunk_size,
    chunks,
    init_params,
    per_sample_loss_and_grad,
)

log = logging.getLogger("plislab.dpsgd")


def check_clip(clip) -> None:
    # sqrt(C * C) is C only while C * C neither overflows nor underflows
    if clip is None or not (clip > 0 and sys.float_info.min <= float(clip) * float(clip) < math.inf):
        raise ConfigError(
            "clipping needs a finite positive clip threshold whose square is a normal "
            f"float (about 1.5e-154 to 1.3e154), got {clip}"
        )


def clip_factor(g: np.ndarray, clip: float) -> np.ndarray:
    """C / sqrt(max(||g||^2, C^2)) per row, last axis kept: the clipped rows are g times it.

    A row whose squared norm overflows gets C / inf = 0 (see dropped_row).
    """
    return clip / np.sqrt(np.maximum((g * g).sum(axis=-1, keepdims=True), clip * clip))


def dropped_row(factor: np.ndarray) -> int | None:
    """The first row that clipping by clip_factor's factor would drop, else None.

    The factor is 0 exactly where a row's squared norm overflows: every
    clip, in place or on the tape, would silently zero that row.  The
    DP-SGD step, clipped PLIS and a DP release refuse it, naming the step
    or the subject.
    """
    if factor.all():
        return None
    return int(np.flatnonzero(factor == 0)[0])


def refuse_dropped_row(subjects, rows: np.ndarray, clip: float) -> None:
    """Raise DataFormatError naming the first subject whose gradient row,
    one per subject, clipping would drop (see dropped_row); numpy's
    overflow warning on the way there is silenced.  The clip is checked
    first: a clip of 0 makes every factor 0 or NaN, and is a ConfigError."""
    check_clip(clip)
    with np.errstate(over="ignore"):
        row = dropped_row(clip_factor(rows, clip))
    if row is not None:
        raise DataFormatError(
            f"subject {subjects[row].id!r}: its gradient's squared norm overflows; "
            "clipping would drop its row"
        )


@dataclass(frozen=True)
class DpSgdConfig:
    """Every run reads learning_rate, epochs, batch_size and seed; a config file
    key left out takes its field's default.  Private training also reads clip and
    one of sigma > 0 and target_epsilon (train then derives sigma), never both;
    non-private training takes none of these three."""

    learning_rate: float = 0.1
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    private: bool = False
    clip: float | None = None
    sigma: float = 0.0
    target_epsilon: float | None = None
    target_delta: float = 1e-5

    def __post_init__(self):
        # an infinite rate sends every parameter the gradient moves to +-inf
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.private:
            check_clip(self.clip)
            if self.target_epsilon is not None and self.sigma != 0:
                raise ConfigError("private training takes sigma or a target epsilon, not both")
            if not self.sigma > 0 and self.target_epsilon is None:
                raise ConfigError("private training needs sigma > 0 or a target epsilon")
            # an infinite target would leave sigma at the budget search's floor
            if self.target_epsilon is not None and not 0 < self.target_epsilon < math.inf:
                raise ConfigError(
                    f"target epsilon must be finite and positive, got {self.target_epsilon}"
                )
            # an infinite sigma noises every update to +-inf, yet the loss
            # checked before each update stays finite
            if not math.isfinite(self.sigma):
                raise ConfigError(f"private training needs a finite sigma, got {self.sigma}")
        elif self.clip is not None or self.sigma != 0 or self.target_epsilon is not None:
            raise ConfigError("non-private training takes no clip, sigma or target epsilon")
        check_delta(self.target_delta)


def clip_differentiable(g: Tensor, clip: float) -> Tensor:
    """g times clip_factor(g, C) along the last axis, as graph ops: a (B, p)
    tensor is clipped row by row, with the in-place clip's values to the bit."""
    check_clip(clip)
    c = float(clip)
    norm = sqrt(max_scalar(tsum(square(g), axes=-1, keepdims=True), c * c))
    return mul(g, broadcast(div(c, norm), g.shape))


@dataclass
class StepResult:
    params: ParamSet
    noise: np.ndarray | None  # the raw standard-normal draw, before scaling
    mean_loss: float


def dp_sgd_step(
    spec: ModelSpec,
    params: ParamSet,
    batch: list[tuple[np.ndarray, object]],
    config: DpSgdConfig,
    step_index: int = 0,
) -> StepResult:
    """One update: params - lr * (sum_i clip(g_i) + N(0, (sigma C)^2 I)) / |batch|.

    The noise is the standard-normal draw keyed by (config.seed, step_index).
    A private config must carry its sigma: only train derives one from a
    target epsilon.  A non-finite mean loss, a row whose squared norm
    overflows (its clip factor is 0, so clipping would drop it), or a
    non-finite parameter after the update raises TrainingDivergedError
    naming step_index; numpy's overflow and invalid-value warnings on the
    way there are silenced.
    """
    if not batch:
        raise ConfigError("dp_sgd_step: empty batch")
    if config.private and not config.sigma > 0:
        raise ConfigError("dp_sgd_step: a private step needs sigma > 0; "
                          "train derives it from the target epsilon")
    total = np.zeros(params.count)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for part in chunks(batch, chunk_size(params)):
            loss, g = per_sample_loss_and_grad(
                spec, params, np.stack([x for x, _ in part]), [y for _, y in part]
            )
            losses.append(loss)
            if config.private:
                factor = clip_factor(g, config.clip)
                if dropped_row(factor) is not None:
                    raise TrainingDivergedError(
                        f"a gradient's squared norm overflows at step {step_index}; "
                        "clipping would drop its row"
                    )
                g *= factor
            total += g.sum(axis=0)
        mean_loss = float(np.mean(np.concatenate(losses)))
        if not math.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite loss at step {step_index}")
        noise = None
        if config.private:
            noise = rng.gaussians(config.seed, rng.NOISE_STREAM + step_index, params.count)
            total = total + noise * (config.sigma * config.clip)
        update = total / len(batch)
        new_flat = params.flat - config.learning_rate * update
    if not np.isfinite(new_flat).all():
        raise TrainingDivergedError(f"non-finite parameters after step {step_index}")
    return StepResult(params.with_flat(new_flat), noise, mean_loss)


@dataclass
class TrainTrace:
    per_epoch_loss: list[float]
    params: ParamSet
    accountant: AccountantState | None
    step_records: list[tuple[int, float, float]] = field(default_factory=list)
    final_epsilon: float | None = None
    sigma_used: float = 0.0


def train(
    spec: ModelSpec, dataset, config: DpSgdConfig, initial: ParamSet | None = None
) -> TrainTrace:
    """Run (DP-)SGD over fixed contiguous batches.

    dataset: sequence of (x, y) pairs.  Parameters start from `initial`
    when given, else from init_params(spec, config.seed).  With
    private=False the accountant is never touched.  A step that diverges
    raises TrainingDivergedError naming its index (see dp_sgd_step).
    """
    if not len(dataset):
        raise ConfigError("train: empty dataset")
    params = init_params(spec, config.seed) if initial is None else initial
    total_steps = config.epochs * math.ceil(len(dataset) / config.batch_size)
    run_config = config
    if config.target_epsilon is not None:
        # DpSgdConfig refuses a sigma next to a target, so the target goes
        run_config = replace(config, target_epsilon=None, sigma=sigma_for_budget(
            config.target_epsilon, config.target_delta, max(total_steps, 1)))
        log.info("derived noise multiplier %.6g for (%g, %g) over %d steps",
                 run_config.sigma, config.target_epsilon, config.target_delta, total_steps)

    accountant = AccountantState() if config.private else None
    per_epoch: list[float] = []
    step_records: list[tuple[int, float, float]] = []
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = []
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in range(start, min(start + config.batch_size, len(dataset)))]
            result = dp_sgd_step(spec, params, batch, run_config, step)
            params = result.params
            eps_now = 0.0
            if accountant is not None:
                accountant.add_step(run_config.clip, run_config.sigma * run_config.clip)
                eps_now = epsilon_from_rdp(accountant, config.target_delta).epsilon
            epoch_losses.append(result.mean_loss)
            step_records.append((step, result.mean_loss, eps_now))
            step += 1
        per_epoch.append(float(np.mean(epoch_losses)))
        log.debug("epoch %d: mean loss %.6g", epoch, per_epoch[-1])
    final_epsilon = None
    if accountant is not None and accountant.steps:
        final_epsilon = epsilon_from_rdp(accountant, config.target_delta).epsilon
    return TrainTrace(
        per_epoch_loss=per_epoch,
        params=params,
        accountant=accountant,
        step_records=step_records,
        final_epsilon=final_epsilon,
        sigma_used=run_config.sigma,
    )


# --------------------------------------------------------------------------
# config files: flat key=value lines, '#' comments
# --------------------------------------------------------------------------

def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


# key -> (DpSgdConfig field, parser); a key not given takes the field's default
_CONFIG_KEYS = {
    "lr": ("learning_rate", float),
    "epochs": ("epochs", int),
    "batch_size": ("batch_size", int),
    "seed": ("seed", int),
    "private": ("private", _parse_bool),
    "clip": ("clip", float),
    "sigma": ("sigma", float),
    "target_epsilon": ("target_epsilon", float),
    "target_delta": ("target_delta", float),
}


def parse_config_text(text: str) -> DpSgdConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value
    kwargs = {}
    try:
        for key, (name, parse) in _CONFIG_KEYS.items():
            if key in values:
                kwargs[name] = parse(values[key])
    except ValueError as exc:
        raise ConfigError(f"config value error: {exc}") from None
    return DpSgdConfig(**kwargs)


def load_config(path) -> DpSgdConfig:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: {exc}") from None
    return parse_config_text(text)
