"""Per-sample-clipped, noised gradient descent with a differentiable clip.

The clip is g * C / max(C, ||g||) per row.  A step scales its rows in place by
autodiff.clip_factor; PLIS takes the differentiable route, clip_rows, one graph
op with that value whose rule, built from graph ops, takes the no-clip branch
derivative at ||g|| = C.  Noise is N(0, (sigma*C)^2)
per coordinate on the *sum* of clipped gradients, i.e. each step is a
Gaussian mechanism with sensitivity C and noise multiplier sigma, so the
accountant sees (C, sigma*C) and the RDP closed form reduces to
(alpha/2)/sigma^2 independent of C.

Batches are fixed contiguous slices (no Poisson subsampling): per-subject
privacy-loss attribution is incompatible with secret subsampling, so no
amplification is claimed or used.

Batch axis: a step computes its per-sample gradients as the rows of one
backward pass per chunk of models.chunk_size() samples, and clips each row
on its own; no per-sample graph is built.  Each chunk's graph is freed
before the next chunk's is built.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .accounting import AccountantState, epsilon_from_rdp, sigma_for_budget
from .autodiff import Tensor, clip_factor, clip_rows
from .errors import ConfigError, TrainingDivergedError
from .models import (
    ModelSpec,
    ParamSet,
    chunk_size,
    chunks,
    init_params,
    per_sample_loss_and_grad,
)

log = logging.getLogger("plislab.dpsgd")

_NOISE_STREAM = 2 << 40  # disjoint from parameter-init streams


def check_clip(clip) -> None:
    # C / max(C, ||g||) is inf / inf at C = inf
    if clip is None or not 0 < clip < math.inf:
        raise ConfigError(f"clipping needs a finite positive clip threshold, got {clip}")


@dataclass(frozen=True)
class DpSgdConfig:
    """Every run reads learning_rate, epochs, batch_size and seed.  Private training
    also reads clip and one of sigma > 0 and target_epsilon (train then derives
    sigma), never both; non-private training takes none of these three."""

    learning_rate: float
    epochs: int
    batch_size: int
    seed: int = 0
    private: bool = False
    clip: float | None = None
    sigma: float = 0.0
    target_epsilon: float | None = None
    target_delta: float = 1e-5

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
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
            # an infinite sigma noises every update to +-inf, yet the loss
            # checked before each update stays finite
            if not math.isfinite(self.sigma):
                raise ConfigError(f"private training needs a finite sigma, got {self.sigma}")
        elif self.clip is not None or self.sigma != 0 or self.target_epsilon is not None:
            raise ConfigError("non-private training takes no clip, sigma or target epsilon")
        if not 0.0 < self.target_delta < 1.0:
            raise ConfigError(f"target delta must lie in (0, 1), got {self.target_delta}")


def clip_differentiable(g: Tensor, clip: float) -> Tensor:
    """g * C / max(C, ||g||_2) along the last axis as one graph node
    (autodiff.clip_rows), differentiable to any order.  A (B, p) tensor is
    clipped row by row.

    ||g|| = 0 is safe in the forward pass: max(C, 0) = C and g comes back
    unchanged.
    """
    check_clip(clip)
    return clip_rows(g, clip)


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
    """
    if not batch:
        raise ConfigError("dp_sgd_step: empty batch")
    total = np.zeros(params.count)
    losses = []
    for part in chunks(batch, chunk_size(params)):
        loss, g = per_sample_loss_and_grad(
            spec, params, np.stack([x for x, _ in part]), [y for _, y in part]
        )
        losses.append(loss)
        if config.private:
            g *= clip_factor(g, config.clip)
        total += g.sum(axis=0)
    noise = None
    if config.sigma > 0:  # only a private config has one
        noise = rng.gaussians(config.seed, _NOISE_STREAM + step_index, params.count)
        total = total + noise * (config.sigma * config.clip)
    update = total / len(batch)
    new_flat = params.flat - config.learning_rate * update
    return StepResult(params.with_flat(new_flat), noise, float(np.mean(np.concatenate(losses))))


@dataclass
class TrainTrace:
    per_epoch_loss: list[float]
    params: ParamSet
    accountant: AccountantState | None
    step_records: list[tuple[int, float, float]] = field(default_factory=list)
    final_epsilon: float | None = None
    sigma_used: float = 0.0


def step_count(n_samples: int, config: DpSgdConfig) -> int:
    return config.epochs * math.ceil(n_samples / config.batch_size)


def train(
    spec: ModelSpec, dataset, config: DpSgdConfig, initial: ParamSet | None = None
) -> TrainTrace:
    """Run (DP-)SGD over fixed contiguous batches.

    dataset: sequence of (x, y) pairs.  Parameters start from `initial`
    when given, else from init_params(spec, config.seed).  With
    private=False the accountant is never touched.  A non-finite batch
    loss aborts with the step index.
    """
    if not len(dataset):
        raise ConfigError("train: empty dataset")
    params = init_params(spec, config.seed) if initial is None else initial
    total_steps = step_count(len(dataset), config)
    sigma, run_config = config.sigma, config
    if config.target_epsilon is not None:
        sigma = sigma_for_budget(config.target_epsilon, config.target_delta, max(total_steps, 1))
        log.info("derived noise multiplier %.6g for (%g, %g) over %d steps",
                 sigma, config.target_epsilon, config.target_delta, total_steps)
        # DpSgdConfig refuses a sigma next to a target, so the target goes
        run_config = replace(config, sigma=sigma, target_epsilon=None)

    accountant = AccountantState() if config.private else None
    per_epoch: list[float] = []
    step_records: list[tuple[int, float, float]] = []
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = []
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in range(start, min(start + config.batch_size, len(dataset)))]
            result = dp_sgd_step(spec, params, batch, run_config, step)
            if not math.isfinite(result.mean_loss):
                raise TrainingDivergedError(f"non-finite loss at step {step}")
            params = result.params
            eps_now = 0.0
            if accountant is not None:
                accountant.add_step(run_config.clip, sigma * run_config.clip)
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
        sigma_used=sigma,
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
# DpSgdConfig has no default for these three; a config file may leave them out
_REQUIRED_DEFAULTS = {"learning_rate": 0.1, "epochs": 1, "batch_size": 32}


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
    kwargs = dict(_REQUIRED_DEFAULTS)
    try:
        for key, (name, parse) in _CONFIG_KEYS.items():
            if key in values:
                kwargs[name] = parse(values[key])
    except ValueError as exc:
        raise ConfigError(f"config value error: {exc}") from None
    return DpSgdConfig(**kwargs)


def load_config(path) -> DpSgdConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
