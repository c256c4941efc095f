"""Per-sample-clipped, noised gradient descent with a differentiable clip.

The clip is g * C / max(C, ||g||), one graph op whose rule is built from
graph ops, so that privacy-loss analyses can differentiate through it; the
kink at ||g|| = C takes the no-clip branch derivative.  Noise is N(0, (sigma*C)^2)
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
from .autodiff import Tensor, clip_rows
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


@dataclass(frozen=True)
class DpSgdConfig:
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
            if self.clip is None or not 0 < self.clip < math.inf:
                raise ConfigError(
                    f"private training needs a finite positive clip threshold, got {self.clip}"
                )
            if not self.sigma > 0 and self.target_epsilon is None:
                raise ConfigError("private training needs sigma > 0 or a target epsilon")
            # an infinite sigma noises every update to +-inf, yet the loss
            # checked before each update stays finite
            if not math.isfinite(self.sigma):
                raise ConfigError(f"private training needs a finite sigma, got {self.sigma}")
        if not 0.0 < self.target_delta < 1.0:
            raise ConfigError(f"target delta must lie in (0, 1), got {self.target_delta}")


def clip_differentiable(g: Tensor, clip: float) -> Tensor:
    """g * C / max(C, ||g||_2) along the last axis as one graph node
    (autodiff.clip_rows), differentiable to any order.  A (B, p) tensor is
    clipped row by row.

    ||g|| = 0 is safe in the forward pass: max(C, 0) = C and g comes back
    unchanged.  C must be finite: C / max(C, ||g||) is inf / inf at C = inf.
    """
    if not 0 < clip < math.inf:
        raise ConfigError(f"clip threshold must be finite and positive, got {clip}")
    return clip_rows(g, clip)


@dataclass
class StepResult:
    params: ParamSet
    noise: np.ndarray | None  # the raw standard-normal draw, before scaling
    mean_loss: float
    max_clipped_norm: float


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
    max_norm = 0.0
    for part in chunks(batch, chunk_size(params)):
        loss, g = per_sample_loss_and_grad(
            spec, params, np.stack([x for x, _ in part]), [y for _, y in part]
        )
        losses.append(loss)
        if config.private:
            g = clip_differentiable(Tensor(g), config.clip).data
            max_norm = max(max_norm, float(np.linalg.norm(g, axis=1).max()))
        total += g.sum(axis=0)
    noise = None
    if config.private and config.sigma > 0:
        noise = rng.gaussians(config.seed, _NOISE_STREAM + step_index, params.count)
        total = total + noise * (config.sigma * config.clip)
    update = total / len(batch)
    new_flat = params.flat - config.learning_rate * update
    return StepResult(
        params.with_flat(new_flat), noise, float(np.mean(np.concatenate(losses))), max_norm
    )


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
    sigma = config.sigma
    if config.private and not sigma > 0:
        sigma = sigma_for_budget(
            config.target_epsilon, config.target_delta, max(total_steps, 1), config.clip
        )
        log.info("derived noise multiplier %.6g for (%g, %g) over %d steps",
                 sigma, config.target_epsilon, config.target_delta, total_steps)
    run_config = replace(config, sigma=sigma) if sigma != config.sigma else config

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
        sigma_used=sigma if config.private else 0.0,
    )


# --------------------------------------------------------------------------
# config files: flat key=value lines, '#' comments
# --------------------------------------------------------------------------

_CONFIG_KEYS = {
    "clip",
    "sigma",
    "lr",
    "epochs",
    "batch_size",
    "seed",
    "private",
    "target_epsilon",
    "target_delta",
}


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


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
    try:
        return DpSgdConfig(
            learning_rate=float(values.get("lr", "0.1")),
            epochs=int(values.get("epochs", "1")),
            batch_size=int(values.get("batch_size", "32")),
            seed=int(values.get("seed", "0")),
            private=_parse_bool(values.get("private", "false")),
            clip=float(values["clip"]) if "clip" in values else None,
            sigma=float(values.get("sigma", "0")),
            target_epsilon=float(values["target_epsilon"]) if "target_epsilon" in values else None,
            target_delta=float(values.get("target_delta", "1e-5")),
        )
    except ValueError as exc:
        raise ConfigError(f"config value error: {exc}") from None


def load_config(path) -> DpSgdConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
