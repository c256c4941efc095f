"""Per-sample-clipped, noised gradient descent with a differentiable clip.

The clip is g * C / sqrt(max(||g||^2, C^2)) per row, which is
g * C / max(||g||, C) to the bit while C^2 is a normal float (check_clip
refuses any other C).  A step scales its rows in place by clip_factor,
and direct PLIS takes its PL from it.  The expanded PLIS route takes
clip_differentiable: the clipped rows and a pullback, the clip's
vector-Jacobian product in closed form, which maps a row cotangent r to
the gradient of <r, clip(g)> in g.  At ||g||^2 = C^2 that derivative is
the no-clip branch's, and a zero row gets the identity's: the norm
path's term then divides by 2C, never by 0.  Noise is
N(0, (sigma*C)^2) per coordinate on the *sum* of clipped gradients, i.e.
each step is a Gaussian mechanism with sensitivity C and noise multiplier
sigma, so the accountant sees (C, sigma*C) and the RDP closed form reduces to
(alpha/2)/sigma^2 independent of C.  A row whose squared norm overflows
would be clipped to zero and silently dropped; the step, clipped PLIS
and a DP release refuse it (dropped_row).

Batches are fixed contiguous slices (no Poisson subsampling): per-subject
privacy-loss attribution is incompatible with secret subsampling, so no
amplification is claimed or used.

Batch axis: train checks and stacks the dataset once (models.stack_batch),
and each step takes a contiguous slice of that models.Batch, which nothing
checks again.  A step runs one call per chunk of models.chunk_size()
samples and adds each chunk's gradient sum into one running (p,) total.
A private step takes the chunk's per-sample gradients as the (B, p) rows
of models.per_sample_loss_and_grad and clips each row in place before
the sum.  A non-private step has nothing to clip: models.loss_and_grad_sum
adds the chunk's batch-summed gradient into the total, and no row is
formed.  A batch of one chunk is passed whole, not sliced.  Both routes
are tape-free: a step builds no graph.

train owns its parameters: it copies the start parameters once into one
buffer, and every step updates that buffer in place (dp_sgd_step's out),
so no step allocates a second parameter vector or checks a new ParamSet.
Both routes take their large temporaries from a models.Workspace that
train keeps for all its steps, so no chunk allocates them, or faults
their pages in, again.  The workspace also keeps a private step's (B, p)
gradient rows with each block's view of them; the parameter tiles are
the buffer's own (models.ParamSet.tiles), built once for every step.
train draws the noise of consecutive steps as one block of
rng.gaussian_rows, of at most NOISE_BLOCK_ENTRIES entries, whose row for
step t is the draw dp_sgd_step would make itself at step t.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .accounting import AccountantState, check_delta, epsilon_from_rdp, sigma_for_budget
from .errors import ConfigError, DataFormatError, TrainingDivergedError
from .models import (
    Batch,
    ModelSpec,
    ParamSet,
    Workspace,
    chunk_size,
    init_params,
    loss_and_grad_sum,
    per_sample_loss_and_grad,
    stack_batch,
)

log = logging.getLogger("plislab.dpsgd")

# Noise entries train draws at once, one rng.gaussian_rows block of whole
# steps: the CLI's 289-parameter MLP gets 28 steps per block, and a model
# of more than 8,192 parameters one.  On a 2-vCPU x86-64 VM, one BLAS
# thread, 1,008 batch-1 steps of that MLP took 95 ms at one step per
# block, 72 ms at 28, and 70-73 ms at 113-453, which hold more memory
# (medians of 12 interleaved rounds).
NOISE_BLOCK_ENTRIES = 1 << 13


def check_clip(clip) -> None:
    # sqrt(C * C) is C only while C * C neither overflows nor underflows
    if clip is None or not (clip > 0 and sys.float_info.min <= float(clip) * float(clip) < math.inf):
        raise ConfigError(
            "clipping needs a finite positive clip threshold whose square is a normal "
            f"float (about 1.5e-154 to 1.3e154), got {clip}"
        )


def check_sigma(sigma) -> None:
    if sigma is None or not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    # PL and PLIS divide by sigma^2: a square that underflows overflows them,
    # one that overflows reports PL = PLIS = 0 for every subject.  The
    # accountant squares C / (sigma C), which overflows with it
    if not sys.float_info.min <= sigma * sigma < math.inf:
        raise ConfigError(
            f"sigma must have a square that is a normal float (about 1.5e-154 to "
            f"1.3e154), got {sigma}"
        )


def clip_factor(g: np.ndarray, clip: float) -> np.ndarray:
    """C / sqrt(max(||g||^2, C^2)) per row, last axis kept: the clipped rows are g times it.

    A row whose squared norm overflows gets C / inf = 0 (see dropped_row).
    """
    return clip / np.sqrt(np.maximum((g * g).sum(axis=-1, keepdims=True), clip * clip))


def dropped_row(factor: np.ndarray) -> int | None:
    """The first row that clipping by clip_factor's factor would drop, else None.

    The factor is 0 exactly where a row's squared norm overflows: every
    clip, in place or by clip_differentiable, would silently zero that
    row.  The DP-SGD step, clipped PLIS and a DP release refuse it,
    naming the step or the subject.
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
            if self.sigma != 0:
                check_sigma(self.sigma)
        elif self.clip is not None or self.sigma != 0 or self.target_epsilon is not None:
            raise ConfigError("non-private training takes no clip, sigma or target epsilon")
        check_delta(self.target_delta)


def clip_differentiable(g: np.ndarray, clip: float):
    """(clipped, pullback) for rows g clipped along the last axis.

    clipped is g * clip_factor(g, C), to the bit.  pullback(r) is the
    gradient of <r, clipped> in g, in closed form: r * f plus the norm
    path's term, with s = ||g||^2, n = sqrt(max(s, C^2)) and f = C / n;
    the term is 0 unless s > C^2.  Above C that is the projection
    (C / ||g||) (r - u <u, r>), u = g / ||g||; at or below C it is r.  The
    order of the operations is kept as it is: the bits of clipped
    expanded PLIS, and so of the CLI's outputs, depend on it.
    """
    check_clip(clip)
    c = float(clip)
    s = (g * g).sum(axis=-1, keepdims=True)
    n = np.sqrt(np.maximum(s, c * c))
    f = c / n

    def pullback(r: np.ndarray) -> np.ndarray:
        norm_bar = (r * g).sum(axis=-1, keepdims=True) * c / (n * n) * -1.0 / (n * 2.0)
        return r * f + (norm_bar * (s > c * c)) * (g * 2.0)

    return g * f, pullback


@dataclass
class StepResult:
    params: ParamSet
    noise: np.ndarray | None  # the raw standard-normal draw, before scaling
    mean_loss: float


def dp_sgd_step(
    spec: ModelSpec,
    params: ParamSet,
    batch: Batch,
    config: DpSgdConfig,
    step_index: int = 0,
    noise: np.ndarray | None = None,
    work: Workspace | None = None,
    out: ParamSet | None = None,
) -> StepResult:
    """One update: params - lr * (sum_i clip(g_i) + N(0, (sigma C)^2 I)) / |batch|.

    batch: the step's samples, a models.Batch (train passes slices of the
    dataset it stacked once, models.stack_batch).  The noise is the
    standard-normal draw keyed by (config.seed, step_index),
    rng.gaussians(config.seed, rng.NOISE_STREAM + step_index, p); a caller
    that already holds that draw passes it as noise (train passes rows of
    rng.gaussian_rows).  The step takes its temporaries, and a private
    step its gradient rows, from work, a models.Workspace (train passes one
    for all its steps; without it the step makes its own); nothing it
    returns is a view of it.  The updated parameters go to a new ParamSet,
    or into out.flat in place, with the bits of the new one, and out is
    returned (train passes the one it owns as both params and out).  A
    private config must carry its sigma: only train derives one from a
    target epsilon.  A non-finite mean loss, a row whose squared norm
    overflows (its clip factor is 0, so clipping would drop it), or a
    non-finite parameter after the update raises TrainingDivergedError
    naming step_index (out then holds that update); numpy's overflow and
    invalid-value warnings on the way there are silenced.
    """
    if not len(batch):
        raise ConfigError("dp_sgd_step: empty batch")
    if config.private and not config.sigma > 0:
        raise ConfigError("dp_sgd_step: a private step needs sigma > 0; "
                          "train derives it from the target epsilon")
    n, size = len(batch), chunk_size(params)
    total = np.zeros(params.count)
    losses = []
    work = Workspace() if work is None else work
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, size):
            chunk = batch if n <= size else batch[first : first + size]
            if not config.private:
                losses.append(loss_and_grad_sum(spec, params, chunk, total, work))
                continue
            loss, g = per_sample_loss_and_grad(spec, params, chunk, work)
            losses.append(loss)
            factor = clip_factor(g, config.clip)
            if dropped_row(factor) is not None:
                raise TrainingDivergedError(
                    f"a gradient's squared norm overflows at step {step_index}; "
                    "clipping would drop its row"
                )
            g *= factor
            total += g.sum(axis=0)
        losses = losses[0] if len(losses) == 1 else np.concatenate(losses)
        mean_loss = float(losses.sum()) / n  # np.mean's arithmetic
        if not math.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite loss at step {step_index}")
        if config.private:
            if noise is None:
                noise = rng.gaussians(config.seed, rng.NOISE_STREAM + step_index, params.count)
            total += noise * (config.sigma * config.clip)
        if out is None:
            out = params.with_flat(np.empty_like(params.flat))
        np.subtract(params.flat, config.learning_rate * (total / n), out=out.flat)
    if not np.isfinite(out.flat).all():
        raise TrainingDivergedError(f"non-finite parameters after step {step_index}")
    return StepResult(out, noise, mean_loss)


def _noise_rows(seed: int, count: int, steps: int):
    """Each step's noise draw for steps 0 .. steps - 1, in order, taken from
    blocks of rng.gaussian_rows of at most NOISE_BLOCK_ENTRIES entries (one
    row when a row holds more)."""
    rows = max(1, NOISE_BLOCK_ENTRIES // count)
    for first in range(0, steps, rows):
        yield from rng.gaussian_rows(seed, rng.NOISE_STREAM + first, min(rows, steps - first), count)


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

    dataset: sequence of (x, y) pairs, checked and stacked once
    (models.stack_batch); each step takes a slice.  Parameters start from
    a copy of `initial` when given, else from init_params(spec,
    config.seed): the call owns that one buffer, every step updates it in
    place (dp_sgd_step's out), and it is the trace's params.  One
    models.Workspace serves every step of the call and is dropped with it.
    With private=False the accountant is never touched.  A step that diverges
    raises TrainingDivergedError naming its index (see dp_sgd_step).
    """
    if not len(dataset):
        raise ConfigError("train: empty dataset")
    data = stack_batch(spec, [x for x, _ in dataset], [y for _, y in dataset])
    params = (init_params(spec, config.seed) if initial is None
              else initial.with_flat(initial.flat.copy()))
    total_steps = config.epochs * math.ceil(len(data) / config.batch_size)
    run_config = config
    if config.target_epsilon is not None:
        # DpSgdConfig refuses a sigma next to a target, so the target goes
        run_config = replace(config, target_epsilon=None, sigma=sigma_for_budget(
            config.target_epsilon, config.target_delta, max(total_steps, 1)))
        log.info("derived noise multiplier %.6g for (%g, %g) over %d steps",
                 run_config.sigma, config.target_epsilon, config.target_delta, total_steps)

    accountant = AccountantState() if config.private else None
    work = Workspace()  # the summed route's buffers, for every step of this call
    noises = (_noise_rows(config.seed, params.count, total_steps) if config.private
              else itertools.repeat(None))
    per_epoch: list[float] = []
    step_records: list[tuple[int, float, float]] = []
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = []
        for start in range(0, len(data), config.batch_size):
            batch = data[start : start + config.batch_size]
            result = dp_sgd_step(spec, params, batch, run_config, step, next(noises), work,
                                 out=params)
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
