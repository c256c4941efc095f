"""Gradient-inversion reconstruction attack.

The attacker observes one subject's (possibly clipped and noised)
parameter gradient and optimizes a dummy input so that its gradient
matches the observation, under a smoothed total-variation prior.  The
match objective contains a gradient, so each attack iteration uses the
same double backpropagation machinery as PLIS.  The threat model is the
strong one: architecture, parameters and label are known.

Updates are Adam, implemented from its published update equations
(exponential first/second moment estimates with bias correction); the
monotone mode swaps Adam for plain descent with backtracking line
search, which guarantees a non-increasing objective trace and is the
configuration the property tests use.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .autodiff import (
    Tensor,
    add,
    backward,
    div,
    mul,
    sqrt,
    square,
    sub,
    tmean,
    tslice,
    tsum,
)
from .dpsgd import clip_differentiable
from .errors import AttackFailedError, ConfigError
from .models import (
    Conv2d,
    Linear,
    ModelSpec,
    ParamSet,
    attach_sample,
    parameter_grad,
    per_sample_grad,
)

log = logging.getLogger("plislab.attack")

_ATTACK_STREAM = 3 << 40
_OBSERVE_STREAM = 4 << 40

COSINE = "cosine"
L2 = "l2"

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_TV_SMOOTH = 1e-8


@dataclass(frozen=True)
class DpRelease:
    """How an observed gradient is privatized: clip threshold, noise multiplier, seed."""

    clip: float
    sigma: float
    seed: int


@dataclass(frozen=True)
class AttackConfig:
    iterations: int = 300
    learning_rate: float = 0.1
    restarts: int = 2
    seed: int = 0
    tv_weight: float = 1e-3
    match_loss: str = COSINE
    monotone: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.match_loss not in (COSINE, L2):
            raise ConfigError(f"unknown match loss {self.match_loss!r}")
        if self.tv_weight < 0:
            raise ConfigError("total-variation weight must be nonnegative")


@dataclass
class AttackResult:
    reconstruction: np.ndarray
    match_loss: float
    best_restart: int
    traces: list[list[float]]  # per-restart objective traces (empty if discarded)


def observe_gradient(
    spec: ModelSpec,
    params: ParamSet,
    subject,
    dp: DpRelease | None = None,
) -> np.ndarray:
    """The released quantity: g, or clip(g) + N(0, (sigma*clip)^2) under DP."""
    g = per_sample_grad(spec, params, subject.x, subject.y).data
    if dp is None:
        return g
    g = clip_differentiable(Tensor(g), dp.clip).data
    if dp.sigma > 0:
        noise = rng.gaussians(dp.seed, _OBSERVE_STREAM, g.size)
        g = g + noise * (dp.sigma * dp.clip)
    return g


def _smoothed_tv(x: Tensor) -> Tensor:
    """Anisotropic total variation with |d| ~ sqrt(d^2 + eps) smoothing."""
    nd = x.data.ndim
    lead = (slice(None),) * (nd - 2)
    down = sub(
        tslice(x, lead + (slice(1, None), slice(None))),
        tslice(x, lead + (slice(0, -1), slice(None))),
    )
    right = sub(
        tslice(x, lead + (slice(None), slice(1, None))),
        tslice(x, lead + (slice(None), slice(0, -1))),
    )
    return add(tmean(sqrt(add(square(down), _TV_SMOOTH))), tmean(sqrt(add(square(right), _TV_SMOOTH))))


def _objective(
    spec: ModelSpec,
    params: ParamSet,
    x: np.ndarray,
    label,
    observed: np.ndarray,
    config: AttackConfig,
) -> tuple[float, float, np.ndarray]:
    """(objective value, match component, gradient of objective w.r.t. x)."""
    sample = attach_sample(spec, params, x[None], [label])
    g = parameter_grad(sample, create_graph=True)
    obs = Tensor(observed[None])
    if config.match_loss == COSINE:
        denom = mul(sqrt(tsum(square(g))), float(np.linalg.norm(observed)))
        match = sub(1.0, div(tsum(mul(g, obs)), denom))
    else:
        match = tsum(square(sub(g, obs)))
    objective = match
    if config.tv_weight > 0 and x.ndim >= 2:
        objective = add(objective, mul(_smoothed_tv(sample.x), config.tv_weight))
    (gx,) = backward(objective, [sample.x])
    return float(objective.data.reshape(())), float(match.data.reshape(())), gx.data[0]


def _resolve_shape(
    spec: ModelSpec, input_shape: tuple[int, ...] | None, init: np.ndarray | None
) -> tuple[int, ...]:
    if init is not None:
        return np.asarray(init).shape
    if input_shape is not None:
        return tuple(int(s) for s in input_shape)
    first = spec.layers[0]
    if isinstance(first, Linear):
        return (first.in_dim,)
    if isinstance(first, Conv2d):
        raise ConfigError("reconstruct() needs input_shape for convolutional models")
    raise ConfigError("cannot infer the attack input shape from this model")


def _run_restart(
    spec: ModelSpec,
    params: ParamSet,
    observed: np.ndarray,
    label,
    config: AttackConfig,
    restart: int,
    shape: tuple[int, ...],
    init: np.ndarray | None,
) -> tuple[np.ndarray, float, list[float]] | None:
    if init is not None:
        x = np.asarray(init, dtype=np.float64).copy()
    else:
        draw = rng.gaussians(config.seed, _ATTACK_STREAM + restart, int(np.prod(shape)))
        x = np.clip(draw.reshape(shape) * 0.2 + 0.5, 0.0, 1.0)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace: list[float] = []
    final_match = math.inf
    for t in range(1, config.iterations + 1):
        obj, match, gx = _objective(spec, params, x, label, observed, config)
        if not (math.isfinite(obj) and np.all(np.isfinite(gx))):
            log.debug("restart %d discarded at iteration %d (non-finite)", restart, t)
            return None
        trace.append(obj)
        final_match = match
        if config.monotone:
            step = config.learning_rate
            moved = x
            for _ in range(30):
                candidate = np.clip(x - step * gx, 0.0, 1.0)
                cand_obj, _, _ = _objective(spec, params, candidate, label, observed, config)
                if math.isfinite(cand_obj) and cand_obj <= obj:
                    moved = candidate
                    break
                step *= 0.5
            x = moved
        else:
            m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * gx
            v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * gx * gx
            m_hat = m / (1.0 - _ADAM_BETA1**t)
            v_hat = v / (1.0 - _ADAM_BETA2**t)
            x = np.clip(x - config.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS), 0.0, 1.0)
    return x, final_match, trace


def reconstruct(
    spec: ModelSpec,
    params: ParamSet,
    observed: np.ndarray,
    label,
    config: AttackConfig,
    input_shape: tuple[int, ...] | None = None,
    init: np.ndarray | None = None,
) -> AttackResult:
    """Recover an input whose gradient matches the observed one.

    Runs config.restarts independently seeded restarts (or a single run
    from `init` when given) and returns the one with the lowest final
    match loss.  Restarts that go non-finite are discarded; it is an
    error if all of them do.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != (params.count,):
        raise ConfigError(
            f"observed gradient has shape {observed.shape}, expected ({params.count},)"
        )
    shape = _resolve_shape(spec, input_shape, init)
    best: tuple[np.ndarray, float, list[float]] | None = None
    best_restart = -1
    traces: list[list[float]] = []
    for restart in range(config.restarts):
        outcome = _run_restart(spec, params, observed, label, config, restart, shape, init)
        if outcome is None:
            traces.append([])
            continue
        x, match, trace = outcome
        traces.append(trace)
        if best is None or match < best[1]:
            best = (x, match, trace)
            best_restart = restart
    if best is None:
        raise AttackFailedError("every attack restart produced a non-finite objective")
    return AttackResult(best[0], best[1], best_restart, traces)
