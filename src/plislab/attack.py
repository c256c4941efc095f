"""Gradient-inversion reconstruction attack.

The attacker observes one subject's (possibly clipped and noised)
parameter gradient and optimizes a dummy input so that its gradient
matches the observation, under a smoothed total-variation prior.  The
threat model is the strong one: architecture, parameters and label are
known.

Each iteration takes one vector-Jacobian product of the parameter
gradient, as the PLIS routes do.  The tape holds only the input leaf and
models.attach_sample's gradient node g, whose rule maps a cotangent c to
J^T c.  The match loss and its cotangent c = d(match)/dg, and the prior
and its gradient t in x, are closed forms in numpy, so one backward pass
seeded with c, plus t, is the objective's gradient t + J^T c.  Central
differences of the objective are its oracle in the tests.

Updates are Adam, implemented from its published update equations
(exponential first/second moment estimates with bias correction); the
monotone mode swaps Adam for plain descent with backtracking line
search, which guarantees a non-increasing objective trace and is the
configuration the property tests use.  A backtracking candidate needs
only the objective's value: one per-sample gradient and no backward
pass to x.

A reconstruction builds what its iterations share once, before its first
restart (_observation): the observed gradient, checked, with its norm,
and the label batch, stacked and checked by stack_batch.  An iteration
wraps its input and those targets in a Batch and checks nothing again.
Adam's moments, its update and the prior's gradient are computed in place,
with the bits of the published formulas (the tests keep those as oracles).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .autodiff import backward
from .dpsgd import check_clip, clip_differentiable, refuse_dropped_row
from .errors import AttackFailedError, ConfigError
from .models import (
    Batch, ModelSpec, ParamSet, attach_sample, per_sample_grad, per_sample_loss_and_grad,
    stack_batch,
)

log = logging.getLogger("plislab.attack")

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
    seed: int = 0

    def __post_init__(self):
        check_clip(self.clip)
        if not 0 <= self.sigma < math.inf:
            raise ConfigError(f"DP noise multiplier must be finite and >= 0, got {self.sigma}")


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
        # NaN would compare false and drop the prior; inf would make it the whole objective
        if not 0 <= self.tv_weight < math.inf:
            raise ConfigError(
                f"total-variation weight must be finite and >= 0, got {self.tv_weight}"
            )
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"attack learning rate must be finite and positive, got {self.learning_rate}"
            )


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
    refuse_dropped_row([subject], g[None], dp.clip)
    g = clip_differentiable(g, dp.clip)[0]
    if dp.sigma > 0:
        noise = rng.gaussians(dp.seed, rng.OBSERVE_STREAM, g.size)
        g = g + noise * (dp.sigma * dp.clip)
    return g


class _Observation(NamedTuple):
    """What every iteration of one reconstruction reads, built once by
    _observation: the observed (p,) gradient, its norm |o|, and the targets
    of the label's batch of one."""

    gradient: np.ndarray
    norm: float
    targets: np.ndarray


def _observation(
    spec: ModelSpec, params: ParamSet, observed, label, config: AttackConfig,
    input_shape: tuple[int, ...],
) -> _Observation:
    """The observed gradient and the label, checked once for a reconstruction
    of an input of input_shape.  A gradient of the wrong shape, one whose
    norm is not finite, and an all-zero one under the cosine match (which
    divides by |o|) are a ConfigError: no restart could match them.  The
    label is checked by stack_batch, with its messages."""
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != (params.count,):
        raise ConfigError(
            f"observed gradient has shape {observed.shape}, expected ({params.count},)"
        )
    norm = float(np.linalg.norm(observed))
    if not math.isfinite(norm):
        raise ConfigError(
            f"observed gradient has norm {norm}: its entries and their squares' sum "
            "must be finite"
        )
    if norm == 0.0 and config.match_loss == COSINE:
        raise ConfigError("observed gradient is all zeros: the cosine match has no direction")
    targets = stack_batch(spec, np.zeros((1, *input_shape)), [label]).targets
    return _Observation(observed, norm, targets)


def _match(
    g: np.ndarray, observation: _Observation, loss: str, gradient: bool = True
) -> tuple[float, np.ndarray | None]:
    """The match loss of a (1, p) gradient row g against the observed (p,)
    gradient o, and its gradient in g (None when gradient is False).

    Cosine: 1 - <g, o> / (sqrt(sum g^2) |o|); L2: sum (g - o)^2.  The
    value is formed left to right and its gradient back from the last
    operation to the first; keep that order, since the attack's outputs
    depend on every bit.
    """
    obs = observation.gradient[None]
    if loss == L2:
        diff = g - obs
        value = (diff * diff).sum()
        if not gradient:
            return value, None
        diff *= 2.0
        return value, diff
    # work holds the temporaries: a fresh (1, p) array per op would be
    # memory the allocator hands back and faults in again on each call
    work = g * g
    s = work.sum()
    norm_obs = observation.norm
    denom = np.sqrt(s) * norm_obs
    dot = np.multiply(g, obs, out=work).sum()
    if not gradient:
        return 1.0 - dot / denom, None
    # back through 1 - dot / denom, then denom = sqrt(s) |o| and s = sum g^2;
    # products and sums commute exactly, so c is built in place
    dot_bar = -1.0 / denom
    s_bar = dot / (denom * denom) * norm_obs / (np.sqrt(s) * 2.0)
    c = g * 2.0
    c *= s_bar
    c += np.multiply(obs, dot_bar, out=work)
    return 1.0 - dot / denom, c


def _smoothed_tv(
    x: np.ndarray, weight: float, gradient: bool = True
) -> tuple[float, np.ndarray | None]:
    """Anisotropic total variation of x (..., h, w) with |d| ~ sqrt(d^2 + eps)
    smoothing, and the gradient of weight * TV in x (None when gradient is
    False).

    The gradient is formed back from the mean to the differences, and
    the four shifted slices' cotangents are summed in place into one array
    of x's shape in a fixed order: -right into its low slice, +right into
    its high slice, then the same for down.  Keep it, since the attack's
    outputs depend on every bit.  Those are the bits of the four cotangents
    each placed in zeros of x's shape and summed: that sum adds +0.0 where a
    pixel misses a slice, and a +0.0 term anywhere in a sum turns a -0.0
    result into +0.0 and changes nothing else.  Every border pixel misses a
    slice, so the border rows and columns get + 0.0 at the end; an interior
    pixel, in all four slices, keeps a sum of four -0.0 terms as -0.0.  An
    axis one pixel long has no neighbour pairs: it adds no variation and no
    gradient.
    """
    lead = (slice(None),) * (x.ndim - 2)
    down_hi, down_lo = lead + (slice(1, None), slice(None)), lead + (slice(0, -1), slice(None))
    right_hi, right_lo = lead + (slice(None), slice(1, None)), lead + (slice(None), slice(0, -1))
    down = x[down_hi] - x[down_lo]
    right = x[right_hi] - x[right_lo]
    abs_down = np.sqrt(down * down + _TV_SMOOTH)
    abs_right = np.sqrt(right * right + _TV_SMOOTH)
    # sum / size has the bits of mean, without its overhead
    tv = (abs_down.sum() / down.size if down.size else 0.0) + (
        abs_right.sum() / right.size if right.size else 0.0
    )
    if not gradient:
        return tv, None
    # weight / size / (|d| 2) * (d 2), in place; max(size, 1): an axis
    # without pairs has empty cotangents either way
    for d, abs_d in ((down, abs_down), (right, abs_right)):
        abs_d *= 2.0
        np.divide(weight * (1.0 / max(d.size, 1)), abs_d, out=abs_d)
        d *= 2.0
        abs_d *= d
    down_bar, right_bar = abs_down, abs_right
    # on views: an augmented assignment to grad[index] would copy it back
    grad = np.zeros(x.shape)
    np.negative(right_bar, out=grad[right_lo])
    high = grad[right_hi]
    high += right_bar
    low, high = grad[down_lo], grad[down_hi]
    low -= down_bar
    high += down_bar
    h, w = x.shape[-2:]
    rows, columns = grad[..., :: max(h - 1, 1), :], grad[..., :: max(w - 1, 1)]
    rows += 0.0
    columns += 0.0
    return tv, grad


def _terms(
    g: np.ndarray, x: np.ndarray, observation: _Observation, config: AttackConfig,
    gradient: bool = True,
) -> tuple[float, float, np.ndarray | None, np.ndarray | None]:
    """(objective, match, c, t) for the (1, p) gradient row g of the batched
    input x (1, ...): c is the match's gradient in g, and t the weighted
    prior's gradient in x, None when the prior is off.  With gradient False
    c and t are None and the values are computed alone, by the same
    arithmetic."""
    match, c = _match(g, observation, config.match_loss, gradient)
    if not (config.tv_weight > 0 and x.ndim >= 3):
        return match, match, c, None
    tv, t = _smoothed_tv(x, config.tv_weight, gradient)
    return match + tv * config.tv_weight, match, c, t


def _objective(
    spec: ModelSpec, params: ParamSet, x: np.ndarray, observation: _Observation,
    config: AttackConfig,
) -> tuple[float, float, np.ndarray]:
    """(objective value, match component, gradient of objective w.r.t. x).

    One vector-Jacobian product of the parameter gradient g, the sample's
    gradient node: the backward pass to x seeded with the closed-form
    cotangent c = d(match)/dg from _terms gives J^T c, and the prior's
    gradient t is added to it, t + J^T c.
    """
    sample = attach_sample(spec, params, Batch(x[None], observation.targets))
    objective, match, c, t = _terms(sample.grads.data, sample.x.data, observation, config)
    (gx,) = backward(sample.grads, [sample.x], cotangent=c)
    return float(objective), float(match), (gx.data if t is None else t + gx.data)[0]


def _objective_value(
    spec: ModelSpec, params: ParamSet, x: np.ndarray, observation: _Observation,
    config: AttackConfig,
) -> float:
    """_objective's value alone, from one per-sample gradient."""
    g = per_sample_loss_and_grad(spec, params, Batch(x[None], observation.targets))[1]
    return float(_terms(g, x[None], observation, config, gradient=False)[0])


def _adam_step(
    x: np.ndarray, gx: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, learning_rate: float
) -> None:
    """Adam's t-th update of x from its gradient gx, x and the moments m and v
    in place: the published equations' operations in their order,
        m = b1 m + (1 - b1) gx,  v = b2 v + (1 - b2) gx gx,
        x = clip(x - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), 0, 1),
    each product's operands swapped at most, which keeps its bits."""
    term = gx * (1.0 - _ADAM_BETA1)
    m *= _ADAM_BETA1
    m += term
    np.multiply(gx, 1.0 - _ADAM_BETA2, out=term)
    term *= gx
    v *= _ADAM_BETA2
    v += term
    root = v / (1.0 - _ADAM_BETA2**t)
    np.sqrt(root, out=root)
    root += _ADAM_EPS
    np.divide(m, 1.0 - _ADAM_BETA1**t, out=term)
    term *= learning_rate
    term /= root
    x -= term
    np.clip(x, 0.0, 1.0, out=x)


def _run_restart(
    spec: ModelSpec,
    params: ParamSet,
    observation: _Observation,
    config: AttackConfig,
    restart: int,
    shape: tuple[int, ...],
) -> tuple[np.ndarray, float, list[float]] | None:
    draw = rng.gaussians(config.seed, rng.ATTACK_STREAM + restart, int(np.prod(shape)))
    x = np.clip(draw.reshape(shape) * 0.2 + 0.5, 0.0, 1.0)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace: list[float] = []
    final_match = math.inf
    for t in range(1, config.iterations + 1):
        obj, match, gx = _objective(spec, params, x, observation, config)
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
                cand_obj = _objective_value(spec, params, candidate, observation, config)
                if math.isfinite(cand_obj) and cand_obj <= obj:
                    moved = candidate
                    break
                step *= 0.5
            x = moved
        else:
            _adam_step(x, gx, m, v, t, config.learning_rate)
    return x, final_match, trace


def reconstruct(
    spec: ModelSpec,
    params: ParamSet,
    observed: np.ndarray,
    label,
    config: AttackConfig,
    input_shape: tuple[int, ...],
) -> AttackResult:
    """Recover an input of input_shape (a subject's x.shape) whose gradient
    matches the observed one.

    Runs config.restarts independently seeded restarts and returns the
    one with the lowest final match loss.  An observed gradient no restart
    could match is refused first (see _observation).  Restarts that go
    non-finite are discarded; it is an error if all of them do.
    """
    observation = _observation(spec, params, observed, label, config, input_shape)
    best: tuple[np.ndarray, float, list[float]] | None = None
    best_restart = -1
    traces: list[list[float]] = []
    for restart in range(config.restarts):
        outcome = _run_restart(spec, params, observation, config, restart, input_shape)
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
