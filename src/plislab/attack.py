"""Gradient-inversion reconstruction attack.

The attacker observes one subject's (possibly clipped and noised)
parameter gradient and optimizes a dummy input so that its gradient
matches the observation, under a smoothed total-variation prior.  The
threat model is the strong one: architecture, parameters and label are
known.

Each iteration takes one vector-Jacobian product of the parameter
gradient, as the expanded PLIS route does.  The tape holds only the
model: its forward pass and the create-graph parameter gradient g.  The
match loss and its cotangent c = d(match)/dg, and the prior and its
gradient t in x, are closed forms in numpy, so one backward pass of
<g, c> + <x, t> to x returns the objective's gradient.  The numpy code
does the arithmetic of the tape ops that would compute the same match and
prior, and of their rules, in the order a backward pass applies them, so
the values and the gradient equal that tape route's bit for bit (the tests
keep it as the reference).

Updates are Adam, implemented from its published update equations
(exponential first/second moment estimates with bias correction); the
monotone mode swaps Adam for plain descent with backtracking line
search, which guarantees a non-increasing objective trace and is the
configuration the property tests use.  A backtracking candidate needs
only the objective's value: one per-sample gradient, no create-graph
pass and no backward pass to x.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .autodiff import Tensor, add, backward, mul, tsum
from .dpsgd import check_clip, clip_differentiable, refuse_dropped_row
from .errors import AttackFailedError, ConfigError
from .models import ModelSpec, ParamSet, attach_sample, parameter_grad, per_sample_grad

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
    g = clip_differentiable(Tensor(g), dp.clip).data
    if dp.sigma > 0:
        noise = rng.gaussians(dp.seed, rng.OBSERVE_STREAM, g.size)
        g = g + noise * (dp.sigma * dp.clip)
    return g


def _match(
    g: np.ndarray, observed: np.ndarray, loss: str, gradient: bool = True
) -> tuple[float, np.ndarray | None]:
    """The match loss of a (1, p) gradient row g against observed (p,), and
    its gradient in g (None when gradient is False).

    Cosine: 1 - <g, o> / (sqrt(sum g^2) |o|); L2: sum (g - o)^2.  The
    arithmetic is that of the tape ops for the same expression and then of
    their rules, last op first, so both equal the tape route's bit for bit.
    """
    obs = observed[None]
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
    norm_obs = float(np.linalg.norm(observed))
    denom = np.sqrt(s) * norm_obs
    dot = np.multiply(g, obs, out=work).sum()
    if not gradient:
        return 1.0 - dot / denom, None
    # the rules of sub(1, .), div, sum and mul(g, o), mul(., |o|), sqrt, sum
    # and square; products and sums commute exactly, so c is built in place
    dot_bar = -1.0 / denom
    s_bar = dot / (denom * denom) * norm_obs / (np.sqrt(s) * 2.0)
    c = g * 2.0
    c *= s_bar
    c += np.multiply(obs, dot_bar, out=work)
    return 1.0 - dot / denom, c


def _embed(values: np.ndarray, shape: tuple, index: tuple) -> np.ndarray:
    out = np.zeros(shape)
    out[index] = values
    return out


def _smoothed_tv(
    x: np.ndarray, weight: float, gradient: bool = True
) -> tuple[float, np.ndarray | None]:
    """Anisotropic total variation of x (..., h, w) with |d| ~ sqrt(d^2 + eps)
    smoothing, and the gradient of weight * TV in x (None when gradient is
    False).

    The arithmetic is that of the tape ops for the same expression (slices,
    sub, square, add, sqrt, mean) and then of their rules, last op first,
    so both equal the tape route's bit for bit: the four slices'
    cotangents are embedded and summed in the order that route's backward
    pass sums them at x.
    """
    lead = (slice(None),) * (x.ndim - 2)
    down_hi, down_lo = lead + (slice(1, None), slice(None)), lead + (slice(0, -1), slice(None))
    right_hi, right_lo = lead + (slice(None), slice(1, None)), lead + (slice(None), slice(0, -1))
    down = x[down_hi] - x[down_lo]
    right = x[right_hi] - x[right_lo]
    abs_down = np.sqrt(down * down + _TV_SMOOTH)
    abs_right = np.sqrt(right * right + _TV_SMOOTH)
    if not gradient:
        return abs_down.mean() + abs_right.mean(), None
    down_bar = weight * (1.0 / down.size) / (abs_down * 2.0) * (down * 2.0)
    right_bar = weight * (1.0 / right.size) / (abs_right * 2.0) * (right * 2.0)
    grad = _embed(-right_bar, x.shape, right_lo) + _embed(right_bar, x.shape, right_hi)
    grad = grad + _embed(-down_bar, x.shape, down_lo)
    grad = grad + _embed(down_bar, x.shape, down_hi)
    return abs_down.mean() + abs_right.mean(), grad


def _terms(
    g: np.ndarray, x: np.ndarray, observed: np.ndarray, config: AttackConfig,
    gradient: bool = True,
) -> tuple[float, float, np.ndarray | None, np.ndarray | None]:
    """(objective, match, c, t) for the (1, p) gradient row g of the batched
    input x (1, ...): c is the match's gradient in g, and t the weighted
    prior's gradient in x, None when the prior is off.  With gradient False
    c and t are None and the values are computed alone, by the same
    arithmetic."""
    match, c = _match(g, observed, config.match_loss, gradient)
    if not (config.tv_weight > 0 and x.ndim >= 3):
        return match, match, c, None
    tv, t = _smoothed_tv(x, config.tv_weight, gradient)
    return match + tv * config.tv_weight, match, c, t


def _objective(
    spec: ModelSpec,
    params: ParamSet,
    x: np.ndarray,
    label,
    observed: np.ndarray,
    config: AttackConfig,
) -> tuple[float, float, np.ndarray]:
    """(objective value, match component, gradient of objective w.r.t. x).

    One vector-Jacobian product of the create-graph parameter gradient g:
    the backward pass of <g, c> + <x, t> to x, with the closed-form
    cotangent c = d(match)/dg and prior gradient t from _terms.  Both terms
    sit above the model's nodes, so t is the first cotangent x receives and
    the model's contributions are added to it in the tape route's order.
    """
    sample = attach_sample(spec, params, x[None], [label])
    g = parameter_grad(sample, create_graph=True)
    objective, match, c, t = _terms(g.data, sample.x.data, observed, config)
    out = tsum(mul(g, Tensor(c)))
    if t is not None:
        out = add(out, tsum(mul(sample.x, Tensor(t))))
    (gx,) = backward(out, [sample.x])
    return float(objective), float(match), gx.data[0]


def _objective_value(
    spec: ModelSpec,
    params: ParamSet,
    x: np.ndarray,
    label,
    observed: np.ndarray,
    config: AttackConfig,
) -> float:
    """_objective's value alone, from one per-sample gradient."""
    g = per_sample_grad(spec, params, x, label).data[None]
    return float(_terms(g, x[None], observed, config, gradient=False)[0])


def _run_restart(
    spec: ModelSpec,
    params: ParamSet,
    observed: np.ndarray,
    label,
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
                cand_obj = _objective_value(spec, params, candidate, label, observed, config)
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
    input_shape: tuple[int, ...],
) -> AttackResult:
    """Recover an input of input_shape (a subject's x.shape) whose gradient
    matches the observed one.

    Runs config.restarts independently seeded restarts and returns the
    one with the lowest final match loss.  Restarts that go non-finite
    are discarded; it is an error if all of them do.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != (params.count,):
        raise ConfigError(
            f"observed gradient has shape {observed.shape}, expected ({params.count},)"
        )
    best: tuple[np.ndarray, float, list[float]] | None = None
    best_restart = -1
    traces: list[list[float]] = []
    for restart in range(config.restarts):
        outcome = _run_restart(spec, params, observed, label, config, restart, input_shape)
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
