"""RDP accounting for composed Gaussian mechanisms.

A step with sensitivity D and noise deviation s has Renyi divergence
(alpha/2) * (D/s)^2 at every order, so steps compose by adding (D/s)^2.
AccountantState keeps that one running sum, and _epsilon alone maps a sum
to (eps, argmin alpha) on ALPHA_GRID.  No subsampling amplification: each
step is accounted as a full-batch (disclosed-batch) Gaussian mechanism.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigError


@dataclass(frozen=True, slots=True)
class GaussianMechanismParams:
    """L2 sensitivity and noise standard deviation of one Gaussian mechanism."""

    sensitivity: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.sensitivity < 0:
            raise ConfigError(f"sensitivity must be nonnegative, got {self.sensitivity}")


# Renyi orders of every RDP curve: half-integers 1.5 .. 128 plus 256 and
# 512, dense near 1 where the optima sit.  Read-only, since every curve
# shares it.
ALPHA_GRID = np.concatenate([1.0 + np.arange(1, 255) / 2.0, [256.0, 512.0]])
ALPHA_GRID.flags.writeable = False
_HALF_ALPHA = 0.5 * ALPHA_GRID
_HALF_ALPHA.flags.writeable = False


@dataclass
class AccountantState:
    """Composed steps plus their running sum of (sensitivity/sigma)^2.

    Add steps through add_step(), which keeps ratio_sq in step with steps,
    so composing costs O(1) however many steps there are.
    """

    steps: list[GaussianMechanismParams] = field(default_factory=list)
    ratio_sq: float = field(default=0.0, init=False)

    def __post_init__(self):
        for step in self.steps:
            self.ratio_sq += _ratio_sq(step)

    def add_step(self, sensitivity: float, sigma: float) -> None:
        step = GaussianMechanismParams(sensitivity, sigma)
        self.steps.append(step)
        self.ratio_sq += _ratio_sq(step)


def _ratio_sq(step: GaussianMechanismParams) -> float:
    return (step.sensitivity / step.sigma) ** 2


@dataclass(frozen=True)
class EpsilonReport:
    epsilon: float
    alpha: float  # grid order achieving the minimum


@functools.lru_cache(maxsize=8)
def _delta_term(delta: float) -> np.ndarray:
    """log(1/delta) / (alpha - 1) on ALPHA_GRID, read-only: every curve at delta adds it."""
    term = math.log(1.0 / delta) / (ALPHA_GRID - 1.0)
    term.flags.writeable = False
    return term


def _epsilon_curve(rho: np.ndarray, delta: float) -> np.ndarray:
    return rho + _delta_term(delta)


def check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")


def _epsilon(ratio_sq: float, delta: float) -> EpsilonReport:
    """(eps, argmin alpha) of the composed curve rho(alpha) = (alpha/2) * ratio_sq."""
    curve = _epsilon_curve(_HALF_ALPHA * ratio_sq, delta)
    i = int(np.argmin(curve))
    return EpsilonReport(float(curve[i]), float(ALPHA_GRID[i]))


def epsilon_from_rdp(state: AccountantState, delta: float) -> EpsilonReport:
    """(eps, argmin alpha) from eps = min_alpha rho(alpha) + log(1/delta)/(alpha-1)."""
    check_delta(delta)
    if not state.steps:
        raise ConfigError("accountant has no steps to compose")
    return _epsilon(state.ratio_sq, delta)


def sigma_for_budget(epsilon: float, delta: float, steps: int) -> float:
    """Smallest noise multiplier (on a bisection grid) meeting the budget.

    Returns m such that `steps` Gaussian mechanisms, each with noise
    deviation m times its sensitivity, compose to eps <= epsilon at the
    given delta, while 0.99*m does not.  A step's RDP depends only on
    that ratio, so m is the same for every clip threshold.
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if steps < 1:
        raise ConfigError(f"step count must be >= 1, got {steps}")

    # built once for every bisection step: the curve is rho_1 / m^2 + term
    rho_1, term = _HALF_ALPHA * steps, _delta_term(delta)

    def eps_at(mult: float) -> float:
        return float(np.min(rho_1 / (mult * mult) + term))

    lo, hi = 1e-4, 1e8
    if eps_at(hi) > epsilon:
        raise BudgetError(
            f"budget (epsilon={epsilon}, delta={delta}) unattainable within sigma <= {hi:g}"
        )
    if eps_at(lo) <= epsilon:
        return lo
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# Steps per block of write_report: a block's curves are one (steps, orders)
# array, 256 KB at 128 steps, where a report's worth would grow with T.
_REPORT_BLOCK = 128


def write_report(state: AccountantState, delta: float, path) -> None:
    """Cumulative accountant report as CSV, one row per composed step.

    Columns: step k; delta_step and sigma_step, the step's D and s;
    rho_at_argmin_alpha, the step's own (alpha/2) * (D/s)^2 at the alpha
    minimising the composed eps after step k; cumulative_epsilon, that eps
    (epsilon_from_rdp() after step k); mu_total, sqrt(sum of (D/s)^2).

    The steps are composed _REPORT_BLOCK at a time: a block's running sums
    are one np.cumsum, which adds in step order as AccountantState does, so
    every sum, and every eps from it, has the bits epsilon_from_rdp gives
    after step k.  Every cell is an int or a float's repr, which holds no
    comma, quote or newline, so the rows are one join of their text: the
    bytes csv.writer gives, which quotes none of them.
    """
    check_delta(delta)
    ratios = np.array([_ratio_sq(step) for step in state.steps])
    lines = ["step,delta_step,sigma_step,rho_at_argmin_alpha,cumulative_epsilon,mu_total\n"]
    ratio_sq = 0.0
    for first in range(0, len(ratios), _REPORT_BLOCK):
        block = ratios[first : first + _REPORT_BLOCK]
        sums = np.cumsum(np.concatenate(([ratio_sq], block)))[1:]
        curves = _epsilon_curve(_HALF_ALPHA * sums[:, None], delta)
        best = curves.argmin(axis=1)
        rows = zip(
            state.steps[first : first + _REPORT_BLOCK],
            (0.5 * ALPHA_GRID[best] * block).tolist(),
            curves[np.arange(len(best)), best].tolist(),
            np.sqrt(sums).tolist(),
        )
        lines += [f"{k},{step.sensitivity!r},{step.sigma!r},{rho!r},{eps!r},{mu!r}\n"
                  for k, (step, rho, eps, mu) in enumerate(rows, first)]
        ratio_sq = sums[-1]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))
