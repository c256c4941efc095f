"""RDP and GDP accounting for the Gaussian mechanism.

Closed forms for a single mechanism: Renyi divergence (alpha/2) * D^2/s^2
and GDP parameter mu = D/s for sensitivity D and noise deviation s.
Composition is additive in the RDP curve and root-sum-square in mu.  No
subsampling amplification anywhere: each step is accounted as a
full-batch (disclosed-batch) Gaussian mechanism.
"""

from __future__ import annotations

import csv
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
# 512, dense near 1 where the optima sit.  Read-only, since every budget
# shares it.
ALPHA_GRID = np.concatenate([1.0 + np.arange(1, 255) / 2.0, [256.0, 512.0]])
ALPHA_GRID.flags.writeable = False


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


def rdp_of_gaussian(params: GaussianMechanismParams, alpha: float) -> float:
    """rho(alpha) = (alpha/2) * (sensitivity/sigma)^2."""
    if alpha < 1.0:
        raise ConfigError(f"Renyi order must be >= 1, got {alpha}")
    ratio = params.sensitivity / params.sigma
    return 0.5 * alpha * ratio * ratio


def gdp_of_gaussian(params: GaussianMechanismParams) -> float:
    """mu = sensitivity / sigma."""
    return params.sensitivity / params.sigma


@dataclass(frozen=True)
class ComposedBudget:
    alpha_grid: np.ndarray
    rho: np.ndarray  # composed RDP curve, one value per grid order
    mu_total: float


def compose(state: AccountantState) -> ComposedBudget:
    """Additive RDP composition plus root-sum-square GDP composition."""
    if not state.steps:
        raise ConfigError("accountant has no steps to compose")
    return _budget(state.ratio_sq)


def _budget(ratio_sq: float) -> ComposedBudget:
    return ComposedBudget(ALPHA_GRID, 0.5 * ALPHA_GRID * ratio_sq, math.sqrt(ratio_sq))


@dataclass(frozen=True)
class EpsilonReport:
    epsilon: float
    alpha: float  # grid order achieving the minimum


def _epsilon_curve(rho: np.ndarray, delta: float) -> np.ndarray:
    return rho + math.log(1.0 / delta) / (ALPHA_GRID - 1.0)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")


def _epsilon(budget: ComposedBudget, delta: float) -> EpsilonReport:
    curve = _epsilon_curve(budget.rho, delta)
    i = int(np.argmin(curve))
    return EpsilonReport(float(curve[i]), float(budget.alpha_grid[i]))


def epsilon_from_rdp(state: AccountantState, delta: float) -> EpsilonReport:
    """(eps, argmin alpha) from eps = min_alpha rho(alpha) + log(1/delta)/(alpha-1)."""
    _check_delta(delta)
    return _epsilon(compose(state), delta)


def sigma_for_budget(epsilon: float, delta: float, steps: int, clip: float) -> float:
    """Smallest noise multiplier (on a bisection grid) meeting the budget.

    Returns m such that `steps` Gaussian mechanisms with sensitivity
    `clip` and noise deviation m*clip compose to eps <= epsilon at the
    given delta, while 0.99*m does not.
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if steps < 1:
        raise ConfigError(f"step count must be >= 1, got {steps}")
    if not clip > 0:
        raise ConfigError(f"clip must be positive, got {clip}")

    def eps_at(mult: float) -> float:
        rho = 0.5 * ALPHA_GRID * steps / (mult * mult)
        return float(np.min(_epsilon_curve(rho, delta)))

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


def write_report(state: AccountantState, delta: float, path) -> None:
    """Cumulative accountant report as CSV, one row per composed step.

    Each row's epsilon comes from the same running sum and composition as
    epsilon_from_rdp() after that step.
    """
    _check_delta(delta)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["step", "delta_step", "sigma_step", "rho_at_argmin_alpha", "cumulative_epsilon", "mu_total"]
        )
        ratio_sq = 0.0
        for k, step in enumerate(state.steps):
            ratio_sq += _ratio_sq(step)
            budget = _budget(ratio_sq)
            report = _epsilon(budget, delta)
            writer.writerow(
                [
                    k,
                    repr(step.sensitivity),
                    repr(step.sigma),
                    repr(0.5 * report.alpha * _ratio_sq(step)),
                    repr(report.epsilon),
                    repr(budget.mu_total),
                ]
            )
