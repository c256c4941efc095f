"""Accountant closed forms, composition and the budget inverter."""

import csv
import math

import numpy as np
import pytest

from plislab import accounting as acct
from plislab.errors import BudgetError, ConfigError

GM = acct.GaussianMechanismParams


class TestRdpClosedForm:
    def test_unit_example(self):
        assert acct.rdp_of_gaussian(GM(1.0, 1.0), 2.0) == pytest.approx(1.0)

    def test_zero_sensitivity_is_zero_for_all_alpha(self):
        for alpha in (1.0, 2.0, 17.5, 512.0):
            assert acct.rdp_of_gaussian(GM(0.0, 3.0), alpha) == 0.0

    def test_delta2_sigma4_alpha8(self):
        assert acct.rdp_of_gaussian(GM(2.0, 4.0), 8.0) == pytest.approx(1.0)

    def test_linear_in_alpha_and_ratio(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d, s, a = rng.uniform(0.1, 5), rng.uniform(0.1, 5), rng.uniform(1, 64)
            rho = acct.rdp_of_gaussian(GM(d, s), a)
            assert rho == pytest.approx(0.5 * a * d * d / (s * s), rel=1e-15)
            assert acct.rdp_of_gaussian(GM(d, s), 2 * a) == pytest.approx(2 * rho, rel=1e-15)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ConfigError):
            acct.rdp_of_gaussian(GM(1.0, 1.0), 0.5)


class TestGdp:
    def test_examples(self):
        assert acct.gdp_of_gaussian(GM(1.0, 2.0)) == pytest.approx(0.5)
        assert acct.gdp_of_gaussian(GM(0.0, 2.0)) == 0.0
        assert acct.gdp_of_gaussian(GM(3.7, 3.7)) == pytest.approx(1.0)

    def test_mu_times_sigma_is_sensitivity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d, s = rng.uniform(0, 4), rng.uniform(0.1, 4)
            assert acct.gdp_of_gaussian(GM(d, s)) * s == pytest.approx(d, abs=1e-12)


class TestCompose:
    def test_four_identical_steps_mu(self):
        state = acct.AccountantState()
        for _ in range(4):
            state.add_step(1.0, 2.0)
        assert acct.compose(state).mu_total == pytest.approx(1.0)

    def test_single_step_equals_single_values(self):
        state = acct.AccountantState(steps=[GM(1.5, 3.0)])
        budget = acct.compose(state)
        for alpha, rho in zip(budget.alpha_grid, budget.rho):
            assert rho == pytest.approx(acct.rdp_of_gaussian(GM(1.5, 3.0), alpha), rel=1e-15)
        assert budget.mu_total == pytest.approx(0.5)

    def test_two_steps_additive(self):
        state = acct.AccountantState(steps=[GM(1.0, 1.0), GM(1.0, 1.0)])
        budget = acct.compose(state)
        i = int(np.searchsorted(budget.alpha_grid, 2.0))
        assert budget.alpha_grid[i] == 2.0
        assert budget.rho[i] == pytest.approx(2.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        steps = [GM(rng.uniform(0.1, 2), rng.uniform(0.5, 5)) for _ in range(8)]
        a = acct.compose(acct.AccountantState(steps=list(steps)))
        order = rng.permutation(8)
        b = acct.compose(acct.AccountantState(steps=[steps[i] for i in order]))
        np.testing.assert_allclose(a.rho, b.rho, rtol=1e-15)
        assert a.mu_total == pytest.approx(b.mu_total, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            acct.compose(acct.AccountantState())


class TestEpsilonFromRdp:
    def test_zero_loss_degenerate(self):
        state = acct.AccountantState(steps=[GM(0.0, 1.0)])
        report = acct.epsilon_from_rdp(state, 1e-5)
        alpha_max = acct.ALPHA_GRID[-1]
        assert report.epsilon == pytest.approx(math.log(1e5) / (alpha_max - 1.0))
        assert report.alpha == alpha_max

    def test_against_dense_grid_brute_force(self):
        state = acct.AccountantState(steps=[GM(1.0, 10.0)])
        report = acct.epsilon_from_rdp(state, 1e-5)
        # oracle: brute force over a far denser alpha grid
        dense = np.linspace(1.0001, 512.0, 2_000_001)
        brute = np.min(0.5 * dense / 100.0 + math.log(1e5) / (dense - 1.0))
        assert report.epsilon >= brute - 1e-12  # grid minimum cannot beat dense minimum
        assert report.epsilon == pytest.approx(brute, rel=1e-3)

    def test_monotone_nonincreasing_in_sigma_and_delta(self):
        sigmas = [0.5, 1.0, 2.0, 4.0, 8.0, 32.0]
        eps = [
            acct.epsilon_from_rdp(acct.AccountantState(steps=[GM(1.0, s)]), 1e-5).epsilon
            for s in sigmas
        ]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        deltas = [1e-8, 1e-6, 1e-4, 1e-2]
        eps_d = [
            acct.epsilon_from_rdp(acct.AccountantState(steps=[GM(1.0, 2.0)]), d).epsilon
            for d in deltas
        ]
        assert all(a >= b for a, b in zip(eps_d, eps_d[1:]))

    def test_delta_out_of_range(self):
        state = acct.AccountantState(steps=[GM(1.0, 1.0)])
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                acct.epsilon_from_rdp(state, delta)


class TestSigmaForBudget:
    @staticmethod
    def _eps(mult, steps, delta):
        state = acct.AccountantState(steps=[GM(1.0, mult)] * steps)
        return acct.epsilon_from_rdp(state, delta).epsilon

    def test_roundtrip_tightness(self):
        for eps, delta, steps in [(1.0, 1e-5, 100), (0.2, 1e-3, 50), (5.0, 1e-6, 10)]:
            m = acct.sigma_for_budget(eps, delta, steps, clip=1.0)
            assert self._eps(m, steps, delta) <= eps
            assert self._eps(0.99 * m, steps, delta) > eps

    def test_clip_does_not_change_multiplier(self):
        a = acct.sigma_for_budget(1.0, 1e-5, 64, clip=1.0)
        b = acct.sigma_for_budget(1.0, 1e-5, 64, clip=7.3)
        assert a == pytest.approx(b, rel=1e-9)

    def test_zero_steps_invalid(self):
        with pytest.raises(ConfigError):
            acct.sigma_for_budget(1.0, 1e-5, 0, clip=1.0)

    def test_doubling_steps_never_decreases_sigma(self):
        prev = 0.0
        for steps in (1, 2, 4, 8, 16, 32, 64, 128):
            m = acct.sigma_for_budget(0.5, 1e-5, steps, clip=1.0)
            assert m >= prev - 1e-9
            prev = m

    def test_unattainable_budget_errors(self):
        # below the residual log(1/delta)/(alpha_max - 1) floor
        with pytest.raises(BudgetError):
            acct.sigma_for_budget(1e-4, 1e-40, 1, clip=1.0)


def test_alpha_grid_is_fixed_and_read_only():
    grid = acct.ALPHA_GRID
    assert grid[:2].tolist() == [1.5, 2.0] and grid[-3:].tolist() == [128.0, 256.0, 512.0]
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        grid[0] = 1.0


def test_report_csv(tmp_path):
    state = acct.AccountantState()
    for _ in range(5):
        state.add_step(1.0, 4.0)
    path = tmp_path / "acct.csv"
    acct.write_report(state, 1e-5, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert float(rows[-1]["mu_total"]) == pytest.approx(math.sqrt(5) * 0.25)
    eps_direct = acct.epsilon_from_rdp(state, 1e-5).epsilon
    assert float(rows[-1]["cumulative_epsilon"]) == pytest.approx(eps_direct, rel=1e-12)
    eps_col = [float(r["cumulative_epsilon"]) for r in rows]
    assert all(a <= b for a, b in zip(eps_col, eps_col[1:]))


def test_running_sum_is_bit_identical_to_resumming_every_step(tmp_path):
    # the oracle re-composes all steps from scratch, as the accountant once did
    rng = np.random.default_rng(22)
    steps = [GM(rng.uniform(0.1, 2.0), rng.uniform(0.5, 5.0)) for _ in range(40)]
    grid = acct.ALPHA_GRID
    state = acct.AccountantState()
    expected = []
    for k, step in enumerate(steps, start=1):
        state.add_step(step.sensitivity, step.sigma)
        ratio_sq = sum((s.sensitivity / s.sigma) ** 2 for s in steps[:k])
        curve = 0.5 * grid * ratio_sq + math.log(1.0 / 1e-5) / (grid - 1.0)
        expected.append(float(curve.min()))
        assert acct.epsilon_from_rdp(state, 1e-5).epsilon == expected[-1]
        assert acct.compose(state).mu_total == math.sqrt(ratio_sq)
    rebuilt = acct.AccountantState(steps=list(steps))
    assert acct.compose(rebuilt).rho.tolist() == acct.compose(state).rho.tolist()
    path = tmp_path / "acct.csv"
    acct.write_report(state, 1e-5, path)
    with open(path) as fh:
        assert [float(r["cumulative_epsilon"]) for r in csv.DictReader(fh)] == expected
