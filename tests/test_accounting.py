"""The accountant: closed forms through its reports, composition and the budget inverter."""

import csv
import io
import math

import numpy as np
import pytest

from plislab import accounting as acct
from plislab.errors import BudgetError, ConfigError

GM = acct.GaussianMechanismParams


def _rows(tmp_path, steps, delta=1e-5):
    """write_report's rows, as floats, for a state of (sensitivity, sigma) steps."""
    path = tmp_path / "acct.csv"
    acct.write_report(acct.AccountantState(steps=[GM(d, s) for d, s in steps]), delta, path)
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _grid_alpha(ratio_sq, delta):
    """Oracle: the grid order minimising (alpha/2) * ratio_sq + log(1/delta)/(alpha-1)."""
    grid = acct.ALPHA_GRID
    return grid[np.argmin(0.5 * grid * ratio_sq + math.log(1.0 / delta) / (grid - 1.0))]


# eps(alpha) = (alpha/2) r + L/(alpha-1) has its minimum at alpha = 1 + sqrt(2L/r),
# so L = r (alpha-1)^2 / 2 puts the argmin on a chosen grid order
class TestRdpClosedForm:
    def test_unit_example(self, tmp_path):
        (row,) = _rows(tmp_path, [(1.0, 1.0)], delta=math.exp(-0.5))
        assert row["rho_at_argmin_alpha"] == 1.0  # (2/2) * 1^2 at alpha = 2
        assert row["cumulative_epsilon"] == pytest.approx(1.5, rel=1e-15)

    def test_zero_sensitivity_is_zero_for_all_alpha(self, tmp_path):
        for sigma in (0.5, 2.0, 8.0, 32.0):  # moves the composed argmin alpha
            first, zero = _rows(tmp_path, [(1.0, sigma), (0.0, 3.0)])
            assert zero["rho_at_argmin_alpha"] == 0.0
            assert zero["cumulative_epsilon"] == first["cumulative_epsilon"]
            assert zero["mu_total"] == first["mu_total"]

    def test_delta2_sigma4_alpha8(self, tmp_path):
        (row,) = _rows(tmp_path, [(2.0, 4.0)], delta=math.exp(-6.125))
        assert row["rho_at_argmin_alpha"] == 1.0  # (8/2) * (2/4)^2
        assert row["cumulative_epsilon"] == pytest.approx(1.0 + 6.125 / 7.0, rel=1e-15)

    def test_linear_in_alpha_and_ratio(self, tmp_path):
        rng = np.random.default_rng(1)
        steps = [(rng.uniform(0.1, 5), rng.uniform(0.1, 5)) for _ in range(50)]
        ratio_sq = 0.0
        for (d, s), row in zip(steps, _rows(tmp_path, steps)):
            ratio_sq += (d / s) ** 2
            alpha = _grid_alpha(ratio_sq, 1e-5)
            assert row["rho_at_argmin_alpha"] == pytest.approx(0.5 * alpha * d * d / (s * s),
                                                               rel=1e-15)


class TestGdp:
    def test_examples(self, tmp_path):
        for step, mu in [((1.0, 2.0), 0.5), ((0.0, 2.0), 0.0), ((3.7, 3.7), 1.0)]:
            assert _rows(tmp_path, [step])[0]["mu_total"] == pytest.approx(mu)

    def test_mu_times_sigma_is_sensitivity(self, tmp_path):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d, s = rng.uniform(0, 4), rng.uniform(0.1, 4)
            assert _rows(tmp_path, [(d, s)])[0]["mu_total"] * s == pytest.approx(d, abs=1e-12)


class TestCompose:
    def test_four_identical_steps_mu(self, tmp_path):
        assert _rows(tmp_path, [(1.0, 2.0)] * 4)[-1]["mu_total"] == 1.0

    def test_single_step_equals_single_values(self, tmp_path):
        (row,) = _rows(tmp_path, [(1.5, 3.0)])
        grid = acct.ALPHA_GRID
        closed = np.min(0.5 * grid * 0.25 + math.log(1e5) / (grid - 1.0))
        assert row["cumulative_epsilon"] == pytest.approx(closed, rel=1e-15)
        assert row["rho_at_argmin_alpha"] == 0.5 * _grid_alpha(0.25, 1e-5) * 0.25
        assert row["mu_total"] == 0.5

    def test_two_steps_additive(self):
        # two (1, 1) steps compose to rho(alpha) = alpha, whose argmin at delta = 1/e is 2
        state = acct.AccountantState(steps=[GM(1.0, 1.0), GM(1.0, 1.0)])
        report = acct.epsilon_from_rdp(state, math.exp(-1.0))
        assert report.alpha == 2.0
        assert report.epsilon == pytest.approx(2.0 + 1.0, rel=1e-15)

    def test_permutation_invariant(self, tmp_path):
        rng = np.random.default_rng(3)
        steps = [GM(rng.uniform(0.1, 2), rng.uniform(0.5, 5)) for _ in range(8)]
        shuffled = [steps[i] for i in rng.permutation(8)]
        a = acct.epsilon_from_rdp(acct.AccountantState(steps=list(steps)), 1e-5)
        b = acct.epsilon_from_rdp(acct.AccountantState(steps=shuffled), 1e-5)
        assert a.epsilon == pytest.approx(b.epsilon, rel=1e-15)
        assert a.alpha == b.alpha
        mu_a, mu_b = (_rows(tmp_path, [(g.sensitivity, g.sigma) for g in order])[-1]["mu_total"]
                      for order in (steps, shuffled))
        assert mu_a == pytest.approx(mu_b, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="no steps"):
            acct.epsilon_from_rdp(acct.AccountantState(), 1e-5)


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
            m = acct.sigma_for_budget(eps, delta, steps)
            assert self._eps(m, steps, delta) <= eps
            assert self._eps(0.99 * m, steps, delta) > eps

    def test_zero_steps_invalid(self):
        with pytest.raises(ConfigError):
            acct.sigma_for_budget(1.0, 1e-5, 0)

    def test_doubling_steps_never_decreases_sigma(self):
        prev = 0.0
        for steps in (1, 2, 4, 8, 16, 32, 64, 128):
            m = acct.sigma_for_budget(0.5, 1e-5, steps)
            assert m >= prev - 1e-9
            prev = m

    @staticmethod
    def _bisection(epsilon, delta, steps):
        """The search with its alpha-grid terms built on every step, as it was."""
        def eps_at(mult):
            rho = 0.5 * acct.ALPHA_GRID * steps / (mult * mult)
            return float(np.min(rho + math.log(1.0 / delta) / (acct.ALPHA_GRID - 1.0)))

        lo, hi = 1e-4, 1e8
        if eps_at(lo) <= epsilon:
            return lo
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if eps_at(mid) <= epsilon:
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("steps", [1, 7, 20, 1008, 100_000])
    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-9])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 1.0, 3.0, 50.0])
    def test_sigma_has_the_bits_of_the_loop_that_rebuilt_its_terms(self, epsilon, delta, steps):
        want = self._bisection(epsilon, delta, steps)
        assert acct.sigma_for_budget(epsilon, delta, steps) == want

    def test_unattainable_budget_errors(self):
        # below the residual log(1/delta)/(alpha_max - 1) floor
        with pytest.raises(BudgetError):
            acct.sigma_for_budget(1e-4, 1e-40, 1)


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
    expected, expected_mu = [], []
    for k, step in enumerate(steps, start=1):
        state.add_step(step.sensitivity, step.sigma)
        ratio_sq = sum((s.sensitivity / s.sigma) ** 2 for s in steps[:k])
        curve = 0.5 * grid * ratio_sq + math.log(1.0 / 1e-5) / (grid - 1.0)
        expected.append(float(curve.min()))
        expected_mu.append(math.sqrt(ratio_sq))
        assert acct.epsilon_from_rdp(state, 1e-5).epsilon == expected[-1]
    rebuilt = acct.AccountantState(steps=list(steps))
    assert rebuilt.ratio_sq == state.ratio_sq
    assert acct.epsilon_from_rdp(rebuilt, 1e-5) == acct.epsilon_from_rdp(state, 1e-5)
    path = tmp_path / "acct.csv"
    acct.write_report(state, 1e-5, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["cumulative_epsilon"]) for r in rows] == expected
    assert [float(r["mu_total"]) for r in rows] == expected_mu


def test_report_bytes_are_the_csv_writer_rendering_of_its_cells(tmp_path):
    """300 steps (two full 128-step blocks and a partial one) cycling through
    four (sensitivity, sigma) pairs, two of them apart only in a zero's sign:
    the file's bytes equal csv.writer's rendering of the same cells."""
    pairs = [(1.0, 1.3), (0.5, 0.65), (0.0, 2.0), (-0.0, 2.0)]
    state, cells = acct.AccountantState(), [
        ["step", "delta_step", "sigma_step", "rho_at_argmin_alpha", "cumulative_epsilon", "mu_total"]
    ]
    for k in range(300):
        state.add_step(*pairs[k % len(pairs)])
        step, report = state.steps[-1], acct.epsilon_from_rdp(state, 1e-5)
        rho = 0.5 * report.alpha * (step.sensitivity / step.sigma) ** 2
        cells.append([k, repr(step.sensitivity), repr(step.sigma), repr(rho),
                      repr(report.epsilon), repr(math.sqrt(state.ratio_sq))])
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(cells)
    path = tmp_path / "acct.csv"
    acct.write_report(state, 1e-5, path)
    assert path.read_bytes() == expected.getvalue().encode()
    assert b",-0.0,2.0," in path.read_bytes()


def test_report_rows_are_the_per_step_compositions_across_blocks(tmp_path):
    # 300 steps: two full blocks of the report and a partial one
    rng = np.random.default_rng(23)
    state, expected = acct.AccountantState(), []
    for k in range(300):
        state.add_step(rng.uniform(0.1, 2.0), rng.uniform(0.5, 5.0))
        step, report = state.steps[-1], acct.epsilon_from_rdp(state, 1e-5)
        rho = 0.5 * report.alpha * (step.sensitivity / step.sigma) ** 2
        expected.append([str(k), repr(step.sensitivity), repr(step.sigma), repr(rho),
                         repr(report.epsilon), repr(math.sqrt(state.ratio_sq))])
    path = tmp_path / "acct.csv"
    acct.write_report(state, 1e-5, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == expected
