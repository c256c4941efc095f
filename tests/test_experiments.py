"""The paper experiments on seed 0 at the paper's size, against independent oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from plislab import cli, experiments, models, plis


@pytest.fixture(scope="module")
def dp_run():
    return experiments.dp_regression(0)


@pytest.fixture(scope="module")
def ood_run():
    return experiments.ood_rank(0)


def _rel_dev(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("i", [0, 250, 499])
def test_dp_regression_matches_the_linear_closed_forms(dp_run, i):
    """Loss (w.x - y)^2 gives g = 2 r x with r = w.x - y, so PL = 4 r^2 |x|^2 / s^2,
    PLIS = (8 r / s^2)(|x|^2 w + r x), J = 2 (x w^T + r I) and FIM = J^T J / s^2."""
    w, s2 = dp_run.params.flat, dp_run.sigma**2
    x, y = dp_run.data.X[i], dp_run.data.y[i]
    r, xx = float(w @ x - y), float(x @ x)
    report, fim = dp_run.reports[i], dp_run.fims[i]
    assert report.subject_id == fim.subject_id == f"row{i:05d}"
    assert _rel_dev(report.pl, 4.0 * r * r * xx / s2) <= 1e-8
    assert _rel_dev(report.plis, 8.0 * r / s2 * (xx * w + r * x)) <= 1e-8
    jac = 2.0 * (np.outer(x, w) + r * np.eye(experiments.DP_D))
    assert _rel_dev(fim.fim, jac.T @ jac / s2) <= 1e-8


def test_dp_regression_aggregates_every_subject(dp_run):
    assert len(dp_run.reports) == len(dp_run.fims) == experiments.DP_N
    assert np.array_equal(dp_run.plis_abs, np.mean([np.abs(r.plis) for r in dp_run.reports], 0))
    assert dp_run.passed == (
        experiments.informative_ratio(dp_run.plis_abs) > 1
        and experiments.informative_ratio(dp_run.fil_attr) > 1
        and dp_run.rho >= 0.9
    )


def _brute_force_ranks(values):
    """Rank of v: 1 + #(values < v) + (#(values == v) - 1) / 2."""
    return np.array(
        [1 + sum(u < v for u in values) + (sum(u == v for u in values) - 1) / 2 for v in values]
    )


def test_spearman_matches_brute_force_ranks_with_ties():
    a = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    b = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0, 2.0, 8.0, 4.0]
    assert np.array_equal(experiments.average_ranks(a), _brute_force_ranks(a))
    assert np.array_equal(experiments.average_ranks(b), _brute_force_ranks(b))
    expected = np.corrcoef(_brute_force_ranks(a), _brute_force_ranks(b))[0, 1]
    assert experiments.spearman(a, b) == pytest.approx(expected, rel=1e-12)
    assert experiments.spearman(a, a) == pytest.approx(1.0, rel=1e-15)
    assert math.isnan(experiments.spearman(a, [1.0] * len(a)))


def test_ood_ranking_is_a_sorted_permutation(ood_run):
    ids = [r.subject_id for r in ood_run.ranked]
    assert sorted(ids) == sorted(s.id for s in ood_run.subjects)
    keys = [(-r.subject_plis_norm, r.subject_id) for r in ood_run.ranked]
    assert keys == sorted(keys)
    assert len(ood_run.subjects) == 517 and len(ood_run.ood_ids) == 5


def test_ood_plis_routes_agree_on_the_ood_subjects(ood_run):
    spec = models.cnn_spec(28, 28, 2)
    ood = [s for s in ood_run.subjects if s.id in ood_run.ood_ids]
    direct = {r.subject_id: r for r in ood_run.ranked}
    expanded = plis.plis_reports(spec, ood_run.params, ood, expanded=True)
    for subject, other in zip(ood, expanded):
        assert plis.deviation(direct[subject.id], other, subject.x) <= 1e-8


def test_ood_trained_flag_follows_the_loss_rule(ood_run):
    assert ood_run.trained == (ood_run.final_loss < 0.5 * math.log(2.0))
    assert ood_run.passed == (ood_run.trained and max(ood_run.ood_positions) < 517 // 10)


def _cli_stdout(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


def test_dp_regression_command_is_deterministic_and_exits_by_verdict(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "DP_SEEDS", (0,))
    first = _cli_stdout(capsys, "experiment", "dp-regression")
    second = _cli_stdout(capsys, "experiment", "dp-regression")
    assert first == second
    code, out = first
    lines = out.splitlines()
    assert len(lines) == 3 and lines[1].split()[0] == "0"
    assert code == (0 if lines[-1].endswith(": PASS") else 2)


def test_ood_rank_command_exits_by_verdict(monkeypatch, capsys, ood_run):
    monkeypatch.setattr(experiments, "OOD_SEEDS", (0,))
    monkeypatch.setattr(experiments, "ood_rank", lambda seed: ood_run)
    first = _cli_stdout(capsys, "experiment", "ood-rank")
    assert first == _cli_stdout(capsys, "experiment", "ood-rank")
    code, out = first
    lines = out.splitlines()
    assert lines[1].split()[3] == ",".join(str(p) for p in ood_run.ood_positions)
    assert code == (0 if lines[-1].endswith(": PASS") else 2)


@pytest.mark.parametrize("passing, ok", [(8, True), (7, False)])
def test_dp_gate_needs_eight_of_ten(monkeypatch, capsys, dp_run, passing, ok):
    def fake(seed):
        return SimpleNamespace(
            plis_abs=dp_run.plis_abs, fil_attr=dp_run.fil_attr, rho=dp_run.rho,
            passed=seed < passing,
        )

    monkeypatch.setattr(experiments, "DP_SEEDS", tuple(range(10)))
    monkeypatch.setattr(experiments, "dp_regression", fake)
    code, out = _cli_stdout(capsys, "experiment", "dp-regression")
    assert code == (0 if ok else 2)
    assert out.splitlines()[-1].startswith(f"verdict: {passing} of 10 seeds pass")


@pytest.mark.parametrize("trained, passing, ok", [(5, 4, True), (4, 4, False), (10, 7, False)])
def test_ood_gate_needs_half_trained_and_four_fifths_of_those(
    monkeypatch, capsys, trained, passing, ok
):
    def fake(seed):
        loss = 0.1 if seed < trained else 0.69
        return SimpleNamespace(
            final_loss=loss, trained=seed < trained, passed=seed < passing, ood_positions=[0]
        )

    monkeypatch.setattr(experiments, "OOD_SEEDS", tuple(range(10)))
    monkeypatch.setattr(experiments, "ood_rank", fake)
    code, out = _cli_stdout(capsys, "experiment", "ood-rank")
    assert code == (0 if ok else 2)
    assert out.splitlines()[-1].startswith(
        f"verdict: {trained} of 10 runs trained ({10 - trained} collapsed), "
        f"{passing} of {trained} trained runs pass"
    )


def test_experiment_takes_no_flags():
    assert cli.run(["experiment", "dp-regression", "--seeds", "0"]) == 1
    assert cli.run(["experiment", "nope"]) == 1
