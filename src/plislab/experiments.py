"""The paper's two experiments, each gated over a seed list fixed in advance.

Every setting below is a module constant.  They were fixed before the
first sweep ran and are not changed after one, whatever its outcome.
The seed lists are constants for the same reason, and not parameters: a
seed list chosen at run time could be chosen after its results are
seen, and a gate over such a list shows nothing.  Both experiments run
on the package's batched paths (dpsgd.train, plis.plis_reports,
plis.fim_subject, plis.rank_subjects).

DP linear regression: PLIS singles out the informative attribute the way
FIL does.  The setting is the one the earlier DP-regression prototypes
converged on:

  * data: make_regression with n = 500, d = 16, informative column {9},
    noise_sd 0.1;
  * training: a linear model without bias, full batch, 200 epochs,
    lr 0.2, clip 0.5, from zero parameters through train(initial=),
    private to a target (epsilon, delta) = (0.2, 1e-3);
  * PLIS (direct route) and FIL at the noise deviation sigma_used * clip;
  * seeds 0..9, with data seed = train seed = s;
  * a seed passes when column 9's mean |PLIS| and its mean FIL each
    exceed the largest other column's, and Spearman(mean |PLIS|,
    mean FIL) >= 0.9;
  * gate: at least 8 of the 10 seeds pass.

CNN out-of-distribution ranking: the injected OOD images land in the top
decile by PLIS norm.  The setting is the earlier CNN prototype's:

  * data and model: 512 glyphs (seed s) plus 5 OOD images (inject seed
    s + 1000), models.cnn_spec at 28x28 with 2 classes;
  * training: non-private, 12 epochs, lr 0.1, batch 64, train seed s;
    ranked by plis.rank_subjects without sigma or clip;
  * seeds 0..9;
  * a run is trained when its last epoch's mean loss is below
    0.5 ln 2: a collapsed run predicts about 1/2 for every class, the
    loss sits near ln 2 and the OOD images' PLIS is exactly 0.  A
    trained run passes when all five OOD positions are below n // 10
    (51 of 517);
  * gate: at least 5 of the 10 runs trained, and at least 80% of the
    trained runs pass.  Collapsed runs are reported as a count.

`plislab experiment dp-regression|ood-rank` prints one row per seed and
a verdict line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import datasets, dpsgd, models, plis

DP_N, DP_D, DP_INFORMATIVE, DP_NOISE_SD = 500, 16, 9, 0.1
DP_EPOCHS, DP_LR, DP_CLIP = 200, 0.2, 0.5
DP_EPSILON, DP_DELTA = 0.2, 1e-3
DP_SEEDS = tuple(range(10))
DP_MIN_SPEARMAN = 0.9
DP_MIN_PASSING = 8  # seeds

OOD_GLYPHS, OOD_COUNT, OOD_INJECT_OFFSET = 512, 5, 1000
OOD_EPOCHS, OOD_LR, OOD_BATCH = 12, 0.1, 64
OOD_SEEDS = tuple(range(10))
OOD_TRAINED_LOSS = 0.5 * math.log(2.0)
OOD_MIN_TRAINED = 5  # runs
OOD_MIN_PASSING = Fraction(4, 5)  # of the trained runs


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation: the Pearson correlation of the average ranks."""
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
    return float(ra @ rb) / denom if denom > 0 else math.nan


def informative_ratio(values: np.ndarray) -> float:
    """The informative column's value over the largest other column's."""
    return float(values[DP_INFORMATIVE] / np.delete(values, DP_INFORMATIVE).max())


@dataclass
class DpRegressionRun:
    data: datasets.TabularDataset
    params: models.ParamSet
    sigma: float  # noise deviation sigma_used * clip
    reports: list[plis.PlisReport]
    fims: list[plis.FimReport]

    @cached_property
    def plis_abs(self) -> np.ndarray:
        """Mean |PLIS| per attribute."""
        return np.mean([np.abs(r.plis) for r in self.reports], axis=0)

    @cached_property
    def fil_attr(self) -> np.ndarray:
        """Mean FIL per attribute."""
        return np.mean([f.fil_per_attribute for f in self.fims], axis=0)

    @property
    def rho(self) -> float:
        return spearman(self.plis_abs, self.fil_attr)

    @property
    def passed(self) -> bool:
        return (
            informative_ratio(self.plis_abs) > 1
            and informative_ratio(self.fil_attr) > 1
            and self.rho >= DP_MIN_SPEARMAN
        )


def dp_regression(seed: int) -> DpRegressionRun:
    """One seed of the DP linear-regression experiment."""
    data = datasets.make_regression(DP_N, DP_D, {DP_INFORMATIVE}, DP_NOISE_SD, seed)
    subjects = datasets.tabular_subjects(data.X, data.y)
    spec = models.ModelSpec((models.Linear(DP_D, 1, bias=False),), models.MSE)
    config = dpsgd.DpSgdConfig(
        learning_rate=DP_LR, epochs=DP_EPOCHS, batch_size=DP_N, seed=seed, private=True,
        clip=DP_CLIP, target_epsilon=DP_EPSILON, target_delta=DP_DELTA,
    )
    zero = models.ParamSet(np.zeros(DP_D), models.layout_for(spec))
    trace = dpsgd.train(spec, [(s.x, s.y) for s in subjects], config, initial=zero)
    sigma = trace.sigma_used * DP_CLIP
    reports = plis.plis_reports(spec, trace.params, subjects, sigma=sigma)
    fims = [plis.fim_subject(spec, trace.params, s, sigma=sigma) for s in subjects]
    return DpRegressionRun(data, trace.params, sigma, reports, fims)


@dataclass
class OodRankRun:
    final_loss: float  # mean training loss of the last epoch
    params: models.ParamSet
    subjects: list[datasets.SubjectRecord]
    ood_ids: list[str]
    ranked: list[plis.PlisReport]

    @property
    def ood_positions(self) -> list[int]:
        return [i for i, r in enumerate(self.ranked) if r.subject_id in self.ood_ids]

    @property
    def trained(self) -> bool:
        return self.final_loss < OOD_TRAINED_LOSS

    @property
    def passed(self) -> bool:
        return self.trained and max(self.ood_positions) < len(self.ranked) // 10


def ood_rank(seed: int) -> OodRankRun:
    """One seed of the CNN OOD-ranking experiment."""
    glyphs = datasets.make_glyph_images(OOD_GLYPHS, seed)
    data = datasets.inject_ood(glyphs, OOD_COUNT, seed + OOD_INJECT_OFFSET)
    subjects = datasets.image_subjects(data)
    spec = models.cnn_spec(*data.images.shape[1:], data.classes)
    config = dpsgd.DpSgdConfig(
        learning_rate=OOD_LR, epochs=OOD_EPOCHS, batch_size=OOD_BATCH, seed=seed
    )
    trace = dpsgd.train(spec, [(s.x, s.y) for s in subjects], config)
    ood_ids = [s.id for s, flag in zip(subjects, data.ood_flags) if flag]
    ranked = plis.rank_subjects(subjects, spec, trace.params)
    return OodRankRun(trace.per_epoch_loss[-1], trace.params, subjects, ood_ids, ranked)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def run_dp_regression() -> bool:
    """Every seed of DP_SEEDS: print a header, one row per seed and the
    verdict line; True when the gate holds."""
    print("seed  ratio_plis  ratio_fil  spearman  result", flush=True)
    passing = 0
    for seed in DP_SEEDS:
        run = dp_regression(seed)
        passing += run.passed
        print(
            f"{seed:4d}  {informative_ratio(run.plis_abs):10.6f}  "
            f"{informative_ratio(run.fil_attr):9.6f}  {run.rho:8.6f}  "
            f"{'pass' if run.passed else 'fail'}",
            flush=True,
        )
    ok = passing >= DP_MIN_PASSING
    print(
        f"verdict: {passing} of {len(DP_SEEDS)} seeds pass "
        f"(gate: at least {DP_MIN_PASSING}): {_verdict(ok)}"
    )
    return ok


def run_ood_rank() -> bool:
    """Every seed of OOD_SEEDS: print a header, one row per seed and the
    verdict line; True when the gate holds."""
    print("seed  final_loss  result     ood_positions", flush=True)
    trained = passing = 0
    for seed in OOD_SEEDS:
        run = ood_rank(seed)
        trained += run.trained
        passing += run.passed
        result = "pass" if run.passed else "fail" if run.trained else "collapsed"
        positions = ",".join(str(p) for p in run.ood_positions)
        print(f"{seed:4d}  {run.final_loss:10.6f}  {result:9}  {positions}", flush=True)
    needed = math.ceil(OOD_MIN_PASSING * trained)
    ok = trained >= OOD_MIN_TRAINED and passing >= needed
    print(
        f"verdict: {trained} of {len(OOD_SEEDS)} runs trained "
        f"({len(OOD_SEEDS) - trained} collapsed), {passing} of {trained} trained runs pass "
        f"(gate: at least {OOD_MIN_TRAINED} trained and {needed} of them pass): "
        f"{_verdict(ok)}"
    )
    return ok


SWEEPS = {"dp-regression": run_dp_regression, "ood-rank": run_ood_rank}
