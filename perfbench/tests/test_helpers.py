"""Tests of the benchmark's own helpers.  Run: python -m pytest perfbench/tests"""

import importlib
import json
import os
import re
import time

import numpy as np
import pytest

from perfbench import run, spans, stats, workloads
from perfbench.spans import Span, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 7.0, 0, "r"),
    ]
    assert self_times(tree) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_spans_nest_and_sum_to_duration():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0), ("leaf", 2)
    ]
    outer = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(outer.end - outer.start, abs=1e-12)
    assert all(t >= 0 for t in self_times(tracer.spans))


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summarize_reports_tail_only_when_it_qualifies():
    assert set(stats.summarize(np.arange(10.0))) == {"min", "median", "n"}
    summary = stats.summarize(np.arange(20.0))
    assert summary["n"] == 20 and summary["median"] == 9.5 and summary["min"] == 0.0
    assert "p50" in summary


def test_spearman_uses_average_ranks_for_ties():
    assert list(stats.average_ranks([3.0, 1.0, 3.0, 2.0])) == [3.5, 1.0, 3.5, 2.0]
    assert stats.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert stats.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # tied case: Pearson correlation of the average ranks
    a, b = [1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0]
    expected = np.corrcoef(stats.average_ranks(a), stats.average_ranks(b))[0, 1]
    assert stats.spearman(a, b) == pytest.approx(expected)


def test_metric_names_are_valid_and_unique():
    bench = _benchmark_json()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOAD_NAMES)


class _Probe(workloads.Workload):
    """Records whether any plislab function it can see is a tracing wrapper."""

    name = "probe"
    seen: list[bool] = []

    def setup(self, tracer=None):
        pass

    def run(self, tracer=None):
        wrapped = any(
            hasattr(getattr(importlib.import_module(module), attr), "__wrapped__")
            for modules, attr, _, _ in spans._TARGETS
            for module in modules
        )
        _Probe.seen.append(wrapped)
        return {"stages": {}}

    def check(self, out):
        return []


def _measure_probe(monkeypatch, tmp_path, traced):
    _Probe.seen = []
    monkeypatch.setitem(workloads.WORKLOADS, "probe", _Probe)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    return run.measure("probe", 0, 0.0, traced, str(tmp_path))


def test_untraced_run_installs_no_wrappers(monkeypatch, tmp_path):
    report, result = _measure_probe(monkeypatch, tmp_path, traced=False)
    assert len(_Probe.seen) >= run.MIN_PASSES and not any(_Probe.seen)
    assert result["correct"] and result["failed"] == 0
    bench = _benchmark_json()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    assert report["env"]["seed"] == 0


def test_traced_run_wraps_one_pass_then_restores(monkeypatch, tmp_path):
    report, result = _measure_probe(monkeypatch, tmp_path, traced=True)
    assert _Probe.seen[-1] and not any(_Probe.seen[:-1])
    assert not any(
        hasattr(getattr(importlib.import_module(module), attr), "__wrapped__")
        for modules, attr, _, _ in spans._TARGETS
        for module in modules
    )
    bench = _benchmark_json()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["per_layer"])
    assert os.path.isfile(os.path.join(tmp_path, os.path.basename(report["spans_file"])))


def test_setup_sample_repeats_short_setups(monkeypatch):
    calls = []

    class Quick(_Probe):
        def setup(self, tracer=None):
            calls.append(time.perf_counter())

    monkeypatch.setattr(run, "SETUP_SAMPLE_S", 0.005)
    t0 = time.perf_counter()
    per_setup = run.Runner(Quick(0, "")).setup_sample()
    elapsed = time.perf_counter() - t0
    assert len(calls) > 1
    assert per_setup * len(calls) == pytest.approx(elapsed, rel=0.5)
    assert per_setup * len(calls) >= 0.005
