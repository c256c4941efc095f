"""In-memory spans around plislab's public functions, installed only for a traced run.

Each wrapped function is replaced on the module where its caller looks it
up (``plis.backward``, ``dpsgd.epsilon_from_rdp``, ...), so calls made
inside plislab are timed without changing its source.  A span records its
name, start, end, parent span and the workload-run id; spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

CLI_COMMANDS = ("gen-data", "train", "analyze-plis", "analyze-fil", "rank")

# Every timed layer function, in report order.  Each gets `<name>.calls`
# and `<name>.self_ms`.  The `cli.*` spans are opened by the benchmark
# around its own `cli.run` calls; the rest come from the wrappers below.
LAYER_FUNCTIONS = (
    "autodiff.backward",
    "autodiff.backward_cg",
    "models.attach_sample",
    "models.per_sample_loss_and_grad",
    "dpsgd.dp_sgd_step",
    "dpsgd.clip_differentiable",
    "accounting.epsilon_from_rdp",
    "accounting.sigma_for_budget",
    "accounting.write_report",
    "plis.plis_direct",
    "plis.plis_expanded",
    "plis.rank_subjects",
    "plis.input_jacobian",
    "plis.spectral_norm_sq",
    "plis.fim_subject",
    "attack.observe_gradient",
    "attack.reconstruct",
    "datasets.write_plds",
    "datasets.save_regression_csv",
    "datasets.load_images",
    "datasets.load_regression_csv",
    "rng.gaussians",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

# Counts read at the same boundaries, with their units.
LAYER_COUNTS = {
    "autodiff.nodes_per_loss_graph": "nodes",
    "autodiff.nodes_per_plis_graph": "nodes",
    "accounting.steps_composed": "count",
    "plis.jacobian_backward_passes": "count",
    "attack.iterations": "count",
    "attack.restarts_discarded_frac": "fraction",
    "datasets.bytes_read": "bytes",
    "datasets.bytes_written": "bytes",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    run_id: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _backward_name(args, kwargs) -> str:
    create_graph = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
    return "autodiff.backward_cg" if create_graph else "autodiff.backward"


class Tracer:
    """Collects spans and counts; install() patches plislab, uninstall() restores it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.graph_sizes: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._last_sample = None

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_names, attr, name, hook in _TARGETS:
            for module_name in module_names:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reporting --------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time and counts, for every name in the fixed lists."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self_times(self.spans)):
            calls[s.name] += 1
            self_s[s.name] += own
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (1e3 * self_s[name], "ms")
        counts = dict(self.counts)
        counts["plis.jacobian_backward_passes"] = sum(
            1
            for s in self.spans
            if s.name.startswith("autodiff.backward")
            and s.parent is not None
            and self.spans[s.parent].name == "plis.input_jacobian"
        )
        restarts = counts.pop("attack.restarts", 0)
        discarded = counts.pop("attack.restarts_discarded", 0)
        counts["attack.restarts_discarded_frac"] = discarded / restarts if restarts else 0.0
        for key, sizes in self.graph_sizes.items():
            counts[key] = float(np.median(sizes))
        for name, unit in LAYER_COUNTS.items():
            out[name] = (counts.get(name, 0), unit)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self_times(self.spans))):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": s.run_id,
                    "self_s": own,
                }
                fh.write(json.dumps(record) + "\n")


def span_or_null(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise a context that records nothing."""
    return nullcontext() if tracer is None else tracer.span(name)


# -- hooks: counts read from a wrapped call's arguments or result -----------


def _after_attach(tracer: Tracer, args, sample) -> None:
    tracer._last_sample = sample
    tracer.graph_sizes["autodiff.nodes_per_loss_graph"].append(len(sample.graph.nodes))


def _after_plis(tracer: Tracer, args, report) -> None:
    # the subject's graph after the create-graph pass has appended its nodes
    tracer.graph_sizes["autodiff.nodes_per_plis_graph"].append(
        len(tracer._last_sample.graph.nodes)
    )


def _after_epsilon(tracer: Tracer, args, report) -> None:
    tracer.counts["accounting.steps_composed"] += len(args[0].steps)


def _after_reconstruct(tracer: Tracer, args, result) -> None:
    tracer.counts["attack.iterations"] += sum(len(t) for t in result.traces)
    tracer.counts["attack.restarts"] += len(result.traces)
    tracer.counts["attack.restarts_discarded"] += sum(1 for t in result.traces if not t)


def _after_read(tracer: Tracer, args, result) -> None:
    tracer.counts["datasets.bytes_read"] += _path_size(args[0])


def _after_write(tracer: Tracer, args, result) -> None:
    tracer.counts["datasets.bytes_written"] += _path_size(args[1])


_P = "plislab."
# (modules whose attribute is looked up by a caller, attribute, span name, hook)
_TARGETS = (
    ((_P + "autodiff", _P + "plis", _P + "attack"), "backward", _backward_name, None),
    ((_P + "models", _P + "plis", _P + "attack"), "attach_sample", "models.attach_sample", _after_attach),
    ((_P + "dpsgd",), "per_sample_loss_and_grad", "models.per_sample_loss_and_grad", None),
    ((_P + "dpsgd",), "dp_sgd_step", "dpsgd.dp_sgd_step", None),
    ((_P + "dpsgd", _P + "plis", _P + "attack"), "clip_differentiable", "dpsgd.clip_differentiable", None),
    ((_P + "dpsgd", _P + "accounting"), "epsilon_from_rdp", "accounting.epsilon_from_rdp", _after_epsilon),
    ((_P + "dpsgd", _P + "accounting"), "sigma_for_budget", "accounting.sigma_for_budget", None),
    ((_P + "accounting",), "write_report", "accounting.write_report", None),
    ((_P + "plis",), "plis_direct", "plis.plis_direct", _after_plis),
    ((_P + "plis",), "plis_expanded", "plis.plis_expanded", _after_plis),
    ((_P + "plis",), "rank_subjects", "plis.rank_subjects", None),
    ((_P + "plis",), "input_jacobian", "plis.input_jacobian", None),
    ((_P + "plis",), "spectral_norm_sq", "plis.spectral_norm_sq", None),
    ((_P + "plis",), "fim_subject", "plis.fim_subject", None),
    ((_P + "attack",), "observe_gradient", "attack.observe_gradient", None),
    ((_P + "attack",), "reconstruct", "attack.reconstruct", _after_reconstruct),
    ((_P + "datasets",), "write_plds", "datasets.write_plds", _after_write),
    ((_P + "datasets",), "save_regression_csv", "datasets.save_regression_csv", _after_write),
    ((_P + "datasets",), "load_images", "datasets.load_images", _after_read),
    ((_P + "datasets",), "load_regression_csv", "datasets.load_regression_csv", _after_read),
    ((_P + "rng",), "gaussians", "rng.gaussians", None),
)
