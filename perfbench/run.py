"""Run one plislab benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Untraced (--trace 0): after a set-up and a warm-up pass, set-up samples
and passes alternate for S seconds, each between two runs of the reference
loop (perfbench/reference.py).  ``wall_per_ref`` is the median over passes
of a pass's wall time divided by the mean time of the reference loop run
just before and after it.  ``setup_s`` is the median set-up time divided
the same way and multiplied by the loop's nominal time, so it reads in
seconds on the machine the bounds were set on and does not follow the
host's speed phases.  The line before the result also gives each raw
timing's minimum, median, tail percentile and sample count.

Traced (--trace 1): the same untraced passes give the baseline
``wall_per_ref``, then wrappers are installed around plislab's public
functions for one traced set-up and pass, which give the per-layer
metrics.  The tracing overhead is the traced pass's wall time minus the
untraced time expected at the host speed the reference loop shows around
it.  Every pass is checked by its workload's oracle; a failed check
or an exception counts in ``failed``.  Everything runs in this one
process, on one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 5
# A set-up sample repeats the set-up until this much time has passed, so
# that sub-millisecond set-ups are not timed one at a time.
SETUP_SAMPLE_S = 0.03

# One BLAS thread, set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("ood-rank", "dp-regression", "attack", "cli-private")


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Times set-ups and passes, counts attempted and failed passes.

    Each round times a set-up sample, then one pass, with the reference
    loop run between them and after the pass, so every set-up sample and
    every pass sits between two runs of the reference loop.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.setup_ratios: list[float] = []
        self.walls: list[float] = []
        self.refs: list[float] = []
        self.ratios: list[float] = []
        self.rates: dict[str, list[float]] = defaultdict(list)
        self.peak_rss_mb = 0.0

    def setup_sample(self) -> float:
        """Seconds per set-up, over back-to-back set-ups filling SETUP_SAMPLE_S."""
        count = 0
        t0 = time.perf_counter()
        while True:
            self.workload.setup()
            count += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_SAMPLE_S:
                return elapsed / count

    def one_pass(self):
        """Run and check one pass; returns (wall seconds, output), or None if it failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.workload.run()
            wall = time.perf_counter() - t0
            problems = self.workload.check(out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"{self.workload.name}: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        return wall, out

    def timed_passes(self, seconds: float) -> None:
        from perfbench.reference import reference_seconds

        self.workload.setup()
        self.one_pass()  # warm-up: caches and lazy set-up
        # Every pass is alike, so the peak so far is the workload's.  Read it
        # before the reference loop's own arrays can raise it.
        self.peak_rss_mb = peak_rss_mb()
        ref_before_setup = reference_seconds()
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_PASSES or time.perf_counter() - start < seconds:
            setup = self.setup_sample()
            ref_before_pass = reference_seconds()
            done = self.one_pass()
            ref_after_pass = reference_seconds()
            self.setups.append(setup)
            self.setup_ratios.append(setup / (0.5 * (ref_before_setup + ref_before_pass)))
            if done is not None:
                wall, out = done
                self.walls.append(wall)
                self.refs += [ref_before_pass, ref_after_pass]
                self.ratios.append(wall / (0.5 * (ref_before_pass + ref_after_pass)))
                for name, (secs, items) in out["stages"].items():
                    self.rates[name].append(items / secs)
            ref_before_setup = ref_after_pass
            rounds += 1


def traced_episode(workload, run_id: str):
    """One traced set-up and pass; returns (tracer, pass output, pass wall seconds)."""
    from perfbench.spans import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        with tracer.span("workload.setup"):
            workload.setup(tracer)
        t0 = time.perf_counter()
        with tracer.span("workload.pass"):
            out = workload.run(tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, out, wall


def measure(name: str, seed: int, seconds: float, traced: bool, workdir: str):
    from perfbench import stats
    from perfbench.reference import NOMINAL_SECONDS, reference_seconds
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    runner = Runner(workload)
    runner.timed_passes(seconds)
    if not runner.walls:
        raise RuntimeError(f"{name}: no pass succeeded")

    timings = {
        "wall_s": stats.summarize(runner.walls),
        "ref_s": stats.summarize(runner.refs),
        "wall_per_ref": stats.summarize(runner.ratios),
        "setup_raw_s": stats.summarize(runner.setups),
        "setup_per_ref": stats.summarize(runner.setup_ratios),
    }
    timings.update((k, stats.summarize(v)) for k, v in runner.rates.items())
    report = {"workload": name, "trace": int(traced), "env": environment(seed), "timings": timings}
    if not traced:
        metrics = {
            "wall_per_ref": (timings["wall_per_ref"]["median"], "ratio"),
            "setup_s": (timings["setup_per_ref"]["median"] * NOMINAL_SECONDS, "s"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        }
    else:
        run_id = f"{name}-seed{seed}-pid{os.getpid()}"
        runner.attempted += 1
        ref_before = reference_seconds()
        tracer, out, traced_wall = traced_episode(workload, run_id)
        ref_after = reference_seconds()
        metrics = tracer.layer_metrics()
        problems = workload.check(out) + workload.check_trace(metrics)
        report["diagnostics"] = workload.diagnostics(out)
        if problems:
            print(f"{name} (traced): {'; '.join(problems)}", file=sys.stderr)
            runner.failed += 1
        # the untraced pass time expected at the host's speed around the traced pass
        untraced = timings["wall_per_ref"]["median"] * 0.5 * (ref_before + ref_after)
        metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
        timings["traced_wall_s"] = traced_wall
        spans_path = os.path.join(OUT_DIR, f"spans-{run_id}.jsonl")
        tracer.write_spans(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    report["attempted"], report["failed"] = runner.attempted, runner.failed
    report["failed_frac"] = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
        help="'all' runs each workload in turn, each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "plislab")):
        print(f"error: plislab sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        import subprocess

        codes = []
        for name in WORKLOAD_NAMES:
            argv_one = [sys.executable, os.path.abspath(__file__), "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)]
            codes.append(subprocess.run(argv_one, check=False).returncode)
        return max(codes)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PLIS_LOG"] = "quiet"
    sys.path[:0] = [SRC, ROOT]

    import shutil

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
