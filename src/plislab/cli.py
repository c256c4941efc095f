"""Command-line surface: training runs, analyses, attacks and reports.

Exit codes: 0 success, 1 usage error, 2 runtime error.  Every file is
written atomically: into PATH.tmp.<pid> beside it, then renamed over
PATH.  If the write or the rename fails, the temp file is deleted and
PATH keeps whatever it held before.  CSV floats use shortest round-trip
repr, so identical flags and seeds give byte-identical outputs.  An
--out directory is created only when a file is written into it, so a
run that fails before writing leaves none behind.
attack's DP flags go together: --dp-clip and --dp-sigma, with or without
--dp-seed, or none of them; anything else is a usage error (exit 1).
gen-data's --height, --width and --ood apply to --kind images only, and
--d, --informative and --noise-sd to regression only; a flag of the other
kind is a usage error.
PLIS_LOG={quiet|info|debug} controls diagnostics on stderr.

`plislab experiment dp-regression|ood-rank` runs one of the paper's two
experiments over its fixed seed list (plislab.experiments) and prints one
row per seed, then a verdict line, on stdout.  It takes no flags: the
seeds, sizes and gates are constants of that module.  It exits 0 when the
gate holds and 2 when it does not.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import accounting, attack as attack_mod, datasets, dpsgd, models, plis
from .errors import ConfigError, DataFormatError, PlisLabError
from .imagemetrics import check_window, psnr, ssim

log = logging.getLogger("plislab.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 for usage problems, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


# --------------------------------------------------------------------------
# atomic output helpers
# --------------------------------------------------------------------------


def _atomic_write(path: str, write) -> None:
    """write(tmp) into a temp file beside path, then rename it over path.

    The temp file is deleted if the write or the rename fails.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda tmp: Path(tmp).write_bytes(text.encode("utf-8")))


def _csv_text(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):  # numpy scalars too: repr(np.float64(x)) names the type
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_heatmap(matrix, base_path: str) -> None:
    """Write <base>.csv (raw values) and <base>.pgm (min-max normalized P5)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise PlisLabError(f"emit_heatmap expects a 2-d matrix, got shape {matrix.shape}")
    rows = [",".join(repr(float(v)) for v in row) for row in matrix]
    _atomic_write_text(base_path + ".csv", "\n".join(rows) + "\n")
    h, w = matrix.shape
    lo, hi = float(matrix.min()), float(matrix.max())
    if not math.isfinite(255.0 * (hi - lo)):
        # a power of two scales exactly and brings 255 (hi - lo) below the
        # float maximum; where it is finite already, the pixels keep their bytes
        matrix, lo, hi = matrix * 2.0**-10, lo * 2.0**-10, hi * 2.0**-10
    if hi == lo:
        pixels = np.full(matrix.shape, 128, dtype=np.uint8)
    else:
        pixels = np.floor(255.0 * (matrix - lo) / (hi - lo) + 0.5).astype(np.uint8)
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _atomic_write(base_path + ".pgm", lambda tmp: Path(tmp).write_bytes(header + pixels.tobytes()))


# --------------------------------------------------------------------------
# shared loading
# --------------------------------------------------------------------------


def _load_subjects(path: str):
    """(data, subjects): the PLDS magic selects an ImageDataset, anything else
    is an (x, y) CSV; a file without rows is a DataFormatError."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == datasets.PLDS_MAGIC:
        data = datasets.load_images(path)
        subjects = datasets.image_subjects(data)
    else:
        data = datasets.load_regression_csv(path)
        subjects = datasets.tabular_subjects(*data)
    if not subjects:
        raise DataFormatError(f"{path}: the dataset has no rows")
    return data, subjects


def _load_analysis(args):
    """(spec, params, data, subjects) from the --model checkpoint and the --data file."""
    spec, params = models.load_checkpoint(args.model)
    return (spec, params) + _load_subjects(args.data)


def _in_dir(directory: str, name: str) -> str:
    """The path of name in directory, creating the directory on first use."""
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _build_spec(arch: str, data) -> models.ModelSpec:
    images = isinstance(data, datasets.ImageDataset)
    if arch == "auto":
        arch = "cnn" if images else "linear"
    if images:
        h, w = data.images.shape[1:]
        if arch == "cnn":
            return models.cnn_spec(h, w, data.classes)
        if arch == "mlp":
            return models.ModelSpec(
                (
                    models.Flatten(),
                    models.Linear(h * w, 32),
                    models.Relu(),
                    models.Linear(32, data.classes),
                ),
                models.CROSS_ENTROPY,
            )
        raise PlisLabError(f"architecture {arch!r} does not apply to image data")
    d = data[0].shape[1]
    if arch == "linear":
        return models.ModelSpec((models.Linear(d, 1, bias=False),), models.MSE)
    if arch == "mlp":
        return models.ModelSpec(
            (models.Linear(d, 16), models.Tanh(), models.Linear(16, 1)), models.MSE
        )
    raise PlisLabError(f"architecture {arch!r} does not apply to tabular data")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


# the options one --kind reads; not given, they are unset
_KIND_FLAGS = {"images": ("height", "width", "ood"), "regression": ("d", "informative", "noise_sd")}


def _cmd_gen_data(args) -> int:
    given = vars(args)
    stray = [k for kind, keys in _KIND_FLAGS.items() if kind != args.kind for k in keys if k in given]
    if stray:
        flag = "--" + stray[0].replace("_", "-")
        raise _UsageError(f"gen-data: {flag} does not apply to --kind {args.kind}")
    if args.kind == "images":
        sizes = {k: given[k] for k in ("height", "width") if k in given}
        ds = datasets.make_glyph_images(args.n, args.seed, **sizes)
        if given.get("ood"):
            ds = datasets.inject_ood(ds, given["ood"], args.seed)
        _atomic_write(args.out, lambda tmp: datasets.write_plds(ds, tmp))
        log.info("wrote %d images (%d OOD) to %s", ds.n, int(ds.ood_flags.sum()), args.out)
    else:
        text = given.get("informative", "9")
        try:
            informative = {int(tok) for tok in text.split(",") if tok.strip() != ""}
        except ValueError:
            raise ConfigError(
                f"--informative expects comma-separated column indices, got {text!r}"
            ) from None
        d, noise_sd = given.get("d", 16), given.get("noise_sd", 0.1)
        ds = datasets.make_regression(args.n, d, informative, noise_sd, args.seed)
        _atomic_write(args.out, lambda tmp: datasets.save_regression_csv(ds, tmp))
        log.info("wrote %d rows x %d features to %s", ds.n, ds.d, args.out)
    return 0


def _cmd_train(args) -> int:
    config = dpsgd.load_config(args.config)
    if args.accountant_out and not config.private:
        raise PlisLabError("--accountant-out needs a private training run")
    data, subjects = _load_subjects(args.data)
    spec = _build_spec(args.arch, data)
    trace = dpsgd.train(spec, [(s.x, s.y) for s in subjects], config)
    _atomic_write(args.out, lambda tmp: models.save_checkpoint(tmp, spec, trace.params))
    log.info(
        "trained %d epochs, final loss %.6g%s",
        config.epochs,
        trace.per_epoch_loss[-1] if trace.per_epoch_loss else math.nan,
        f", epsilon {trace.final_epsilon:.4g}" if trace.final_epsilon is not None else "",
    )
    if args.trace_out:
        rows = [[step, loss, eps] for step, loss, eps in trace.step_records]
        _atomic_write_text(args.trace_out, _csv_text(["step", "loss", "epsilon_so_far"], rows))
    if args.accountant_out:
        _atomic_write(
            args.accountant_out,
            lambda tmp: accounting.write_report(trace.accountant, config.target_delta, tmp),
        )
    return 0


def _cmd_analyze_plis(args) -> int:
    spec, params, _, subjects = _load_analysis(args)
    reports = plis.plis_reports(spec, params, subjects, sigma=args.sigma, clip=args.clip)
    rows = []
    for report in reports:
        rows.append(
            [report.subject_id, report.pl, report.subject_plis_norm, report.mode, report.sigma]
        )
        emit_heatmap(plis.as_plane(report.plis), _in_dir(args.out, f"plis_{report.subject_id}"))
    _atomic_write_text(
        _in_dir(args.out, "plis_report.csv"),
        _csv_text(["subject_id", "pl", "plis_norm", "mode", "sigma"], rows),
    )
    if args.compare_expanded:
        others = plis.plis_reports(
            spec, params, subjects, sigma=args.sigma, clip=args.clip, expanded=True
        )
        worst = max(
            plis.deviation(a, b, s.x) for a, b, s in zip(reports, others, subjects)
        )
        print(f"max relative deviation between direct and expanded PLIS: {worst:.3e}")
        if worst > 1e-8:
            raise PlisLabError(
                f"PLIS direct/expanded disagreement {worst:.3e} exceeds 1e-8"
            )
    log.info("analyzed %d subjects into %s", len(subjects), args.out)
    return 0


def _cmd_analyze_fil(args) -> int:
    spec, params, _, subjects = _load_analysis(args)
    reports = [plis.fim_subject(spec, params, s, sigma=args.sigma) for s in subjects]
    d = reports[0].fil_per_attribute.size
    header = ["subject_id", "fil_subject"] + [f"a{j}" for j in range(d)]
    rows = [
        [r.subject_id, r.fil_subject] + [float(v) for v in r.fil_per_attribute]
        for r in reports
    ]
    _atomic_write_text(_in_dir(args.out, "fil_report.csv"), _csv_text(header, rows))
    log.info("FIL for %d subjects into %s", len(subjects), args.out)
    return 0


def _cmd_analyze_jacsens(args) -> int:
    spec, params, _, subjects = _load_analysis(args)
    reports = [plis.jacsens_subject(spec, params, s) for s in subjects]
    rows = [[r.subject_id, r.spectral_norm, r.frobenius_norm] for r in reports]
    _atomic_write_text(
        _in_dir(args.out, "jacsens_report.csv"),
        _csv_text(["subject_id", "spectral_norm", "frobenius_norm"], rows),
    )
    return 0


def _cmd_rank(args) -> int:
    spec, params, _, subjects = _load_analysis(args)
    ranked = plis.rank_subjects(subjects, spec, params, sigma=args.sigma, clip=args.clip)
    rows = [[r.subject_id, r.pl, r.subject_plis_norm] for r in ranked]
    _atomic_write_text(args.out, _csv_text(["subject_id", "pl", "plis_norm"], rows))
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments  # imported here: the sweeps are not part of the library surface

    return 0 if experiments.SWEEPS[args.name]() else 2


def _cmd_attack(args) -> int:
    # options not given are unset, so they take DpRelease's and AttackConfig's defaults
    given = vars(args)
    dp_flags = {k.removeprefix("dp_"): v for k, v in given.items() if k.startswith("dp_")}
    if dp_flags and not {"clip", "sigma"} <= dp_flags.keys():
        raise _UsageError("attack: --dp-clip and --dp-sigma go together, --dp-seed with them")
    dp = attack_mod.DpRelease(**dp_flags) if dp_flags else None
    fields = [f.name for f in dataclasses.fields(attack_mod.AttackConfig) if f.name in given]
    config = attack_mod.AttackConfig(**{name: given[name] for name in fields})
    spec, params, data, subjects = _load_analysis(args)
    subject = next((s for s in subjects if s.id == args.subject), None)
    if subject is None:
        raise PlisLabError(f"subject {args.subject!r} not present in {args.data}")
    if isinstance(data, datasets.ImageDataset):
        check_window(subject.x[0].shape)  # SSIM's refusal, before any output is written
    observed = attack_mod.observe_gradient(spec, params, subject, dp=dp)
    result = attack_mod.reconstruct(
        spec, params, observed, subject.y, config, input_shape=subject.x.shape
    )
    recon = plis.as_plane(result.reconstruction)
    emit_heatmap(recon, _in_dir(args.out, "reconstruction"))
    trace = result.traces[result.best_restart]
    _atomic_write_text(
        _in_dir(args.out, "trace.csv"),
        _csv_text(["iteration", "match_loss"], [[i, v] for i, v in enumerate(trace)]),
    )
    if isinstance(data, datasets.ImageDataset):
        original = subject.x[0]
        rows = [[ssim(original, recon), psnr(original, recon)]]
        _atomic_write_text(_in_dir(args.out, "metrics.csv"), _csv_text(["ssim", "psnr"], rows))
    log.info("attack finished: best restart %d, match loss %.4g", result.best_restart, result.match_loss)
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------


# built once per process: parse_args keeps nothing between calls, each call
# parses into a fresh namespace
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="plislab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # dests of the kind-specific options are the keys of _KIND_FLAGS
    gen = sub.add_parser("gen-data", help="generate a dataset file")
    gen.add_argument("--kind", choices=["images", "regression"], required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    unset = argparse.SUPPRESS
    gen.add_argument("--height", type=int, default=unset)
    gen.add_argument("--width", type=int, default=unset)
    gen.add_argument("--ood", type=int, default=unset, help="OOD samples to inject (images)")
    gen.add_argument("--d", type=int, default=unset, help="feature count (regression)")
    gen.add_argument("--informative", default=unset, help="comma list of informative columns")
    gen.add_argument("--noise-sd", type=float, default=unset)
    gen.set_defaults(func=_cmd_gen_data)

    train = sub.add_parser("train", help="train a model from a config file")
    train.add_argument("--config", required=True)
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True, help="checkpoint path (.plck)")
    train.add_argument("--arch", choices=["auto", "linear", "mlp", "cnn"], default="auto")
    train.add_argument("--trace-out", default=None, help="per-step CSV trace")
    train.add_argument("--accountant-out", default=None, help="accountant CSV report")
    train.set_defaults(func=_cmd_train)

    def analysis_args(p):
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)

    ap = sub.add_parser("analyze-plis", help="per-subject PLIS reports and heatmaps")
    analysis_args(ap)
    ap.add_argument("--sigma", type=float, default=None)
    ap.add_argument("--clip", type=float, default=None, help="DP-mode clipped-gradient PLIS")
    ap.add_argument("--compare-expanded", action="store_true")
    ap.set_defaults(func=_cmd_analyze_plis)

    af = sub.add_parser("analyze-fil", help="per-subject Fisher information loss")
    analysis_args(af)
    af.add_argument("--sigma", type=float, required=True)
    af.set_defaults(func=_cmd_analyze_fil)

    aj = sub.add_parser("analyze-jacsens", help="per-subject gradient Jacobian norms")
    analysis_args(aj)
    aj.set_defaults(func=_cmd_analyze_jacsens)

    rank = sub.add_parser("rank", help="subjects ordered by PLIS norm")
    analysis_args(rank)
    rank.add_argument("--sigma", type=float, default=None)
    rank.add_argument("--clip", type=float, default=None)
    rank.set_defaults(func=_cmd_rank)

    # dests are AttackConfig fields, or DpRelease fields after dp_; options not given stay unset
    atk = sub.add_parser(
        "attack", help="gradient-inversion reconstruction", argument_default=argparse.SUPPRESS
    )
    atk.add_argument("--model", required=True)
    atk.add_argument("--data", required=True)
    atk.add_argument("--subject", required=True)
    atk.add_argument("--out", required=True)
    atk.add_argument("--iterations", type=int)
    atk.add_argument("--lr", dest="learning_rate", type=float)
    atk.add_argument("--restarts", type=int)
    atk.add_argument("--seed", type=int)
    atk.add_argument("--tv", dest="tv_weight", type=float)
    atk.add_argument("--match", dest="match_loss", choices=["cosine", "l2"])
    atk.add_argument("--monotone", action="store_true")
    atk.add_argument("--dp-clip", type=float)
    atk.add_argument("--dp-sigma", type=float)
    atk.add_argument("--dp-seed", type=int)
    atk.set_defaults(func=_cmd_attack)

    exp = sub.add_parser("experiment", help="a paper experiment over its fixed seed list")
    exp.add_argument("name", choices=["dp-regression", "ood-rank"])
    exp.set_defaults(func=_cmd_experiment)

    return parser


_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("PLIS_LOG", "info").lower()
    if level not in _LOG_LEVELS:
        level = "info"
    logging.basicConfig(
        level=_LOG_LEVELS[level], stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def run(argv) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse exits itself for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:  # flags that are wrong only in combination
        print(str(exc), file=sys.stderr)
        return 1
    except (PlisLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
