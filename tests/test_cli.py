"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plislab import attack as attack_mod, cli, datasets, models, plis
from plislab.errors import PlisLabError


def run(*argv):
    return cli.run(list(argv))


@pytest.fixture()
def image_setup(tmp_path):
    """A tiny trained CNN checkpoint plus its dataset."""
    data = tmp_path / "tiny.plds"
    assert run("gen-data", "--kind", "images", "--out", str(data), "--n", "12",
               "--seed", "1", "--height", "12", "--width", "12", "--ood", "2") == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr = 0.05\nepochs = 2\nbatch_size = 8\nseed = 3\n")
    model = tmp_path / "model.plck"
    assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model)) == 0
    return tmp_path, data, model


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("gen-data", "--kind", "images") == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_flag_rejected(self):
        assert run("gen-data", "--kind", "images", "--out", "x", "--n", "4", "--bogus", "1") == 1

    @pytest.mark.parametrize("kind, flag", [
        ("regression", "--height"), ("regression", "--width"), ("regression", "--ood"),
        ("images", "--d"), ("images", "--informative"), ("images", "--noise-sd"),
    ])
    def test_gen_data_flag_of_the_other_kind_is_usage_error(self, tmp_path, capsys, kind, flag):
        out = tmp_path / "d.out"
        assert run("gen-data", "--kind", kind, "--out", str(out), "--n", "4", flag, "3") == 1
        assert f"{flag} does not apply to --kind {kind}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_rejected(self):
        assert run("frobnicate") == 1

    def test_runtime_error_is_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.plck"
        assert run("rank", "--model", str(missing), "--data", str(missing),
                   "--out", str(tmp_path / "r.csv")) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_runs_share_the_parser_but_no_parsed_state(self, tmp_path, monkeypatch, capsys):
        namespaces = []
        parse = cli._Parser.parse_args

        def recorded(parser, *args):
            namespaces.append(parse(parser, *args))
            return namespaces[-1]

        monkeypatch.setattr(cli._Parser, "parse_args", recorded)
        data = tmp_path / "r.csv"
        assert run("gen-data", "--kind", "regression", "--out", str(data), "--n", "6",
                   "--d", "10", "--noise-sd", "0.5") == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lr = 0.05\nepochs = 1\nbatch_size = 2\n")
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "m.plck")) == 0
        # gen-data's --d and --noise-sd were given in the first run only: an
        # images run would refuse them as flags of the other kind
        assert run("gen-data", "--kind", "images", "--out", str(tmp_path / "i.plds"),
                   "--n", "4", "--height", "6", "--width", "6") == 0
        first, second, third = (vars(ns) for ns in namespaces)
        assert first.keys() & {"d", "noise_sd"} == {"d", "noise_sd"}
        assert not second.keys() & {"kind", "n", "d", "noise_sd", "seed"}
        assert not third.keys() & {"d", "noise_sd", "config", "data"}
        assert cli._build_parser() is cli._build_parser()
        capsys.readouterr()
        for _ in range(2):
            assert run("gen-data", "--kind", "images") == 1
            assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("module", ["plislab", "plislab.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}

        def python_m(*argv):
            return subprocess.run([sys.executable, "-m", module, *argv],
                                  capture_output=True, text=True, env=env, timeout=120)

        helped = python_m("--help")
        assert helped.returncode == 0
        assert helped.stdout.startswith("usage: plislab")
        assert "analyze-plis" in helped.stdout
        bad = python_m("frobnicate")
        assert bad.returncode != 0
        assert "invalid choice: 'frobnicate'" in bad.stderr



def _checkpoint_with_spec(path, spec_bytes: bytes, payload: bytes = b""):
    path.write_bytes(b"PLCK" + struct.pack("<II", 1, len(spec_bytes)) + spec_bytes + payload)
    return path


class TestMalformedInput:
    """Malformed input ends as an error message and exit code 2, never a traceback."""

    def _assert_runtime_error(self, capsys, *argv, match):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err
        assert "Traceback" not in err

    def test_non_integer_informative_column(self, tmp_path, capsys):
        self._assert_runtime_error(
            capsys, "gen-data", "--kind", "regression", "--out", str(tmp_path / "r.csv"),
            "--n", "5", "--informative", "a", match="--informative",
        )

    def test_non_numeric_csv_cell(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x0,x1,y\n0.5,1.0,2.0\n0.1,abc,1.0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\n")
        self._assert_runtime_error(
            capsys, "train", "--config", str(cfg), "--data", str(data),
            "--out", str(tmp_path / "m.plck"), match="line 3",
        )

    def test_nan_checkpoint_parameter(self, tmp_path, capsys):
        data = tmp_path / "reg.csv"
        assert run("gen-data", "--kind", "regression", "--out", str(data), "--n", "6",
                   "--d", "3", "--informative", "1", "--seed", "2") == 0
        # save_checkpoint refuses NaN, so the file is written byte by byte
        model = _checkpoint_with_spec(
            tmp_path / "m.plck", b"linear:3:1:1|mse", struct.pack("<4d", 1.0, 1.0, np.nan, 1.0)
        )
        out = tmp_path / "fil"
        self._assert_runtime_error(
            capsys, "analyze-fil", "--model", str(model), "--data", str(data),
            "--out", str(out), "--sigma", "1.0", match="checkpoint parameter 2 is not finite: nan",
        )
        assert not out.exists()

    def test_non_utf8_checkpoint_spec(self, tmp_path, capsys):
        model = _checkpoint_with_spec(tmp_path / "m.plck", b"linear:\xff:1:0|mse")
        self._assert_runtime_error(
            capsys, "rank", "--model", str(model), "--data", str(tmp_path / "d.csv"),
            "--out", str(tmp_path / "r.csv"), match="UTF-8",
        )

    @pytest.mark.parametrize("layer", ["linear:-3:1:0", "linear:-3:-1:0", "conv2d:1:0:3:1"])
    def test_non_positive_layer_size(self, tmp_path, capsys, layer):
        # linear(-3,-1) would count 3 parameters, which the 24-byte payload matches
        model = _checkpoint_with_spec(
            tmp_path / "m.plck", f"{layer}|mse".encode(), struct.pack("<3d", 1.0, 2.0, 3.0)
        )
        self._assert_runtime_error(
            capsys, "rank", "--model", str(model), "--data", str(tmp_path / "d.csv"),
            "--out", str(tmp_path / "r.csv"), match="malformed layer descriptor",
        )

    @pytest.mark.parametrize(
        "layer",
        [
            "linear:3:1:1:9",  # an extra field
            "linear:3:1:7",  # a bias that is neither 0 nor 1
            "relu:5",  # a field on a layer without parameters
            "linear:3:1",  # a missing field
        ],
    )
    def test_descriptor_field_count_and_bias_are_strict(self, tmp_path, capsys, layer):
        model = _checkpoint_with_spec(
            tmp_path / "m.plck", f"{layer}|mse".encode(), struct.pack("<3d", 1.0, 2.0, 3.0)
        )
        self._assert_runtime_error(
            capsys, "rank", "--model", str(model), "--data", str(tmp_path / "d.csv"),
            "--out", str(tmp_path / "r.csv"), match="malformed layer descriptor",
        )

    @pytest.mark.parametrize("kind, n", [("images", -3), ("regression", -3),
                                         ("regression", 1), ("images", 0), ("regression", 0)])
    def test_gen_data_row_count_too_small(self, tmp_path, capsys, kind, n):
        out = tmp_path / "d.out"
        self._assert_runtime_error(
            capsys, "gen-data", "--kind", kind, "--out", str(out), "--n", str(n), match=f"got {n}",
        )
        assert not out.exists()

    @pytest.mark.parametrize("height, width", [(-2, 8), (0, 8), (8, 0)])
    def test_gen_data_image_size_too_small(self, tmp_path, capsys, height, width):
        out = tmp_path / "d.plds"
        self._assert_runtime_error(
            capsys, "gen-data", "--kind", "images", "--out", str(out), "--n", "4",
            "--height", str(height), "--width", str(width), match=f"got {height}x{width}",
        )
        assert not out.exists()

    @pytest.mark.parametrize("noise_sd", ["nan", "inf", "-0.5"])
    def test_gen_data_noise_sd_not_finite_or_negative(self, tmp_path, capsys, noise_sd):
        out = tmp_path / "r.csv"
        self._assert_runtime_error(
            capsys, "gen-data", "--kind", "regression", "--out", str(out), "--n", "5",
            "--noise-sd", noise_sd, match="noise_sd",
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze-plis", "analyze-fil", "analyze-jacsens",
                                         "rank", "attack"])
    def test_empty_dataset_file(self, tmp_path, capsys, command):
        data = tmp_path / "empty.plds"
        empty = datasets.ImageDataset(
            np.zeros((0, 6, 6)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), 2
        )
        datasets.write_plds(empty, data)
        spec = models.ModelSpec((models.Flatten(), models.Linear(36, 2)), models.CROSS_ENTROPY)
        model = tmp_path / "m.plck"
        models.save_checkpoint(model, spec, models.init_params(spec, 0))
        extra = {"analyze-fil": ["--sigma", "1.0"], "attack": ["--subject", "img00000"]}
        self._assert_runtime_error(
            capsys, command, "--model", str(model), "--data", str(data),
            "--out", str(tmp_path / "out"), *extra.get(command, []), match="no rows",
        )
        assert not (tmp_path / "out").exists()


class TestAtomicWrites:
    """A write or rename that fails exits 2 and leaves no temp file behind."""

    def _regression_data(self, tmp_path):
        data = tmp_path / "reg.csv"
        assert run("gen-data", "--kind", "regression", "--out", str(data), "--n", "10",
                   "--d", "3", "--informative", "0", "--seed", "5") == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 1\nbatch_size = 10\nprivate = true\n"
                       "clip = 1.0\nsigma = 2.0\n")
        return data, cfg

    @pytest.mark.parametrize("kind", ["images", "regression"])
    def test_gen_data_onto_a_directory(self, tmp_path, kind):
        target = tmp_path / "D"
        target.mkdir()
        sizes = ["--height", "8", "--width", "8"] if kind == "images" else []
        assert run("gen-data", "--kind", kind, "--out", str(target), "--n", "4", *sizes) == 2
        assert target.is_dir() and not list(tmp_path.glob("*.tmp.*"))

    def test_train_out_onto_a_directory(self, tmp_path):
        data, cfg = self._regression_data(tmp_path)
        target = tmp_path / "D"
        target.mkdir()
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(target)) == 2
        assert target.is_dir() and not list(tmp_path.glob("*.tmp.*"))

    def test_train_accountant_out_onto_a_directory(self, tmp_path):
        data, cfg = self._regression_data(tmp_path)
        target = tmp_path / "D"
        target.mkdir()
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "m.plck"), "--accountant-out", str(target)) == 2
        assert target.is_dir() and not list(tmp_path.glob("*.tmp.*"))

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"before")

        def write_then_fail(tmp):
            with open(tmp, "wb") as fh:
                fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(str(path), write_then_fail)
        assert path.read_bytes() == b"before"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestGenData:
    def test_images_deterministic(self, tmp_path):
        a, b = tmp_path / "a.plds", tmp_path / "b.plds"
        args = ["gen-data", "--kind", "images", "--n", "6", "--seed", "9",
                "--height", "10", "--width", "10"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_regression_csv(self, tmp_path):
        out = tmp_path / "reg.csv"
        assert run("gen-data", "--kind", "regression", "--out", str(out), "--n", "20",
                   "--d", "5", "--informative", "1,3", "--noise-sd", "0.2", "--seed", "2") == 0
        x, y = datasets.load_regression_csv(out)
        assert x.shape == (20, 5) and y.shape == (20,)


class TestEmitHeatmap:
    def test_spec_example_quantization(self, tmp_path):
        base = str(tmp_path / "map")
        cli.emit_heatmap(np.array([[0.0, 1.0], [2.0, 3.0]]), base)
        blob = (tmp_path / "map.pgm").read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 85, 170, 255]

    def test_extremes_near_the_float_maximum_map_to_0_and_255(self, tmp_path):
        # every entry is finite, but 255 (hi - lo) is not
        base = str(tmp_path / "wide")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.emit_heatmap(np.array([[-9e307, 0.0], [9e307, 1.0]]), base)
        assert list((tmp_path / "wide.pgm").read_bytes()[-4:]) == [0, 128, 255, 128]

    def test_all_equal_maps_to_midgray(self, tmp_path):
        base = str(tmp_path / "flat")
        cli.emit_heatmap(np.zeros((3, 3)), base)
        blob = (tmp_path / "flat.pgm").read_bytes()
        assert set(blob[-9:]) == {128}

    def test_csv_roundtrips_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(4, 5))
        base = str(tmp_path / "vals")
        cli.emit_heatmap(matrix, base)
        back = np.loadtxt(tmp_path / "vals.csv", delimiter=",", ndmin=2)
        np.testing.assert_array_equal(back, matrix)


class TestTrainCommand:
    def test_writes_checkpoint_and_traces(self, tmp_path):
        data = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--out", str(data), "--n", "30",
            "--d", "4", "--informative", "2", "--seed", "5")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "lr = 0.1\nepochs = 3\nbatch_size = 30\nseed = 1\nprivate = true\n"
            "clip = 1.0\nsigma = 2.0\ntarget_delta = 1e-5\n"
        )
        model = tmp_path / "m.plck"
        trace = tmp_path / "trace.csv"
        acct = tmp_path / "acct.csv"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model),
                   "--trace-out", str(trace), "--accountant-out", str(acct)) == 0
        spec, params = models.load_checkpoint(model)
        assert spec.loss == models.MSE
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,loss,epsilon_so_far"
        assert len(lines) == 4
        assert acct.read_text().splitlines()[0].startswith("step,")

    @staticmethod
    def _refused_train(tmp_path, capsys, config: bytes) -> list[str]:
        """stderr lines of a linear `train` on a 60-row CSV, one batch per epoch,
        that must exit 2 and write no checkpoint."""
        data = tmp_path / "big.csv"
        data.write_text("x0,x1,y\n" + "".join(f"{i / 60!r},1.0,100.0\n" for i in range(60)))
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(config)
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model),
                   "--arch", "linear") == 2
        assert not model.exists()
        return capsys.readouterr().err.splitlines()

    def test_update_that_overflows_is_refused_before_the_checkpoint(self, tmp_path, capsys):
        # the step's loss is finite; only its update overflows, at the last step.
        # numpy's overflow warning would be an error under the suite's filter
        err = self._refused_train(tmp_path, capsys, b"lr = 1e308\nepochs = 1\nbatch_size = 60\n")
        assert err == ["error: non-finite parameters after step 0"]

    def test_loss_that_overflows_is_refused_with_no_warning(self, tmp_path, capsys):
        # the first update is finite but huge, so a later squared residual overflows
        err = self._refused_train(tmp_path, capsys, b"lr = 1e150\nepochs = 3\nbatch_size = 60\n")
        assert err == ["error: non-finite loss at step 2"]

    def test_sigma_whose_square_is_not_a_normal_float_is_refused(self, tmp_path, capsys):
        # 1e-160 squared underflows: the accountant's (C / sigma C)^2 overflows
        err = self._refused_train(
            tmp_path, capsys,
            b"lr = 0.1\nepochs = 1\nbatch_size = 1\nprivate = true\nclip = 0.5\nsigma = 1e-160\n",
        )
        assert err == ["error: sigma must have a square that is a normal float "
                       "(about 1.5e-154 to 1.3e154), got 1e-160"]

    def test_config_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        # ff fe opens a UTF-16 file
        err = self._refused_train(tmp_path, capsys, b"\xff\xfelr = 0.1\n")
        assert len(err) == 1
        assert err[0].startswith("error: ") and "c.cfg: line 1: " in err[0]
        assert "can't decode byte 0xff" in err[0]

    def test_accountant_out_rejected_for_nonprivate(self, tmp_path):
        data = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--out", str(data), "--n", "10",
            "--d", "3", "--informative", "0", "--seed", "5")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 1\nbatch_size = 10\n")
        outs = [tmp_path / name for name in ("m.plck", "tr.csv", "a.csv")]
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(outs[0]),
                   "--trace-out", str(outs[1]), "--accountant-out", str(outs[2])) == 2
        # refused before training, so nothing is written
        assert not any(p.exists() for p in outs)

    def test_private_config_with_infinite_clip_is_rejected(self, tmp_path, capsys):
        # C / max(C, ||g||) is inf / inf at C = inf: the checkpoint would be all NaN
        data = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--out", str(data), "--n", "10",
            "--d", "3", "--informative", "0", "--seed", "5")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 1\nbatch_size = 10\nprivate = true\n"
                       "clip = inf\nsigma = 1.0\n")
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model)) == 2
        assert "finite positive clip" in capsys.readouterr().err
        assert not model.exists()


    def test_nonprivate_config_with_a_clip_is_rejected(self, tmp_path, capsys):
        # non-private training reads no clip, so the setting would be ignored
        data = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--out", str(data), "--n", "10",
            "--d", "3", "--informative", "0", "--seed", "5")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 1\nbatch_size = 10\nclip = 1.0\n")
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model)) == 2
        assert "non-private training takes no clip" in capsys.readouterr().err
        assert not model.exists()

    def test_private_config_with_infinite_sigma_is_rejected(self, tmp_path, capsys):
        # inf noise makes every parameter +-inf after one step, while the loss
        # checked before that step is still finite
        data = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--out", str(data), "--n", "10",
            "--d", "3", "--informative", "0", "--seed", "5")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 1\nbatch_size = 10\nprivate = true\n"
                       "clip = 1.0\nsigma = inf\n")
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model)) == 2
        assert "finite sigma" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("arch, kind", [("cnn", "regression"), ("linear", "images")])
    def test_architecture_for_the_other_data_kind_is_rejected(self, tmp_path, capsys, arch, kind):
        data = tmp_path / "d.bin"
        shape = {"regression": ["--d", "3", "--informative", "0"],
                 "images": ["--height", "6", "--width", "6"]}[kind]
        assert run("gen-data", "--kind", kind, "--out", str(data), "--n", "4", *shape) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\n")
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model),
                   "--arch", arch) == 2
        assert "does not apply" in capsys.readouterr().err
        assert not model.exists()

    def test_image_mlp_trains_and_its_plis_routes_agree(self, tmp_path, capsys):
        data = tmp_path / "tiny.plds"
        assert run("gen-data", "--kind", "images", "--out", str(data), "--n", "6",
                   "--seed", "1", "--height", "8", "--width", "8", "--ood", "1") == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.05\nepochs = 2\nbatch_size = 4\n")
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model),
                   "--arch", "mlp") == 0
        spec, _ = models.load_checkpoint(model)
        assert isinstance(spec.layers[0], models.Flatten) and spec.loss == models.CROSS_ENTROPY
        out = tmp_path / "plis"
        assert run("analyze-plis", "--model", str(model), "--data", str(data),
                   "--out", str(out), "--compare-expanded") == 0
        assert "max relative deviation" in capsys.readouterr().out
        assert len((out / "plis_report.csv").read_text().splitlines()) == 8


class TestAnalyzeAndRank:
    def test_plis_outputs_and_compare_expanded(self, image_setup, capsys):
        tmp_path, data, model = image_setup
        out = tmp_path / "plis"
        assert run("analyze-plis", "--model", str(model), "--data", str(data),
                   "--sigma", "0.8", "--out", str(out), "--compare-expanded") == 0
        assert "max relative deviation" in capsys.readouterr().out
        report = (out / "plis_report.csv").read_text().splitlines()
        assert report[0] == "subject_id,pl,plis_norm,mode,sigma"
        assert len(report) == 15  # 12 glyphs + 2 OOD + header
        assert (out / "plis_img00000.csv").exists()
        assert (out / "plis_img00000.pgm").exists()

    @pytest.fixture()
    def tabular_setup(self, tmp_path):
        data = tmp_path / "reg.csv"
        assert run("gen-data", "--kind", "regression", "--out", str(data), "--n", "8",
                   "--d", "4", "--informative", "1", "--seed", "4") == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 2\nbatch_size = 8\nseed = 2\n")
        model = tmp_path / "m.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model),
                   "--arch", "mlp") == 0
        return tmp_path, data, model

    def test_compare_expanded_passes_when_every_subject_is_clipped(self, tabular_setup):
        # a saturated clip leaves expanded PLIS at roundoff; the check's floor must absorb it
        tmp_path, data, model = tabular_setup
        out = tmp_path / "plis"
        assert run("analyze-plis", "--model", str(model), "--data", str(data), "--sigma", "3.0",
                   "--clip", "1e-3", "--out", str(out), "--compare-expanded") == 0
        rows = (out / "plis_report.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert all(float(r.split(",")[1]) == pytest.approx(1e-6 / 9.0, rel=1e-12) for r in rows)

    @pytest.mark.parametrize("clip", [None, "1e-3"])
    def test_compare_expanded_fails_on_a_corrupted_route(self, tabular_setup, monkeypatch, clip):
        tmp_path, data, model = tabular_setup
        honest = plis.plis_reports

        def corrupted(*args, expanded=False, **kwargs):
            reports = honest(*args, expanded=expanded, **kwargs)
            if expanded:  # off by 1e-6 of the check's scale in the first entry
                for r in reports:
                    r.plis = r.plis.copy()
                    r.plis[0] += 1e-6 * max(np.abs(r.plis).max(), r.pl)
            return reports

        monkeypatch.setattr(plis, "plis_reports", corrupted)
        argv = ["analyze-plis", "--model", str(model), "--data", str(data), "--sigma", "3.0",
                "--out", str(tmp_path / "plis"), "--compare-expanded"]
        assert run(*argv, *(["--clip", clip] if clip else [])) == 2

    def test_rank_under_a_clip_is_finite_for_an_exactly_fit_row(self, tmp_path):
        # row 1 has a zero parameter gradient: the clip's rule must not divide 0 by 0
        spec = models.ModelSpec((models.Linear(2, 1, bias=False),), models.MSE)
        model = tmp_path / "m.plck"
        models.save_checkpoint(model, spec, models.ParamSet(np.array([1.0, 2.0]),
                                                             models.layout_for(spec)))
        data = tmp_path / "rows.csv"
        data.write_text("x0,x1,y\n1,1,3\n1,0,0\n")
        out = tmp_path / "ranked.csv"
        assert run("rank", "--model", str(model), "--data", str(data), "--sigma", "1",
                   "--clip", "1", "--out", str(out)) == 0
        rows = dict(r.split(",", 1) for r in out.read_text().splitlines()[1:])
        assert rows["row00000"] == "0.0,0.0"
        assert all(np.isfinite(float(v)) for r in rows.values() for v in r.split(","))

    def test_saturated_subjects_get_flat_heatmaps_and_rank_by_id(self, image_setup):
        # at clip 1e-3 every gradient saturates: PL is C^2/sigma^2, PLIS is
        # exactly 0, each heatmap is flat mid-gray and rank falls back to ids
        tmp_path, data, model = image_setup
        out = tmp_path / "plis"
        assert run("analyze-plis", "--model", str(model), "--data", str(data), "--sigma", "1",
                   "--clip", "1e-3", "--out", str(out)) == 0
        rows = [r.split(",") for r in (out / "plis_report.csv").read_text().splitlines()[1:]]
        assert len(rows) == 14
        for subject_id, pl, norm, *_ in rows:
            assert float(pl) == pytest.approx(1e-6, rel=1e-12) and float(norm) == 0.0
            assert (out / f"plis_{subject_id}.pgm").read_bytes() == b"P5\n12 12\n255\n" + bytes(
                [128] * 144
            )
        ranked = tmp_path / "ranked.csv"
        assert run("rank", "--model", str(model), "--data", str(data), "--sigma", "1",
                   "--clip", "1e-3", "--out", str(ranked)) == 0
        ids = [r.split(",")[0] for r in ranked.read_text().splitlines()[1:]]
        assert ids == sorted(r[0] for r in rows)

    def test_rank_matches_library_ordering(self, image_setup):
        tmp_path, data, model = image_setup
        out = tmp_path / "ranked.csv"
        assert run("rank", "--model", str(model), "--data", str(data), "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        norms = [float(r.split(",")[2]) for r in rows]
        assert norms == sorted(norms, reverse=True)
        assert len(rows) == 14

    def test_fil_and_jacsens_on_tabular(self, tmp_path):
        data = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--out", str(data), "--n", "8",
            "--d", "4", "--informative", "1", "--seed", "4")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr = 0.1\nepochs = 2\nbatch_size = 8\nseed = 2\n")
        model = tmp_path / "m.plck"
        run("train", "--config", str(cfg), "--data", str(data), "--out", str(model))
        fil_dir = tmp_path / "fil"
        assert run("analyze-fil", "--model", str(model), "--data", str(data),
                   "--sigma", "1.5", "--out", str(fil_dir)) == 0
        header = (fil_dir / "fil_report.csv").read_text().splitlines()[0]
        assert header == "subject_id,fil_subject,a0,a1,a2,a3"
        jac_dir = tmp_path / "jac"
        assert run("analyze-jacsens", "--model", str(model), "--data", str(data),
                   "--out", str(jac_dir)) == 0
        assert (jac_dir / "jacsens_report.csv").exists()

    def test_fil_and_jacsens_cells_are_plain_floats(self, tabular_setup):
        # a numpy scalar's repr names its type: np.float64(3.46...) is no CSV number
        tmp_path, data, model = tabular_setup
        assert run("analyze-fil", "--model", str(model), "--data", str(data),
                   "--sigma", "1.5", "--out", str(tmp_path / "fil")) == 0
        assert run("analyze-jacsens", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "jac")) == 0
        for report in (tmp_path / "fil" / "fil_report.csv", tmp_path / "jac" / "jacsens_report.csv"):
            rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
            assert len(rows) == 8
            for row in rows:
                assert row[0].startswith("row")
                for cell in row[1:]:
                    float(cell)

    @pytest.fixture()
    def small_image_setup(self, tmp_path):
        data = tmp_path / "small.plds"
        assert run("gen-data", "--kind", "images", "--out", str(data), "--n", "4",
                   "--seed", "2", "--height", "8", "--width", "8", "--ood", "1") == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("lr = 0.05\nepochs = 1\nbatch_size = 5\nseed = 3\n")
        model = tmp_path / "model.plck"
        assert run("train", "--config", str(cfg), "--data", str(data), "--out", str(model)) == 0
        return tmp_path, data, model

    @pytest.mark.parametrize("setup", ["tabular_setup", "small_image_setup"])
    def test_fil_and_jacsens_byte_identical_across_runs(self, request, setup):
        tmp_path, data, model = request.getfixturevalue(setup)
        written = []
        for run_dir in ("run1", "run2"):
            fil, jac = tmp_path / run_dir / "fil", tmp_path / run_dir / "jac"
            assert run("analyze-fil", "--model", str(model), "--data", str(data),
                       "--sigma", "1.5", "--out", str(fil)) == 0
            assert run("analyze-jacsens", "--model", str(model), "--data", str(data),
                       "--out", str(jac)) == 0
            written.append([(fil / "fil_report.csv").read_bytes(),
                            (jac / "jacsens_report.csv").read_bytes()])
        assert written[0] == written[1]

    def test_jacsens_takes_no_sigma(self, tabular_setup, capsys):
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        assert run("analyze-jacsens", "--model", str(model), "--data", str(data),
                   "--sigma", "1", "--out", str(out)) == 1
        assert "unrecognized arguments: --sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "analyze-plis", "analyze-fil"])
    def test_infinite_sigma_is_rejected(self, tabular_setup, capsys, command):
        # at sigma = inf every PL, PLIS and FIL would read 0
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        assert run(command, "--model", str(model), "--data", str(data),
                   "--sigma", "inf", "--out", str(out)) == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    @pytest.mark.parametrize("command", ["rank", "analyze-plis", "analyze-fil"])
    def test_sigma_whose_square_is_not_normal_is_rejected(self, tabular_setup, capsys,
                                                          command, sigma):
        # sigma^2 = 0 at 1e-200, a division by zero; at 1e200 every PL, PLIS
        # and FIL would read 0
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        assert run(command, "--model", str(model), "--data", str(data),
                   "--sigma", sigma, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "sigma must have a square that is a normal float" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, sigma, what", [
        ("analyze-plis", "1e-153", "PLIS norm"),
        ("rank", "1e-153", "PLIS norm"),
        ("analyze-fil", "2e-154", "Fisher information"),
    ], ids=["analyze-plis", "rank", "analyze-fil"])
    def test_sigma_that_overflows_a_result_is_refused(self, tabular_setup, capsys,
                                                      command, sigma, what):
        # sigma^2 is a normal float, but every PLIS norm, or the FIM, overflows
        # when divided by it: each would be written as inf
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--model", str(model), "--data", str(data),
                       "--sigma", sigma, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: subject 'row00000': its {what} is not finite"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, what", [
        ("rank", [], "privacy loss"),
        ("analyze-plis", ["--sigma", "1"], "privacy loss"),
        ("analyze-fil", ["--sigma", "1"], "input Jacobian"),
        ("analyze-jacsens", [], "input Jacobian"),
    ], ids=["rank", "analyze-plis", "analyze-fil", "analyze-jacsens"])
    def test_gradient_that_overflows_is_refused(self, tmp_path, capsys, command, flags, what):
        # row00001's squared residual overflows: its gradient, PL and Jacobian
        # would be infinite and its PLIS NaN
        spec = models.ModelSpec((models.Linear(2, 1),), models.MSE)
        model = tmp_path / "linear.plck"
        models.save_checkpoint(model, spec, models.ParamSet(np.array([0.5, -0.25, 0.1]),
                                                             models.layout_for(spec)))
        data = tmp_path / "rows.csv"
        data.write_text("x0,x1,y\n1,2,0.5\n1e308,1e308,1e308\n")
        out = tmp_path / "never"
        assert run(command, "--model", str(model), "--data", str(data), *flags,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: subject 'row00001': its {what} is not finite"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, what", [
        ("analyze-fil", ["--sigma", "1"], "Fisher information"),
        ("analyze-jacsens", [], "Jacobian's Gram matrix J^T J"),
    ], ids=["analyze-fil", "analyze-jacsens"])
    def test_jacobian_whose_gram_matrix_overflows_is_refused(self, tmp_path, capsys, command,
                                                             flags, what):
        # weights of 1e160 on 4 features: the input Jacobian is finite (up to
        # about 1e161), its Gram matrix J^T J is not
        spec = models.ModelSpec((models.Linear(4, 1),), models.MSE)
        model = tmp_path / "big.plck"
        models.save_checkpoint(model, spec, models.ParamSet(np.array([1e160] * 4 + [0.0]),
                                                             models.layout_for(spec)))
        data = tmp_path / "rows.csv"
        data.write_text("x0,x1,x2,x3,y\n0.5,-0.25,0.1,0.3,0.2\n")
        out = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--model", str(model), "--data", str(data), *flags,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: subject 'row00000': its {what} is not finite"]
        assert not out.exists()

    @pytest.mark.parametrize("command, sigma", [("analyze-fil", "-1"), ("analyze-plis", "0")])
    def test_failed_analysis_leaves_no_out_directory(self, tabular_setup, command, sigma):
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        assert run(command, "--model", str(model), "--data", str(data),
                   "--sigma", sigma, "--out", str(out)) == 2
        assert not out.exists()

    def test_clip_whose_square_overflows_is_rejected(self, tabular_setup, capsys):
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        assert run("rank", "--model", str(model), "--data", str(data),
                   "--clip", "1e200", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "whose square is a normal float" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("rank", ["--clip", "1"]),
        ("analyze-plis", ["--sigma", "1", "--clip", "1"]),
        ("attack", ["--subject", "row00001", "--dp-clip", "1", "--dp-sigma", "1"]),
    ], ids=["rank", "analyze-plis", "attack"])
    def test_row_that_clipping_would_drop_is_refused(self, tmp_path, capsys, command, flags):
        # w = 0, y = 1: subject row00001's gradient -2e154 has a squared norm
        # that overflows, so its clipped row would be zero
        data = tmp_path / "huge.csv"
        data.write_text("x0,y\n1.0,1.0\n1e154,1.0\n")
        spec = models.ModelSpec((models.Linear(1, 1, bias=False),), models.MSE)
        model = tmp_path / "zero.plck"
        models.save_checkpoint(model, spec, models.ParamSet(np.zeros(1), models.layout_for(spec)))
        out = tmp_path / "never"
        assert run(command, "--model", str(model), "--data", str(data), *flags,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: subject 'row00001': its gradient's squared norm overflows; "
                       "clipping would drop its row"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "analyze-plis"])
    def test_infinite_clip_is_rejected(self, tabular_setup, capsys, command):
        tmp_path, data, model = tabular_setup
        out = tmp_path / "never"
        assert run(command, "--model", str(model), "--data", str(data),
                   "--clip", "inf", "--out", str(out)) == 2
        assert "finite positive clip" in capsys.readouterr().err
        assert not out.exists()


class TestAttackCommand:
    def test_attack_writes_artifacts(self, image_setup):
        tmp_path, data, model = image_setup
        out = tmp_path / "atk"
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00003", "--out", str(out),
                   "--iterations", "10", "--restarts", "1", "--seed", "2") == 0
        assert (out / "reconstruction.csv").exists()
        assert (out / "reconstruction.pgm").exists()
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,match_loss" and len(trace) == 11
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "ssim,psnr"

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], attack_mod.AttackConfig()),
            (["--iterations", "7", "--lr", "0.5", "--restarts", "3", "--seed", "4", "--tv", "0",
              "--match", "l2", "--monotone"],
             attack_mod.AttackConfig(7, 0.5, 3, 4, 0.0, attack_mod.L2, True)),
        ],
        ids=["no-optional-flags", "every-flag"],
    )
    def test_flags_build_the_attack_config(self, image_setup, monkeypatch, flags, expected):
        tmp_path, data, model = image_setup
        seen = []

        def stop(spec, params, observed, label, config, input_shape=None):
            seen.append(config)
            raise PlisLabError("stopped before the attack runs")

        monkeypatch.setattr(attack_mod, "reconstruct", stop)
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00001", "--out", str(tmp_path / "x"), *flags) == 2
        assert [repr(c) for c in seen] == [repr(expected)]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tv", "nan", "total-variation weight must be finite and >= 0, got nan"),
            ("--tv", "inf", "total-variation weight must be finite and >= 0, got inf"),
            ("--lr", "inf", "attack learning rate must be finite and positive, got inf"),
            ("--lr", "-1", "attack learning rate must be finite and positive, got -1.0"),
        ],
    )
    def test_settings_without_effect_are_refused_before_any_file_is_read(
        self, tmp_path, capsys, flag, value, message
    ):
        missing, out = tmp_path / "missing", tmp_path / "x"
        assert run("attack", "--model", str(missing), "--data", str(missing),
                   "--subject", "img00001", "--out", str(out), flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            (0.0, "observed gradient is all zeros: the cosine match has no direction"),
            (np.nan, "observed gradient has norm nan: its entries and their squares' sum "
                     "must be finite"),
        ],
        ids=["zero", "nan"],
    )
    def test_an_observed_gradient_no_restart_could_match_ends_in_one_error_line(
        self, image_setup, monkeypatch, capsys, value, message
    ):
        """Refused before any restart runs: exit 2, one error line, no output."""
        tmp_path, data, model = image_setup
        capsys.readouterr()
        monkeypatch.setattr(
            attack_mod, "observe_gradient",
            lambda spec, params, subject, dp=None: np.full(params.count, value),
        )
        out = tmp_path / "atk"
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00001", "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("height, width", [(1, 12), (9, 1)])
    @pytest.mark.parametrize("flags", [[], ["--monotone"]], ids=["adam", "monotone"])
    def test_images_one_pixel_high_or_wide_end_in_one_error_line(
        self, tmp_path, capsys, height, width, flags
    ):
        """SSIM refuses such images, with exit 2 and no traceback, before the
        attack runs: no output is written."""
        data, model, cfg = tmp_path / "d.plds", tmp_path / "m.plck", tmp_path / "t.cfg"
        cfg.write_text("lr = 0.05\nepochs = 2\nbatch_size = 8\nseed = 3\n")
        assert run("gen-data", "--kind", "images", "--out", str(data), "--n", "8",
                   "--height", str(height), "--width", str(width)) == 0
        assert run("train", "--config", str(cfg), "--data", str(data), "--arch", "mlp",
                   "--out", str(model)) == 0
        capsys.readouterr()
        out = tmp_path / "x"
        assert run("attack", "--model", str(model), "--data", str(data), "--subject",
                   "img00001", "--out", str(out), "--iterations", "3", *flags) == 2
        assert capsys.readouterr().err == (
            f"error: ssim: images must be at least 8x8, got ({height}, {width})\n"
        )
        assert not out.exists()

    def test_unknown_subject_is_runtime_error(self, image_setup):
        tmp_path, data, model = image_setup
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img99999", "--out", str(tmp_path / "x"),
                   "--iterations", "1") == 2

    def test_dp_flags_must_come_together(self, image_setup):
        tmp_path, data, model = image_setup
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00001", "--out", str(tmp_path / "x"),
                   "--iterations", "1", "--dp-sigma", "1.0") == 1

    def test_dp_seed_alone_is_a_usage_error(self, image_setup, capsys):
        tmp_path, data, model = image_setup
        out = tmp_path / "x"
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00001", "--out", str(out), "--iterations", "1",
                   "--dp-seed", "5") == 1
        assert "--dp-seed with them" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--dp-clip", "2", "--dp-sigma", "0.5"], attack_mod.DpRelease(2.0, 0.5, 0)),
            (["--dp-clip", "2", "--dp-sigma", "0.5", "--dp-seed", "5"],
             attack_mod.DpRelease(2.0, 0.5, 5)),
        ],
        ids=["default-seed", "given-seed"],
    )
    def test_dp_flags_build_the_release(self, image_setup, monkeypatch, flags, expected):
        tmp_path, data, model = image_setup
        seen = []

        def stop(spec, params, subject, dp=None):
            seen.append(dp)
            raise PlisLabError("stopped before the release")

        monkeypatch.setattr(attack_mod, "observe_gradient", stop)
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00001", "--out", str(tmp_path / "x"), *flags) == 2
        assert seen == [expected]

    def test_negative_dp_sigma_is_rejected(self, image_setup, capsys):
        tmp_path, data, model = image_setup
        out = tmp_path / "x"
        assert run("attack", "--model", str(model), "--data", str(data),
                   "--subject", "img00001", "--out", str(out), "--iterations", "1",
                   "--dp-clip", "1", "--dp-sigma", "-1") == 2
        assert "noise multiplier" in capsys.readouterr().err
        assert not out.exists()


def test_full_pipeline_byte_identical_across_runs(tmp_path):
    def pipeline(root):
        os.makedirs(root)
        data = root / "d.plds"
        run("gen-data", "--kind", "images", "--out", str(data), "--n", "8",
            "--seed", "4", "--height", "10", "--width", "10", "--ood", "1")
        cfg = root / "c.cfg"
        cfg.write_text("lr = 0.05\nepochs = 2\nbatch_size = 4\nseed = 6\nprivate = true\n"
                       "clip = 1.0\nsigma = 1.5\n")
        model = root / "m.plck"
        trace = root / "t.csv"
        run("train", "--config", str(cfg), "--data", str(data), "--out", str(model),
            "--trace-out", str(trace))
        plis_dir = root / "plis"
        run("analyze-plis", "--model", str(model), "--data", str(data),
            "--sigma", "1.5", "--out", str(plis_dir))
        atk = root / "atk"
        run("attack", "--model", str(model), "--data", str(data), "--subject", "img00002",
            "--out", str(atk), "--iterations", "6", "--restarts", "1", "--seed", "1")
        names = ["d.plds", "m.plck", "t.csv", "plis/plis_report.csv",
                 "plis/plis_img00000.csv", "plis/plis_img00000.pgm",
                 "atk/reconstruction.csv", "atk/trace.csv", "atk/metrics.csv"]
        return {name: (root / name).read_bytes() for name in names}

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first == second
