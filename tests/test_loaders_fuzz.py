"""Fuzzed input to the four loaders: checkpoints, PLDS image files,
regression CSVs and DP-SGD config files.

Whatever the bytes, a loader either returns or raises a PlisLabError,
which the CLI turns into exit code 2; any other exception would reach the
user as a traceback.  Each binary loader gets random bytes and byte-level
mutations (overwritten bytes, truncation, trailing junk) of a valid file;
the text loaders get random bytes, random text and text drawn from their
own alphabet.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plislab import datasets, dpsgd, models
from plislab.errors import ConfigError, DataFormatError, PlisLabError

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _loads_or_refuses(load, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        load(path)
    except PlisLabError:
        pass


def _mutations(base: bytes):
    """base with up to 6 bytes overwritten, cut anywhere, then junk appended."""
    edits = st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, 255)), max_size=6)

    def apply(args):
        changes, cut, tail = args
        blob = bytearray(base)
        for i, v in changes:
            blob[i] = v
        return bytes(blob[:cut]) + tail

    return st.tuples(edits, st.integers(0, len(base)), st.binary(max_size=12)).map(apply)


def _checkpoint_blob(spec_text: str, payload: bytes) -> bytes:
    spec = spec_text.encode("utf-8")
    return b"PLCK" + struct.pack("<II", 1, len(spec)) + spec + payload


SPEC_ALPHABET = list("linearconv2dreluflattanhsoftplusmsecross_entropy:;|0123456789-_ é\x00")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    spec = models.ModelSpec((models.Linear(2, 1, bias=False),), models.MSE)
    path = tmp_path_factory.mktemp("valid") / "m.plck"
    models.save_checkpoint(path, spec, models.ParamSet(np.ones(2), models.layout_for(spec)))
    return path.read_bytes()


@pytest.fixture(scope="module")
def plds(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "d.plds"
    datasets.write_plds(datasets.make_glyph_images(2, 0, 3, 3), path)
    return path.read_bytes()


def test_the_mutated_files_start_out_valid(scratch, checkpoint, plds):
    scratch.write_bytes(checkpoint)
    assert models.load_checkpoint(scratch)[1].count == 2
    scratch.write_bytes(plds)
    assert datasets.load_images(scratch).n == 2


def test_load_checkpoint_raises_only_plislab_errors(scratch, checkpoint):
    spec_texts = st.text(alphabet=st.sampled_from(SPEC_ALPHABET), max_size=40)
    blobs = st.one_of(
        st.binary(max_size=64),
        _mutations(checkpoint),
        st.tuples(spec_texts, st.binary(max_size=24)).map(lambda a: _checkpoint_blob(*a)),
    )

    @FUZZ
    @given(blobs)
    def check(blob):
        _loads_or_refuses(models.load_checkpoint, scratch, blob)

    check()


def _plds_blob(header: tuple, body: bytes) -> bytes:
    return b"PLDS" + struct.pack("<IIIII", *header) + body


def test_load_images_raises_only_plislab_errors(scratch, plds):
    side = st.one_of(st.integers(0, 4), st.integers(2**14, 2**32 - 1))
    headers = st.tuples(st.sampled_from([1, 2]), st.integers(0, 2), side, side, side)

    @FUZZ
    @given(st.one_of(
        st.binary(max_size=64),
        _mutations(plds),
        st.tuples(headers, st.one_of(st.just(b""), st.binary(max_size=24))).map(
            lambda a: _plds_blob(*a)),
    ))
    def check(blob):
        _loads_or_refuses(datasets.load_images, scratch, blob)

    check()


@pytest.mark.parametrize("n, h, w", [(0, 2**20, 2**20), (1, 2**20, 2**20), (0, 0, 2**31)])
def test_load_images_refuses_an_image_too_large_for_a_record(scratch, n, h, w):
    scratch.write_bytes(_plds_blob((1, n, h, w, 2), b""))
    with pytest.raises(DataFormatError, match="too large"):
        datasets.load_images(scratch)


def _plds_pixels(*pixels: float) -> bytes:
    """A PLDS file of 1x1 images, one per pixel value."""
    body = b"".join(struct.pack("<dIB", v, 0, 0) for v in pixels)
    return _plds_blob((1, len(pixels), 1, 1, 2), body)


NAN, INF = float("nan"), float("inf")
OUT_OF_RANGE = "has a pixel that is NaN or outside"


@pytest.mark.parametrize(
    "load, blob, message",
    [
        (models.load_checkpoint,
         _checkpoint_blob("linear:2:1:0|mse", struct.pack("<2d", 1.0, NAN)),
         "checkpoint parameter 1 is not finite: nan"),
        (models.load_checkpoint,
         _checkpoint_blob("linear:2:1:0|mse", struct.pack("<2d", -INF, 1.0)),
         "checkpoint parameter 0 is not finite: -inf"),
        (datasets.load_images, _plds_pixels(0.5, NAN), rf"image 1 {OUT_OF_RANGE} \[0, 1\]"),
        (datasets.load_images, _plds_pixels(7.0, 0.5), f"image 0 {OUT_OF_RANGE}"),
        (datasets.load_images, _plds_pixels(1.0, 0.0, -0.25), f"image 2 {OUT_OF_RANGE}"),
    ],
    ids=["nan-parameter", "minus-inf-parameter", "nan-pixel", "pixel-above-one",
         "pixel-below-zero"],
)
def test_binary_loaders_refuse_numbers_out_of_range(scratch, load, blob, message):
    scratch.write_bytes(blob)
    with pytest.raises(DataFormatError, match=message):
        load(scratch)


def test_pixels_at_the_ends_of_the_range_load(scratch):
    scratch.write_bytes(_plds_pixels(0.0, 1.0))
    assert datasets.load_images(scratch).images.ravel().tolist() == [0.0, 1.0]


CSV_ALPHABET = list('xy0123456789.,-+e\n\r"\' naif\x00\té')


def test_load_regression_csv_raises_only_plislab_errors(scratch):
    text = st.text(alphabet=st.sampled_from(CSV_ALPHABET), max_size=60)
    blobs = st.one_of(
        st.binary(max_size=64),
        text.map(str.encode),
        text.map(lambda body: ("x0,y\n" + body).encode()),
    )

    @FUZZ
    @given(blobs)
    def check(blob):
        _loads_or_refuses(datasets.load_regression_csv, scratch, blob)

    check()


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"x0,\xe3y\n1,2\n", "can't decode byte 0xe3"),
        (b"\n1,2\n", "header row ending in 'y'"),
        (b"x0,y\n" + b"1" * 200_000 + b",1\n", "field larger than field limit"),
        # past the first 8 KB the file was decoded in chunks and the line miscounted
        (b"x0,y\n" + b"1,2\n" * 5000 + b"1,\xff\n", "line 5002: .* can't decode byte 0xff"),
        (b"x0,y\n0\r0,0", "ragged or empty CSV body"),
        (b"x0,y\n1,2\n3\n", "ragged or empty CSV body"),
        (b"x0,y\n1,2\nnan,1\n", "line 3: x0 is not finite: nan"),
        # blank lines are skipped and a quoted cell spans lines, yet the line is the file's
        (b"x0,y\n1,2\n\n3,inf\n", "line 4: y is not finite: inf"),
        (b'x0,y\n"\n1",2\n-inf,1\n', "line 4: x0 is not finite: -inf"),
    ],
    ids=["non-utf8-header", "blank-first-line", "oversized-field", "non-utf8-past-8k",
         "ragged-short-row-first", "ragged-short-row-last", "nan-cell",
         "inf-cell-after-a-blank-line", "minus-inf-cell-after-a-quoted-newline"],
)
def test_load_regression_csv_refuses_what_fuzzing_found(scratch, blob, message):
    scratch.write_bytes(blob)
    with pytest.raises(DataFormatError, match=message):
        datasets.load_regression_csv(scratch)


CONFIG_KEYS = ["lr", "epochs", "batch_size", "seed", "private", "clip", "sigma",
               "target_epsilon", "target_delta", "momentum"]
CONFIG_VALUES = ["0", "1", "-1", "1.5", "1e999", "nan", "inf", "-inf", "true", "yes", "",
                 "1e-300", "٣", "1_0", "0x10", " 2 ", "# 1", "=", "1=2"]
CONFIG_TEXT = st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)), max_size=8
).map(lambda kv: "\n".join(f"{k}={v}" for k, v in kv))


def test_parse_config_text_raises_only_plislab_errors():
    @FUZZ
    @given(st.one_of(st.text(max_size=60), CONFIG_TEXT))
    def check(text):
        try:
            dpsgd.parse_config_text(text)
        except PlisLabError:
            pass

    check()


def test_load_config_raises_only_plislab_errors(scratch):
    text = CONFIG_TEXT.map(str.encode)

    @FUZZ
    @given(st.one_of(st.binary(max_size=64), text,
                     st.tuples(text, st.binary(max_size=8)).map(b"\n".join)))
    def check(blob):
        _loads_or_refuses(dpsgd.load_config, scratch, blob)

    check()


def test_load_config_names_the_line_of_a_bad_byte(scratch):
    scratch.write_bytes(b"lr = 0.1\n# a comment\nepochs = \xe9\n")
    with pytest.raises(ConfigError, match=r"line 3: .* can't decode byte 0xe9"):
        dpsgd.load_config(scratch)
