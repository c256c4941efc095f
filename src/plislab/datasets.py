"""Dataset generation and ingestion.

Tabular: standardized Gaussian features where only the requested columns
drive the response.  Images: procedurally rendered glyph classes (cross
vs ring) at desk scale, with out-of-distribution injection drawn from a
visibly different generator (radial interference textures).  Nothing is
downloaded; the binary image format is bit-exact for round trips.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, DataFormatError

PLDS_MAGIC = b"PLDS"
PLDS_VERSION = 1


@dataclass(frozen=True)
class SubjectRecord:
    """One subject's input/label pair, identified for attribution."""

    id: str
    x: np.ndarray
    y: object

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))


@dataclass(frozen=True)
class TabularDataset:
    X: np.ndarray  # (n, d), columns standardized
    y: np.ndarray  # (n,)
    informative_mask: np.ndarray  # (d,) bool
    w_star: np.ndarray  # true coefficients on the informative columns

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def make_regression(
    n: int, d: int, informative, noise_sd: float, seed: int
) -> TabularDataset:
    """Standardized Gaussian design; y depends only on the informative columns."""
    if n < 2:
        raise ConfigError(f"make_regression: standardizing columns needs n >= 2 rows, got {n}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise ConfigError(f"make_regression: noise_sd must be finite and >= 0, got {noise_sd}")
    informative = sorted(set(int(i) for i in informative))
    if not informative:
        raise ConfigError("make_regression: informative set must be nonempty")
    if informative[0] < 0 or informative[-1] >= d:
        raise ConfigError(f"informative indices {informative} outside 0..{d - 1}")
    x = rng.gaussians(seed, rng.DATA_STREAM, n * d).reshape(n, d)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    # coefficients bounded away from zero so informative columns are
    # unambiguously informative relative to unit-variance features
    magnitude = 1.0 + 2.0 * rng.uniforms(seed, rng.DATA_STREAM + 1, len(informative))
    sign = np.where(rng.uniforms(seed, rng.DATA_STREAM + 2, len(informative)) < 0.5, -1.0, 1.0)
    w_star = magnitude * sign
    noise = noise_sd * rng.gaussians(seed, rng.DATA_STREAM + 3, n)
    y = x[:, informative] @ w_star + noise
    mask = np.zeros(d, dtype=bool)
    mask[informative] = True
    return TabularDataset(x, y, mask, w_star)


def save_regression_csv(dataset: TabularDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(dataset.d)] + ["y"])
        for i in range(dataset.n):
            writer.writerow([repr(float(v)) for v in dataset.X[i]] + [repr(float(dataset.y[i]))])


def load_regression_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    # decoded whole, not in chunks, so a bad byte's line is counted in the file
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: line {line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    # csv.Error is an oversized field
    try:
        header = next(reader, None)
        if not header or header[-1] != "y":
            raise DataFormatError(f"{path}: expected a header row ending in 'y'")
        rows = [[float(v) for v in row] for row in reader if row]
    except (ValueError, csv.Error) as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    # numpy refuses ragged rows with a ValueError, so they are checked first
    if not rows or any(len(row) != len(header) for row in rows):
        raise DataFormatError(f"{path}: ragged or empty CSV body")
    data = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), data.shape[1])
        # blank lines are skipped and a quoted cell can span lines, so a second
        # reader counts the row's line; its first row is the header
        reader = csv.reader(io.StringIO(text, newline=""))
        lines = [reader.line_num for cells in reader if cells]
        raise DataFormatError(
            f"{path}: line {lines[row + 1]}: {header[col]} is not finite: {float(data[row, col])}"
        )
    return data[:, :-1], data[:, -1]


# --------------------------------------------------------------------------
# images
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageDataset:
    images: np.ndarray  # (n, h, w) float64 in [0, 1]
    labels: np.ndarray  # (n,) int
    ood_flags: np.ndarray  # (n,) bool
    classes: int

    def __post_init__(self):
        if self.images.ndim != 3:
            raise DataFormatError(f"images must be (n,h,w), got shape {self.images.shape}")
        if np.any(self.labels < 0) or np.any(self.labels >= self.classes):
            raise DataFormatError("labels must lie in [0, classes)")

    @property
    def n(self) -> int:
        return self.images.shape[0]


def _render_cross(canvas: np.ndarray, u: np.ndarray, intensity: float) -> None:
    h, w = canvas.shape
    cy = int(h / 2 + (u[0] - 0.5) * 6)
    cx = int(w / 2 + (u[1] - 0.5) * 6)
    arm = int(5 + u[2] * 4)
    thick = 1 + int(u[3] * 2)
    canvas[max(cy - thick, 0) : cy + thick, max(cx - arm, 0) : cx + arm + 1] = intensity
    canvas[max(cy - arm, 0) : cy + arm + 1, max(cx - thick, 0) : cx + thick] = intensity


def _render_ring(canvas: np.ndarray, u: np.ndarray, intensity: float) -> None:
    h, w = canvas.shape
    cy = h / 2 + (u[0] - 0.5) * 6
    cx = w / 2 + (u[1] - 0.5) * 6
    radius = 5.0 + u[2] * 4.0
    yy, xx = np.mgrid[0:h, 0:w]
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    canvas[np.abs(dist - radius) <= 1.2] = intensity


def make_glyph_images(n: int, seed: int, height: int = 28, width: int = 28) -> ImageDataset:
    """Balanced cross/ring glyphs (labels 0 and 1) with jitter and pixel noise."""
    if n < 1:
        raise ConfigError(f"make_glyph_images: n must be >= 1, got {n}")
    if height < 1 or width < 1:
        raise ConfigError(f"make_glyph_images: image size must be >= 1x1, got {height}x{width}")
    images = np.zeros((n, height, width))
    labels = np.arange(n) % 2
    for i in range(n):
        u = rng.uniforms(seed, rng.DATA_STREAM + 10 + i, 8)
        intensity = 0.7 + 0.3 * u[4]
        canvas = np.zeros((height, width))
        if labels[i] == 0:
            _render_cross(canvas, u, intensity)
        else:
            _render_ring(canvas, u, intensity)
        noise = 0.05 * rng.gaussians(seed, rng.DATA_STREAM + 10 + i, height * width)
        images[i] = np.clip(canvas + noise.reshape(height, width), 0.0, 1.0)
    return ImageDataset(images, labels.astype(np.int64), np.zeros(n, dtype=bool), 2)


def make_ood_image(seed: int, index: int, height: int, width: int) -> np.ndarray:
    """Radial interference texture, visibly unlike any glyph.

    The family is deliberately tight (sub-pixel jitter in center,
    wavelength and phase): injected samples resemble each other closely
    while differing from everything in-distribution, the way several
    records lifted from one foreign dataset do.
    """
    u = rng.uniforms(seed, rng.OOD_STREAM + index, 4)
    cy = height * 0.5 + 0.25 * (2.0 * u[0] - 1.0)
    cx = width * 0.5 + 0.25 * (2.0 * u[1] - 1.0)
    wavelength = 5.95 + 0.1 * u[2]
    phase = 0.02 * np.pi * u[3]
    yy, xx = np.mgrid[0:height, 0:width]
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    texture = 0.5 + 0.45 * np.cos(2.0 * np.pi * dist / wavelength + phase)
    return np.clip(texture, 0.0, 1.0)


def inject_ood(dataset: ImageDataset, count: int, seed: int) -> ImageDataset:
    """Append `count` out-of-distribution samples with random valid labels."""
    if count < 0:
        raise ConfigError("inject_ood: count must be nonnegative")
    if count == 0:
        return dataset
    h, w = dataset.images.shape[1:]
    extra = np.stack([make_ood_image(seed, i, h, w) for i in range(count)])
    labels = (rng.uniforms(seed, rng.LABEL_STREAM, count) * dataset.classes).astype(np.int64)
    return ImageDataset(
        np.concatenate([dataset.images, extra]),
        np.concatenate([dataset.labels, labels]),
        np.concatenate([dataset.ood_flags, np.ones(count, dtype=bool)]),
        dataset.classes,
    )


# --------------------------------------------------------------------------
# bit-exact binary format (magic "PLDS")
# --------------------------------------------------------------------------


def _plds_record(h: int, w: int) -> np.dtype:
    """One packed PLDS record: the image, then its label and OOD byte."""
    return np.dtype([("image", "<f8", (h, w)), ("label", "<u4"), ("ood", "u1")])


def write_plds(dataset: ImageDataset, path) -> None:
    n, h, w = dataset.images.shape
    records = np.empty(n, dtype=_plds_record(h, w))
    records["image"] = dataset.images
    records["label"] = dataset.labels
    records["ood"] = dataset.ood_flags
    with open(path, "wb") as fh:
        fh.write(PLDS_MAGIC + struct.pack("<IIIII", PLDS_VERSION, n, h, w, dataset.classes))
        fh.write(records.tobytes())


def load_images(path) -> ImageDataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != PLDS_MAGIC:
        raise DataFormatError(f"{path}: bad magic at byte 0: {blob[:4]!r}")
    if len(blob) < 24:
        raise DataFormatError(f"{path}: truncated header at byte {len(blob)}")
    version, n, h, w, classes = struct.unpack_from("<IIIII", blob, 4)
    if version != PLDS_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    # a corrupt header can name an image too large for a numpy dtype
    try:
        record = _plds_record(h, w)
    except ValueError:
        raise DataFormatError(f"{path}: a {h}x{w} image is too large") from None
    expected = 24 + n * record.itemsize
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes, found {len(blob)} (truncation at byte {len(blob)})"
        )
    records = np.frombuffer(blob, dtype=record, count=n, offset=24)
    # NaN fails both comparisons
    in_range = (records["image"] >= 0.0) & (records["image"] <= 1.0)
    if not in_range.all():
        i = int(np.argmin(in_range)) // (h * w)
        raise DataFormatError(f"{path}: image {i} has a pixel that is NaN or outside [0, 1]")
    return ImageDataset(
        records["image"].astype(np.float64, order="C"),
        records["label"].astype(np.int64),
        records["ood"] != 0,
        classes,
    )


# --------------------------------------------------------------------------
# adapters
# --------------------------------------------------------------------------


def image_subjects(dataset: ImageDataset) -> list[SubjectRecord]:
    """Subjects with (1, h, w) inputs for single-channel conv models."""
    return [
        SubjectRecord(f"img{i:05d}", dataset.images[i][None, :, :], int(dataset.labels[i]))
        for i in range(dataset.n)
    ]


def tabular_subjects(X: np.ndarray, y: np.ndarray) -> list[SubjectRecord]:
    return [SubjectRecord(f"row{i:05d}", X[i], np.array([y[i]])) for i in range(len(y))]
