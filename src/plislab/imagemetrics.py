"""SSIM and PSNR between grayscale images on the [0, 1] range.

SSIM uses a uniform 8x8 sliding window (stride 1) with the usual
constants c1 = 0.01^2, c2 = 0.03^2 at dynamic range 1, and population
moments within each window.  The uniform window keeps the value
bit-exactly specifiable; ordering comparisons are all these scores are
used for here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlisLabError, ShapeError

WINDOW = 8
_C1 = 0.01**2
_C2 = 0.03**2

PSNR_CAP = 99.0  # sentinel for identical (or nearly identical) images


@dataclass(frozen=True)
class GrayImage:
    pixels: np.ndarray  # (h, w) float64, values in [0, 1]

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"GrayImage expects a 2-d array, got shape {arr.shape}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise PlisLabError("GrayImage pixels must lie in [0, 1]")
        object.__setattr__(self, "pixels", arr)


def _pixels(image) -> np.ndarray:
    if isinstance(image, GrayImage):
        return image.pixels
    return GrayImage(np.asarray(image)).pixels


def check_window(shape: tuple[int, int]) -> None:
    """Refuse (h, w) images smaller than one SSIM window: a ShapeError."""
    if shape[0] < WINDOW or shape[1] < WINDOW:
        raise ShapeError(f"ssim: images must be at least {WINDOW}x{WINDOW}, got {tuple(shape)}")


def ssim(a, b) -> float:
    """Mean local SSIM over all 8x8 windows; in [-1, 1], 1 iff identical."""
    pa, pb = _pixels(a), _pixels(b)
    if pa.shape != pb.shape:
        raise ShapeError(f"ssim: image shapes differ: {pa.shape} vs {pb.shape}")
    check_window(pa.shape)
    wa = np.lib.stride_tricks.sliding_window_view(pa, (WINDOW, WINDOW))
    wb = np.lib.stride_tricks.sliding_window_view(pb, (WINDOW, WINDOW))
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    var_a = (wa * wa).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) / (
        (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
    )
    return float(score.mean())


def psnr(a, b) -> float:
    """10 log10(1/mse) in dB, capped at the 99.0 sentinel for identical images."""
    pa, pb = _pixels(a), _pixels(b)
    if pa.shape != pb.shape:
        raise ShapeError(f"psnr: image shapes differ: {pa.shape} vs {pb.shape}")
    mse = float(np.mean((pa - pb) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))
