"""Deterministic counter-based random numbers (SplitMix64 + Box-Muller).

Every stochastic component of the package derives its draws from a
(seed, stream, index) triple, so results are reproducible bit-for-bit
across runs and platforms and independent of draw order or library
version.  Streams are cheap: distinct (seed, stream) pairs give
independent sequences without shared state.  gaussian_rows draws a block
of consecutive streams at once, row r from stream + r, each row the bits
gaussians gives for its stream; gaussians is its one-row case.
"""

from __future__ import annotations

import numpy as np

# Stream bases, one per use of a seed.  A use adds its own index (layer,
# step, restart, image) to its base, so bases sit 1 << 40 apart and never
# meet; a block of gaussian_rows covers consecutive indices of one use
# (dpsgd.train draws consecutive steps).  The next free base is 8 << 40.
INIT_STREAM = 1 << 40  # models: parameter init, one stream per layer block
NOISE_STREAM = 2 << 40  # dpsgd: the noise of each step
ATTACK_STREAM = 3 << 40  # attack: the start of each restart
OBSERVE_STREAM = 4 << 40  # attack: the noise of a DP gradient release
DATA_STREAM = 5 << 40  # datasets: regression data and glyph images
OOD_STREAM = 6 << 40  # datasets: each OOD image
LABEL_STREAM = 7 << 40  # datasets: the labels of OOD images

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod 2**64)."""
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _stream_base(seed: int, stream: int) -> int:
    return _mix(_mix(seed * _GOLDEN) ^ (stream & _MASK))


# uint64 constants, made once: numpy scalar construction is a measurable
# share of a small draw
_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_11, _U_27, _U_30, _U_31 = (np.uint64(s) for s in (11, 27, 30, 31))
_ANGLE_SCALE = 2.0 * np.pi * 2.0**-53  # a 53-bit integer to an angle in [0, 2 pi)


def _finalize(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, in place; uint64 arithmetic wraps mod 2**64."""
    z ^= z >> _U_30
    z *= _U_M1
    z ^= z >> _U_27
    z *= _U_M2
    z ^= z >> _U_31
    return z


def _raw(seed: int, stream: int, n: int) -> np.ndarray:
    ctr = np.arange(n, dtype=np.uint64)
    ctr *= _U_GOLDEN
    ctr += np.uint64(_stream_base(seed, stream))
    return _finalize(ctr)


def uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """n doubles uniform on [0, 1)."""
    return (_raw(seed, stream, n) >> _U_11).astype(np.float64) * 2.0**-53


def gaussians(seed: int, stream: int, n: int) -> np.ndarray:
    """n standard normal doubles via the Box-Muller transform."""
    return gaussian_rows(seed, stream, 1, n)[0]


def gaussian_rows(seed: int, stream: int, rows: int, n: int) -> np.ndarray:
    """(rows, n) standard normal doubles: row r is gaussians(seed, stream + r, n),
    bit for bit.

    A stream's first m = ceil(n / 2) counters give the radii and its next m
    the angles.  The block is laid out (half, row, counter), so all radii
    and all angles are each one contiguous 1-d array, as for a single row.
    """
    m = (n + 1) // 2
    if rows == 1:  # numpy's uint64 ops take about twice as long on one entry as on two
        bases = np.uint64(_stream_base(seed, stream))
    else:  # each row's _stream_base in one pass: uint64 addition wraps as & _MASK does
        bases = np.arange(rows, dtype=np.uint64).reshape(rows, 1)
        bases += np.uint64(stream & _MASK)
        bases ^= np.uint64(_mix(seed * _GOLDEN))
        _finalize(bases)
    ctr = np.arange(2 * m, dtype=np.uint64)
    ctr *= _U_GOLDEN
    z = (ctr.reshape(2, 1, m) + bases).reshape(-1)
    _finalize(z)
    z >>= _U_11
    u = z.astype(np.float64)
    u1, theta = u[: rows * m], u[rows * m :]
    # u1 in (0, 1] so log(u1) is finite
    u1 += 1.0
    u1 *= 2.0**-53
    r = np.log(u1)
    r *= -2.0
    np.sqrt(r, out=r)
    # one rounding either way: scaling by 2^-53 is exact
    theta *= _ANGLE_SCALE
    # radius and angle k of the block are entries 2k and 2k + 1 of the
    # row-major (rows, 2m) output
    out = np.empty(rows * 2 * m)
    np.multiply(r, np.cos(theta), out=out[0::2])
    np.sin(theta, out=theta)
    np.multiply(r, theta, out=out[1::2])
    return out.reshape(rows, 2 * m)[:, :n]
