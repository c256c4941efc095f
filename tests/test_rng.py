"""The counter-based draws are pinned: a faster implementation must return
the same bits for every (seed, stream, n)."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from plislab import rng

# (seed, stream, n, sha256 prefix of gaussians(...).tobytes(), same for uniforms)
PINNED = [
    (0, 0, 1, "d1f50a088d6a93b2", "af5570f5a1810b7a"),
    (0, 0, 289, "99604bb201cd8ab5", "cb090b0679669ee5"),
    (0, 0, 19682, "475cde4e25073fe5", "aa44b7b8e94aeaf5"),
    (1, 2, 1, "46b89f5a4f40496f", "71df352070ee82d7"),
    (1, 2, 289, "00babeeef77f4a14", "6e02c2f353a07ef7"),
    (1, 2, 19682, "9be9220a5a7a9c51", "67f87dee3adb7c33"),
    (7, (2 << 40) + 5, 1, "5e2e89905ef8fc1e", "511d797292c68602"),
    (7, (2 << 40) + 5, 289, "2f289f5d379e1e02", "bf8bdce2b7a46c9f"),
    (7, (2 << 40) + 5, 19682, "d27df9bdd93181bd", "15ab826b21faf5b8"),
    (123456789, 1 << 40, 1, "cf6c31418df3b169", "13c32cc733a27e78"),
    (123456789, 1 << 40, 289, "a39126d5c6531508", "4cb512e074eba01f"),
    (123456789, 1 << 40, 19682, "df1aaa673cf7f052", "8e5675f017b6ea90"),
    (2**63 + 11, 3, 1, "6ea66f20676bcc86", "b07a25fd5bb79e40"),
    (2**63 + 11, 3, 289, "1e54816e45faf66b", "04bb55b25e6b21ed"),
    (2**63 + 11, 3, 19682, "7e67670522d40648", "68dbe4cfd44ccca0"),
]


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("seed, stream, n, gaussian, uniform", PINNED)
def test_draws_match_pinned_bits(seed, stream, n, gaussian, uniform):
    g = rng.gaussians(seed, stream, n)
    u = rng.uniforms(seed, stream, n)
    assert g.shape == u.shape == (n,)
    assert g.dtype == u.dtype == np.float64
    assert _digest(g) == gaussian
    assert _digest(u) == uniform


def test_first_draws_by_value():
    assert rng.gaussians(0, 0, 3).tolist() == [-7.790563928611105, 3.575012561317474, 0.4912978134532265]
    assert rng.uniforms(0, 0, 3).tolist() == [0.0, 0.8833108082136426, 0.43152799704850997]


def test_odd_n_drops_the_last_sine_of_the_final_pair():
    assert rng.gaussians(5, 9, 289).tobytes() == rng.gaussians(5, 9, 290)[:289].tobytes()


def test_uniform_draws_are_prefixes_of_longer_ones():
    assert rng.uniforms(5, 9, 17).tobytes() == rng.uniforms(5, 9, 300)[:17].tobytes()


def test_stream_bases_are_distinct_multiples_of_2_to_the_40():
    bases = {name: value for name, value in vars(rng).items() if name.endswith("_STREAM")}
    assert len(bases) == 7
    assert all(value > 0 and value % (1 << 40) == 0 for value in bases.values())
    assert len(set(bases.values())) == len(bases)


def test_no_module_but_rng_writes_a_stream_base():
    package = Path(__file__).resolve().parents[1] / "src" / "plislab"
    writers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "rng.py" and re.search(r"<<\s*40", path.read_text(encoding="utf-8"))]
    assert writers == []


@pytest.mark.parametrize("rows", [1, 2, 37])
@pytest.mark.parametrize("n", [1, 2, 3, 289, 19682])
def test_gaussian_rows_are_the_per_stream_draws(n, rows):
    for seed, stream in ((0, 0), (7, (2 << 40) + 5), (2**63 + 11, 2**64 - 2)):
        block = rng.gaussian_rows(seed, stream, rows, n)
        assert block.shape == (rows, n) and block.dtype == np.float64
        for r in range(rows):
            assert block[r].tobytes() == rng.gaussians(seed, stream + r, n).tobytes()
