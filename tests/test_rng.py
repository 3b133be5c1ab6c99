"""Replicate streams: the batched spawn-key hashing against one SeedSequence per stream.

`replicate_rngs` reproduces numpy's SeedSequence mixing itself, so these
tests check it against `replicate_rng` on the numpy version installed.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import diffswitch
from diffswitch.errors import InvalidParam
from diffswitch.rng import DEFAULT_SEED, replicate_rng, replicate_rngs


def assert_same_streams(seed, prefix, reps, draws=1000):
    batch = replicate_rngs(seed, *prefix, reps=reps)
    assert len(batch) == len(reps)
    for r, rng in zip(reps, batch):
        expected = replicate_rng(seed, *prefix, r).standard_normal(draws)
        assert rng.standard_normal(draws).tobytes() == expected.tobytes(), (seed, prefix, r)


def random_int(rng, max_bits):
    """A non-negative int of a random bit length up to max_bits."""
    return int.from_bytes(rng.bytes(16), "little") >> (128 - int(rng.integers(0, max_bits + 1)))


class TestReplicateRngs:
    def test_ten_thousand_random_index_tuples(self):
        rng = np.random.default_rng(2024)
        for _ in range(250):
            seed = random_int(rng, 128) << int(rng.integers(0, 2)) * 64
            prefix = tuple(random_int(rng, 80) for _ in range(int(rng.integers(0, 4))))
            reps = [random_int(rng, 32) for _ in range(38)] + [0, 2**32 - 1]
            assert_same_streams(seed, prefix, reps)

    def test_empty_reps(self):
        assert replicate_rngs(DEFAULT_SEED, reps=[]) == []
        assert replicate_rngs(DEFAULT_SEED, 3, 4, reps=range(0)) == []

    # A repeated index gets its own generator, not a shared one.
    @pytest.mark.parametrize("reps", [[0], [2**32 - 1], [0, 2**32 - 1, 7], [3, 3]])
    def test_edge_indices(self, reps):
        assert_same_streams(DEFAULT_SEED, (), reps)
        assert_same_streams(DEFAULT_SEED, (2, 1), reps)

    @pytest.mark.parametrize("reps", [[2**32], [5, 2**32, 2**64 + 3]])
    def test_index_beyond_one_word_keeps_its_stream(self, reps):
        assert_same_streams(DEFAULT_SEED, (1,), reps)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64, 2**64 + 17, 2**128, 2**130 + 5])
    @pytest.mark.parametrize("prefix", [(), (0,), (2**32,), (2**40, 3, 2**70)])
    def test_large_seeds_and_multi_word_prefixes(self, seed, prefix):
        assert_same_streams(seed, prefix, list(range(5)) + [2**31], draws=50)

    def test_numpy_integer_indices(self):
        assert_same_streams(np.int64(DEFAULT_SEED), (np.int32(2),), np.arange(4), draws=50)

    @pytest.mark.parametrize("seed", [-1, None, 1.5, "7"])
    def test_bad_seed_is_invalid_param(self, seed):
        # SeedSequence(None) would draw fresh OS entropy: a stream that no seed reproduces.
        with pytest.raises(InvalidParam, match="seed must be a nonnegative integer"):
            replicate_rng(seed)
        with pytest.raises(InvalidParam, match="seed must be a nonnegative integer"):
            replicate_rngs(seed, reps=range(2))

    @pytest.mark.parametrize("seed, prefix, reps", [(1, (-2,), [0]), (1, (), [3, -1])],
                             ids=["1-prefix1-reps1", "1-prefix2-reps2"])
    def test_negative_seed_or_index_raises_as_seed_sequence_does(self, seed, prefix, reps):
        with pytest.raises(ValueError) as expected:
            [np.random.SeedSequence(seed, spawn_key=(*prefix, r)) for r in reps]
        with pytest.raises(ValueError) as got:
            replicate_rngs(seed, *prefix, reps=reps)
        assert str(got.value) == str(expected.value)

    def test_seed_words_equal_seed_sequence_state(self):
        (rng,) = replicate_rngs(DEFAULT_SEED, 4, reps=[9])
        words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
        expected = np.random.SeedSequence(DEFAULT_SEED, spawn_key=(4, 9)).generate_state(4, np.uint64)
        assert words.tobytes() == expected.tobytes()
        with pytest.raises(NotImplementedError):
            rng.bit_generator.seed_seq.generate_state(8)


def test_import_keeps_numpy_random_out():
    """Importing any diffswitch module leaves numpy.random unloaded."""
    package_dir = os.path.dirname(diffswitch.__file__)
    modules = sorted(name[:-3] for name in os.listdir(package_dir)
                     if name.endswith(".py") and name != "__main__.py")
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {os.path.dirname(package_dir)!r})\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('diffswitch' if name == '__init__' else 'diffswitch.' + name)\n"
        "assert 'numpy.random' not in sys.modules, sorted(m for m in sys.modules if 'random' in m)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
