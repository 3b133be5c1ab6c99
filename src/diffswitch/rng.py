"""Reproducible random streams for Monte Carlo replication.

Every replicate derives its own generator from (master seed, replicate
index) through numpy's SeedSequence spawn keys, so results do not depend
on the order in which replicates are simulated or how they are batched.
`replicate_rngs` gives the same streams, bit for bit, a stack at a time:
it hashes the stack's spawn keys in one vectorised pass of SeedSequence's
mixing (NEP 19). numpy.random is imported on first use, not at import.
"""

import functools

import numpy as np

from .errors import InvalidParam

DEFAULT_SEED = 1729

# SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def replicate_rng(seed, *indices):
    """Generator for one replicate, keyed by (seed, index...).

    Distinct index tuples give statistically independent streams; the
    mapping is pure, so the same tuple always yields the same stream.
    """
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(indices)))


def check_seed(seed):
    """Every stream's one seed check: numpy would also take None, and draw OS entropy."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParam(f"seed must be a nonnegative integer, got {seed!r}")


def _hash_consts(init, mult, count):
    """SeedSequence's hash constant init * mult**i mod 2**32, for i = 0..count."""
    return np.array([init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(count + 1)], np.uint32)


def _hashmix(values, consts):
    """SeedSequence's hash of values[..., i] while its constant steps consts[i] -> consts[i+1]."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ (values >> 16)


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)  # generate_state(4, uint64) makes 8 words


def replicate_rngs(seed, *prefix, reps):
    """[replicate_rng(seed, *prefix, r) for r in reps], every draw bit-equal.

    One SeedSequence(seed, spawn_key=prefix) is built per call and its
    pool mixed with every final word r at once. An index outside
    [0, 2**32) takes the one-stream path. The generators'
    `bit_generator.seed_seq` holds only the four PCG64 seed words: it is
    not a SeedSequence and cannot spawn.
    """
    check_seed(seed)
    reps = [r.__index__() for r in reps]
    if reps and not 0 <= min(reps) <= max(reps) < 1 << 32:
        return [replicate_rng(seed, *prefix, r) for r in reps]
    parent = np.random.SeedSequence(seed, spawn_key=prefix)
    # Mixing stepped the hash constant 4 times per entropy word, the seed
    # zero-padded to 4 words.
    sizes = [max(1, -(-v.__index__().bit_length() // 32)) for v in (parent.entropy, *prefix)]
    steps = 4 * (max(4, sizes[0]) + sum(sizes[1:]))
    mix_consts = _hash_consts(_INIT_A * _MULT_A**steps, _MULT_A, 4)
    pool = _MIX_L * parent.pool - _MIX_R * _hashmix(np.array(reps, np.uint32)[:, None], mix_consts)
    state = _hashmix(np.tile(pool ^ (pool >> 16), 2), _STATE_CONSTS)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    SeedWords, PCG64, Generator = _seed_words(), np.random.PCG64, np.random.Generator
    return [Generator(PCG64(SeedWords(w))) for w in words]


@functools.cache
def _seed_words():
    """ISeedSequence of precomputed PCG64 seed words, defined on first use."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise NotImplementedError("only the four uint64 PCG64 seed words are stored")
            return self.words

    return SeedWords
