"""Reproducible random streams for Monte Carlo replication.

Every replicate derives its own generator from (master seed, replicate
index) through numpy's SeedSequence spawn keys, so results do not depend
on the order in which replicates are simulated or how they are batched.
"""

import numpy as np

DEFAULT_SEED = 1729


def replicate_rng(seed, *indices):
    """Generator for one replicate, keyed by (seed, index...).

    Distinct index tuples give statistically independent streams; the
    mapping is pure, so the same tuple always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(indices)))
