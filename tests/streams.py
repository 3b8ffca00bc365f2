"""The seeded Philox generator that the tests draw their paths from."""

import numpy as np


def philox(seed, spawn_key=()):
    """A Philox generator on ``SeedSequence(seed, spawn_key=spawn_key)``.

    Without a spawn key this is the stream of ``np.random.Philox(seed)``.
    """
    seq = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))
