"""Random number generator helpers.

All stochastic components of the library (graph generators, query
generators, decomposition tie-breaks) accept either a seed, an existing
:class:`random.Random` instance, or ``None``.  :func:`ensure_rng`
normalizes those three cases into a ``random.Random`` so call sites stay
deterministic when a seed is provided and remain easy to test.

The vectorized generators draw from ``numpy`` instead; :func:`ensure_generator`
performs the same normalization for ``numpy.random.Generator`` and bridges
the two worlds deterministically: a ``random.Random`` passed to a vectorized
component yields a child ``Generator`` seeded from the Random's own stream,
so one seed still drives an entire pipeline reproducibly.
"""

from __future__ import annotations

import random

import numpy as np

#: Any seed-like value the library's stochastic components accept.
SeedLike = int | random.Random | np.random.Generator | None


def ensure_rng(seed_or_rng: SeedLike) -> random.Random:
    """Return a ``random.Random`` for any seed-like value.

    Args:
        seed_or_rng: an integer seed, an existing ``random.Random``
            (returned unchanged), a ``numpy.random.Generator`` (a child
            ``Random`` is seeded from one draw of its stream — the mirror
            of :func:`ensure_generator`'s bridge), or ``None`` for an
            unseeded generator.

    Returns:
        A ``random.Random`` instance.
    """
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    if isinstance(seed_or_rng, np.random.Generator):
        return random.Random(int(seed_or_rng.integers(0, 2**63, dtype=np.int64)))
    if seed_or_rng is None:
        return random.Random()
    return random.Random(seed_or_rng)


def derive_rng(rng: random.Random, salt: str) -> random.Random:
    """Derive an independent child RNG from ``rng`` using a string salt.

    Useful when one seeded generator must drive several independent
    stochastic stages without the stages perturbing each other's streams.
    """
    return random.Random((rng.random(), salt).__hash__())


def ensure_generator(
    seed_or_rng: int | random.Random | np.random.Generator | None,
) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any seed-like value.

    Args:
        seed_or_rng: an integer seed, an existing ``numpy.random.Generator``
            (returned unchanged), a ``random.Random`` (a child generator is
            seeded from its stream, deterministically advancing it), or
            ``None`` for OS entropy.

    Returns:
        A ``numpy.random.Generator`` (PCG64).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, random.Random):
        # Deterministic bridge: one 128-bit draw from the Random's stream
        # seeds the Generator, so a shared random.Random keeps downstream
        # vectorized stages reproducible (and independent of each other).
        return np.random.default_rng(seed_or_rng.getrandbits(128))
    return np.random.default_rng(seed_or_rng)
