"""Deterministic random-stream derivation.

Every experiment draws from a tree of streams rooted at a single master
seed.  Child streams are identified by integer key tuples, so any trial
can be replayed in isolation and results do not depend on worker count
or execution order.

Layout used by the Monte-Carlo driver, all relative to the master seed:

    (gi, 0)        sensor placement for geometry ``gi``
    (gi, 1, m)     observation/channel noise and estimator restarts for
                   round ``m`` of geometry ``gi``

``run_trials`` derives the ``(1, m)`` suffix itself; callers hand it the
per-geometry stream ``(gi,)`` and keep namespace 0 for placement.
"""

from __future__ import annotations

import numpy as np

# Namespace constants for per-geometry substreams.
PLACEMENT_NS = 0
ROUND_NS = 1


def root_stream(master_seed: int) -> np.random.SeedSequence:
    """Stream at the root of the derivation tree."""
    return np.random.SeedSequence(master_seed)


def substream(parent: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Child stream of ``parent`` at the given integer key path.

    Uses SeedSequence spawn keys, which hash (entropy, spawn_key) into the
    child state, so derivation is stable across processes and platforms.
    """
    return np.random.SeedSequence(
        entropy=parent.entropy, spawn_key=tuple(parent.spawn_key) + key
    )


def generator(stream: np.random.SeedSequence) -> np.random.Generator:
    """Fresh PCG64 generator seeded from ``stream``."""
    return np.random.default_rng(stream)
