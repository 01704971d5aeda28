"""The trial engine: fixed-size chunks of trials, each with its own RNG.

Chunk RNGs are derived from (master_seed, experiment id, chunk index) and
chunk sizes are fixed by the caller, never by the worker count, so results
are bitwise identical for any number of threads.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

__all__ = ["TRIALS_PER_CHUNK", "DRAWS_PER_CHUNK", "check_seed", "chunk_rng", "map_chunks"]

# Trials per chunk for the experiment drivers. Their streams depend on this
# constant: chunk i always gets the same RNG and the same trial count.
TRIALS_PER_CHUNK = 4096

# Random draws per chunk for experiments that draw many values per trial, such
# as the k + 1 spacings of the stick-breaking experiments. It fixes their
# streams, and nothing else does: the kernels walk a chunk in blocks of about
# 1 MB that draw the same values.
DRAWS_PER_CHUNK = 1_000_000


def check_seed(master_seed: int) -> None:
    """Reject a negative master seed; every stream is derived from it."""
    if master_seed < 0:
        raise DomainError(f"the master seed must be >= 0, got {master_seed}")


def chunk_rng(master_seed: int, experiment_id: str, chunk_index: int):
    """Deterministic per-chunk generator, stable across worker counts."""
    check_seed(master_seed)
    tag = int.from_bytes(hashlib.sha256(experiment_id.encode()).digest()[:8], "big")
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, tag, chunk_index])
    )


def map_chunks(fn, seed: int, experiment_id: str, trials: int, threads: int = 1,
               trials_per_chunk: int = TRIALS_PER_CHUNK) -> list:
    """Run fn(chunk_index, chunk_trials, rng) over all chunks; results in chunk order."""
    full, rest = divmod(trials, trials_per_chunk)
    sizes = [trials_per_chunk] * full + ([rest] if rest else [])
    args = [(i, n, chunk_rng(seed, experiment_id, i)) for i, n in enumerate(sizes)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(lambda a: fn(*a), args))
    return [fn(*a) for a in args]
