"""The trial engine: fixed-size chunks of trials, each with its own RNG.

Chunk RNGs are derived from (master_seed, experiment id, chunk index). Chunk
sizes are set by the engine, never by the caller or the worker count, so
results are bitwise identical for any number of threads.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import check_int, check_seed

__all__ = ["TRIALS_PER_CHUNK", "DRAWS_PER_CHUNK", "chunk_rng", "map_chunks"]

# Trials per chunk for the experiment drivers. Their streams depend on this
# constant: chunk i always gets the same RNG and the same trial count.
TRIALS_PER_CHUNK = 4096

# Random draws per chunk for experiments that draw many values per trial, such
# as the k + 1 spacings of the stick-breaking experiments. It fixes their
# streams, and nothing else does: the kernels walk a chunk in blocks of about
# 1 MB that draw the same values.
DRAWS_PER_CHUNK = 1_000_000


def chunk_rng(master_seed: int, experiment_id: str, chunk_index: int):
    """Deterministic per-chunk generator, stable across worker counts."""
    check_seed(master_seed)
    tag = int.from_bytes(hashlib.sha256(experiment_id.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, tag, chunk_index]))


def map_chunks(fn, seed: int, experiment_id: str, trials: int, threads: int = 1,
               draws_per_trial: int | None = None) -> list:
    """Run fn(rows, rng) on each chunk of range(trials); results in chunk order.

    `rows` is the chunk's slice of range(trials), `rng` its chunk_rng. A chunk holds
    TRIALS_PER_CHUNK trials, or DRAWS_PER_CHUNK // draws_per_trial (at least one)
    given `draws_per_trial`; only the last may hold fewer.
    """
    trials = check_int("trials", trials, 1)
    threads = check_int("threads", threads, 1)
    size = (TRIALS_PER_CHUNK if draws_per_trial is None
            else max(1, DRAWS_PER_CHUNK // draws_per_trial))
    args = [(slice(start, min(start + size, trials)), chunk_rng(seed, experiment_id, i))
            for i, start in enumerate(range(0, trials, size))]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(lambda a: fn(*a), args))
    return [fn(*a) for a in args]
