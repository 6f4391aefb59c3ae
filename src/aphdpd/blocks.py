"""The one block runner behind every long stage: the predistortion engine,
the TX chain, the Welch PSD and a carrier's frequency shift and gain.

A stage splits its stream into blocks, computes each block by a function of
the block's start alone, and either writes disjoint output slices or returns
one partial result per block. Results come back in the order of the starts,
so a caller that reduces them in that order gets the serial reduction order
at any worker count: the worker count never changes a bit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .exceptions import ConfigurationError

# Samples per block of the elementwise stages (the TX chain, a carrier's
# frequency shift and gain): keeps their complex128 temporaries cache-sized
# and their working memory independent of the buffer length.
BLOCK_LEN = 65536


def run_blocks(fn, starts, n_workers: int) -> list:
    """[fn(start) for start in starts], computed on up to `n_workers` threads.

    One worker or one block runs inline on the calling thread; otherwise a
    pool of min(n_workers, blocks) threads shares the blocks. An exception
    raised by any block propagates to the caller.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    starts = list(starts)
    if n_workers == 1 or len(starts) <= 1:
        return [fn(start) for start in starts]
    with ThreadPoolExecutor(max_workers=min(n_workers, len(starts))) as executor:
        return list(executor.map(fn, starts))


def per_thread(make):
    """A function that returns one `make()` result per calling thread,
    made on that thread's first call.

    A stage builds one per call and hands it to its block function, so
    each worker computes its blocks in arrays it allocated once, and no
    two workers share them.
    """
    local = threading.local()

    def get():
        try:
            return local.value
        except AttributeError:
            local.value = make()
            return local.value

    return get


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so `taskset` limits it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
