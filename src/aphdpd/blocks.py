"""The one block runner behind every long stage: the predistortion engine,
the TX chain, the Welch PSD and a carrier's frequency shift and gain.

A stage splits its stream into blocks, computes each block by a function of
the block's start alone, and either writes disjoint output slices or returns
one partial result per block. Results come back in the order of the starts,
so a caller that reduces them in that order gets the serial reduction order
at any worker count: the worker count never changes a bit. The engine and
the TX chain write theirs through `map_blocks`.

Each block runs under numpy's error state over="raise", invalid="raise":
a block that overflows raises FloatingPointError in the thread that hit
it, instead of warning and writing inf. The state is set in the block
function because numpy keeps it per context and a pool thread starts in
a fresh one, so a caller's `np.errstate` would not reach it. Each stage
that can overflow turns the error into one that names the stage.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import ConfigurationError

# Samples per block of the elementwise stages (the TX chain, a carrier's
# frequency shift and gain): keeps their complex128 temporaries cache-sized
# and their working memory independent of the buffer length.
BLOCK_LEN = 65536


def run_blocks(fn, starts, n_workers: int) -> list:
    """[fn(start) for start in starts], computed on up to `n_workers` threads,
    each block under the error state above.

    One worker or one block runs inline on the calling thread; otherwise a
    pool of min(n_workers, blocks) threads shares the blocks. An exception
    raised by any block propagates to the caller.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    starts = list(starts)

    def block(start: int):
        with np.errstate(over="raise", invalid="raise"):
            return fn(start)

    if n_workers == 1 or len(starts) <= 1:
        return [block(start) for start in starts]
    with ThreadPoolExecutor(max_workers=min(n_workers, len(starts))) as executor:
        return list(executor.map(block, starts))


def map_blocks(stage, x, block_len: int, n_workers: int, workspace, halo: int = 0):
    """The complex64 output of `stage` over `x`, in blocks of `block_len`
    samples on up to `n_workers` threads (see `run_blocks`).

    For the block [start, end), `stage(window, ws, skip, out)` writes the
    block's outputs into `out`, the result's slice [start, end), from the
    window x[start - skip:end], which carries `skip` = min(halo, start)
    preceding samples. Each worker thread makes its own `ws` on its first
    block, as `workspace(min(block_len + halo, len(x)))`, so no two
    workers share one and a block need allocate nothing.
    """
    n = len(x)
    out = np.empty(n, dtype=np.complex64)
    size = min(block_len + halo, n)
    local = threading.local()

    def one_block(start: int) -> None:
        try:
            ws = local.ws
        except AttributeError:
            ws = local.ws = workspace(size)
        end = min(start + block_len, n)
        window_start = max(0, start - halo)
        stage(x[window_start:end], ws, start - window_start, out[start:end])

    run_blocks(one_block, range(0, n, block_len), n_workers)
    return out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so `taskset` limits it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
