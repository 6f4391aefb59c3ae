"""The one block runner behind every long stage: the predistortion engine,
the TX chain, the Welch PSD, the passes of a carrier's four-step inverse
FFT, and a carrier's frequency shift and gain.

A stage splits its stream into blocks, computes each block by a function of
the block's start alone, and either writes disjoint output slices or returns
one partial result per block. Results come back in the order of the starts,
so a caller that reduces them in that order gets the serial reduction order
at any worker count: the worker count never changes a bit. The engine and
the TX chain write theirs through `map_blocks`, in blocks of one length
rule, `default_chunk_len`: 16 Ki samples on one worker, 64 Ki on more.

Each block runs under numpy's error state over="raise", invalid="raise":
a block that overflows raises FloatingPointError in the thread that hit
it, instead of warning and writing inf. The state is set in the block
function because numpy keeps it per context and a pool thread starts in
a fresh one, so a caller's `np.errstate` would not reach it. Each stage
that can overflow turns the error into one that names the stage.

The worker threads are daemons that live as long as the process and never
hold up its exit. The first call that needs more than one worker makes a
pool of `n_workers` threads, and every later call with that count reuses
it, so a stage that calls the runner once per group of blocks (Welch)
starts no threads after its first group. One pool per worker count bounds
the threads by the sum of the distinct counts asked: `dpd` commands ask
for the usable CPU count and Welch's capped count. A call made from inside
a block runs inline, so a block never waits on the pool it occupies.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

from .exceptions import ConfigurationError

# Samples per block of the single-threaded synthesis steps (a carrier's
# frequency shift and gain, power sums, the finiteness scan): keeps their
# temporaries cache-sized and their working memory independent of the
# buffer length.
BLOCK_LEN = 65536

# The block length of every `map_blocks` stage (the engine and the TX
# chain), by worker count. One worker runs cache-sized blocks. More
# workers run longer ones: each numpy call of a block hands the GIL over,
# and at 16 Ki samples those handoffs cost more than the cache saves. At
# 16 Mi samples on a 2-vCPU x86 host (numpy 2.4): the engine on one worker
# 0.40-0.42 s at 16 Ki against 0.46-0.48 s at 64 Ki, on two workers
# 0.61-0.63 s at 16 Ki against 0.27-0.28 s at 64 Ki; the TX chain (medians
# of 5) on one worker 0.29 s at 16 Ki against 0.36 s at 64 Ki, on two
# workers 0.30 s at 16 Ki against 0.22 s at 64 Ki.
SERIAL_CHUNK_LEN = 1 << 14
PARALLEL_CHUNK_LEN = 1 << 16


def default_chunk_len(n_workers: int) -> int:
    """The block length of a `map_blocks` stage on `n_workers` workers
    when the caller gives none."""
    return SERIAL_CHUNK_LEN if n_workers == 1 else PARALLEL_CHUNK_LEN


class _Pool:
    """`n_workers` daemon threads that run the jobs of one queue.

    A job is (fn, index, start, done): its thread puts (index, fn(start),
    None), or (index, None, error) if fn raised, on the caller's `done`
    queue.
    """

    def __init__(self, n_workers: int):
        self._jobs = queue.SimpleQueue()
        for _ in range(n_workers):
            threading.Thread(target=self._serve, name="aphdpd-block", daemon=True).start()

    def _serve(self) -> None:
        while True:
            fn, index, start, done = self._jobs.get()
            try:
                outcome = (index, fn(start), None)
            except BaseException as err:  # handed to the caller, which raises it
                outcome = (index, None, err)
            done.put(outcome)
            # Hold nothing while waiting: a block's closure may reach a
            # stage's whole input and output arrays.
            del fn, start, done, outcome

    def run(self, fn, starts: list) -> list:
        """[fn(start) for start in starts] once every block has finished; if
        any raised, the exception of the first failing block in start order."""
        done = queue.SimpleQueue()
        for index, start in enumerate(starts):
            self._jobs.put((fn, index, start, done))
        outcomes = sorted((done.get() for _ in starts), key=lambda outcome: outcome[0])
        for _, _, err in outcomes:
            if err is not None:
                raise err
        return [result for _, result, _ in outcomes]


_pools: dict[int, _Pool] = {}
_pools_lock = threading.Lock()
# A child made by fork() has no pool threads, only the parent's pool objects.
os.register_at_fork(after_in_child=_pools.clear)
_in_block = threading.local()


def _pool(n_workers: int) -> _Pool:
    """The process's pool of `n_workers` threads, made on first use."""
    with _pools_lock:
        if n_workers not in _pools:
            _pools[n_workers] = _Pool(n_workers)
        return _pools[n_workers]


def run_blocks(fn, starts, n_workers: int) -> list:
    """[fn(start) for start in starts], computed on up to `n_workers` threads,
    each block under the error state above.

    One worker, one block, or a call made from inside a block runs inline
    on the calling thread. Otherwise the blocks go to the process's pool of
    `n_workers` threads, made by the first call that asks for that count
    and kept until the process exits (see the module docstring). The call
    returns once every block has finished; if any raised, it raises the
    exception of the first failing block in start order.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    starts = list(starts)

    def block(start: int):
        outer = getattr(_in_block, "active", False)
        _in_block.active = True
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(start)
        finally:
            _in_block.active = outer

    if n_workers == 1 or len(starts) <= 1 or getattr(_in_block, "active", False):
        return [block(start) for start in starts]
    return _pool(n_workers).run(block, starts)


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
