"""Throughput measurement of the predistortion engine.

The measured region covers exactly one predistort_parallel call on a
pre-generated buffer with pre-compiled coefficients: no file I/O, no
waveform synthesis, no coefficient parsing. With more than one worker
the block runner keeps its thread pool for the life of the process: each
worker count's warm-up run starts the pool and the timed runs reuse it,
so the timing leaves out the pool's start-up, which a `dpd predistort`
process pays once. Throughput is samples divided by wall latency.

Before any timing, each worker configuration's output is checked
bit-for-bit against the serial reference; a benchmark of wrong results is
worse than no benchmark, so a mismatch aborts the whole run. The warm-up
run doubles as that check and its time is discarded. Latency dispersion is
reported as median (the headline) and worst-of-repeats (as minimum
throughput) because wall clocks on shared hosts jitter upward.
"""

from __future__ import annotations

import csv
import time

import numpy as np

from ._record import record
from .exceptions import ConfigurationError, CorrectnessError
from .basis import AphConfig
from .blocks import default_chunk_len
from .predistorter import CoefficientVector, predistort_parallel, predistort_serial
from .waveforms import IqBuffer, white_gaussian

BENCH_CSV_HEADER = [
    "workers",
    "chunk_len",
    "n_samples",
    "latency_s_median",
    "throughput_sps_median",
    "throughput_sps_min",
]

_BUFFER_SEED = 0x5EED
_BUFFER_RMS = 0.2
_BUFFER_RATE_HZ = 61.44e6


@record
class BenchResult:
    """Timings of one worker configuration over repeated runs."""

    workers: int
    chunk_len: int
    n_samples: int
    latencies_s: tuple[float, ...]

    @property
    def latency_s_median(self) -> float:
        """The median latency as a float, the middle one of an odd count or
        the mean of the two middle ones of an even count."""
        ordered = sorted(self.latencies_s)
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2

    @property
    def throughput_sps_median(self) -> float:
        return self.n_samples / self.latency_s_median

    @property
    def throughput_sps_min(self) -> float:
        return self.n_samples / max(self.latencies_s)


def make_bench_buffer(n_samples: int) -> IqBuffer:
    """The fixed random buffer all benchmark runs process."""
    return white_gaussian(n_samples, _BUFFER_RMS, _BUFFER_SEED, _BUFFER_RATE_HZ)


def run_bench(
    cfg: AphConfig,
    coeffs: CoefficientVector,
    n_samples: int,
    workers_list,
    chunk_len: int | None = None,
    repeats: int = 5,
) -> list[BenchResult]:
    """Time the parallel engine for each worker count; verify before timing.

    `chunk_len` None times each worker count at the engine's default,
    `default_chunk_len(workers)`.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    workers_list = [int(w) for w in workers_list]
    if not workers_list or any(w < 1 for w in workers_list):
        raise ConfigurationError(f"workers_list must hold positive counts, got {workers_list}")
    chunks = [default_chunk_len(w) if chunk_len is None else chunk_len for w in workers_list]
    if n_samples < max(chunks):
        raise ConfigurationError(
            f"n_samples ({n_samples}) must be at least chunk_len ({max(chunks)})"
        )

    buf = make_bench_buffer(n_samples)
    reference = predistort_serial(buf, coeffs, cfg).samples

    results = []
    for workers, chunk_len in zip(workers_list, chunks):
        geometry = {"chunk_len": chunk_len, "n_workers": workers}
        # Warm-up run, also the correctness gate for this configuration.
        out = predistort_parallel(buf, coeffs, cfg, **geometry).samples
        if not np.array_equal(out.view(np.float32), reference.view(np.float32)):
            n_bad = int(np.count_nonzero(out != reference))
            raise CorrectnessError(
                f"parallel output ({workers} workers, chunk {chunk_len}) differs from "
                f"serial reference in {n_bad} samples; benchmark aborted"
            )
        latencies = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            predistort_parallel(buf, coeffs, cfg, **geometry)
            latencies.append(time.perf_counter() - t0)
        results.append(BenchResult(workers, chunk_len, n_samples, tuple(latencies)))
    return results


def write_bench_csv(results, fh) -> None:
    """Write the `BENCH_CSV_HEADER` row and one row per result to an open
    text stream; open a file for it with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(BENCH_CSV_HEADER)
    for r in results:
        writer.writerow(
            [
                r.workers,
                r.chunk_len,
                r.n_samples,
                repr(r.latency_s_median),
                repr(r.throughput_sps_median),
                repr(r.throughput_sps_min),
            ]
        )
