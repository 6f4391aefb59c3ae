"""Benchmark harness: result arithmetic, the pre-timing correctness check,
and the CSV schema. Wall-clock numbers themselves are not asserted — only
their bookkeeping."""

from __future__ import annotations

import csv
import statistics

import numpy as np
import pytest

import aphdpd.bench
from aphdpd import (
    AphConfig,
    BENCH_CSV_HEADER,
    BenchResult,
    ConfigurationError,
    CorrectnessError,
    IqBuffer,
    identity_coefficients,
    make_bench_buffer,
    run_bench,
    write_bench_csv,
)

CFG = AphConfig.default()


def _coeffs():
    rng = np.random.default_rng(2718)
    h = identity_coefficients(CFG).h.astype(np.complex128)
    h += 0.05 * (rng.normal(size=h.size) + 1j * rng.normal(size=h.size))
    from aphdpd import CoefficientVector

    return CoefficientVector(h.astype(np.complex64))


class TestBenchResult:
    def test_statistics_by_construction(self):
        r = BenchResult(workers=2, chunk_len=1000, n_samples=10_000,
                        latencies_s=(0.5, 0.2, 0.4))
        assert r.latency_s_median == pytest.approx(0.4)
        assert r.throughput_sps_median == pytest.approx(10_000 / 0.4)
        assert r.throughput_sps_min == pytest.approx(10_000 / 0.5)


    @pytest.mark.parametrize("latencies", [(0.3,), (0.5, 0.2, 0.4), (0.5, 0.2, 0.4, 0.1)])
    def test_median_is_a_float_equal_to_statistics_median(self, latencies):
        """Odd and even repeat counts; a numpy scalar would change the CSV."""
        median = BenchResult(1, 1000, 10_000, latencies).latency_s_median
        assert type(median) is float and median == statistics.median(latencies)


class TestMakeBenchBuffer:
    def test_deterministic(self):
        a = make_bench_buffer(5000)
        b = make_bench_buffer(5000)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.sample_rate_hz == 61.44e6


class TestRunBench:
    def test_row_per_worker_count(self):
        results = run_bench(CFG, _coeffs(), 20_000, [1, 2], chunk_len=5000, repeats=2)
        assert [r.workers for r in results] == [1, 2]
        for r in results:
            assert r.n_samples == 20_000 and r.chunk_len == 5000 and len(r.latencies_s) == 2
            assert all(t > 0 for t in r.latencies_s)

    def test_buffer_shorter_than_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            run_bench(CFG, _coeffs(), 100, [1], chunk_len=5000)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ConfigurationError):
            run_bench(CFG, _coeffs(), 20_000, [1], chunk_len=5000, repeats=0)

    def test_mismatch_aborts_before_timing(self, monkeypatch):
        """If the parallel path ever disagreed with serial, the bench must
        refuse to report a throughput for it."""
        real = aphdpd.bench.predistort_parallel

        def corrupted(x, coeffs, cfg, **geometry):
            out = real(x, coeffs, cfg, **geometry)
            bad = out.samples.copy()
            bad[len(bad) // 2] += np.complex64(1e-3)
            return IqBuffer(bad, out.sample_rate_hz)

        monkeypatch.setattr(aphdpd.bench, "predistort_parallel", corrupted)
        with pytest.raises(CorrectnessError, match="differs from serial"):
            run_bench(CFG, _coeffs(), 20_000, [1], chunk_len=5000, repeats=1)


class TestBenchCsv:
    def test_schema(self, tmp_path):
        results = run_bench(CFG, _coeffs(), 20_000, [1, 2], chunk_len=5000, repeats=2)
        path = tmp_path / "bench.csv"
        write_bench_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_CSV_HEADER
        assert len(rows) == 1 + len(results)
        for row, r in zip(rows[1:], results):
            assert int(row[0]) == r.workers
            assert int(row[2]) == r.n_samples
            assert float(row[4]) == pytest.approx(r.throughput_sps_median)

    def test_rows_hold_the_repr_of_each_float(self, tmp_path):
        results = [
            BenchResult(1, 1000, 10_000, (0.5, 0.2, 0.4)),
            BenchResult(2, 1000, 10_000, (0.5, 0.2, 0.4, 0.1)),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(results, path)
        assert path.read_bytes().decode() == (
            "workers,chunk_len,n_samples,latency_s_median,throughput_sps_median,"
            "throughput_sps_min\r\n"
            "1,1000,10000,0.4,25000.0,20000.0\r\n"
            "2,1000,10000,0.30000000000000004,33333.33333333333,20000.0\r\n"
        )
