"""The block runner shared by the engine, the TX chain and Welch."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from aphdpd import (
    AphConfig,
    CoefficientVector,
    ConfigurationError,
    IqBuffer,
    IqModulatorModel,
    PaModel,
    TxChain,
    predistort_parallel,
)
from aphdpd.blocks import per_thread, run_blocks, usable_cpus


class TestRunBlocks:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_results_in_start_order(self, n_workers):
        starts = range(0, 100, 7)
        assert run_blocks(lambda s: s * s, starts, n_workers) == [s * s for s in starts]

    def test_no_blocks(self):
        assert run_blocks(lambda s: s, range(0), 3) == []

    def test_one_worker_or_one_block_runs_inline(self):
        caller = threading.get_ident()
        assert run_blocks(lambda s: threading.get_ident(), range(4), 1) == [caller] * 4
        assert run_blocks(lambda s: threading.get_ident(), [0], 3) == [caller]

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_rejects_nonpositive_workers(self, n_workers):
        with pytest.raises(ConfigurationError, match="n_workers"):
            run_blocks(lambda s: s, range(4), n_workers)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_reraises_a_later_block_error(self, n_workers):
        def fn(start):
            if start == 3:
                raise ValueError("block 3 failed")
            return start

        with pytest.raises(ValueError, match="block 3 failed"):
            run_blocks(fn, range(5), n_workers)


class TestPerThread:
    def test_one_object_per_thread_made_once(self):
        made = []

        def make():
            made.append(threading.get_ident())
            return object()

        workspace = per_thread(make)
        seen = run_blocks(lambda s: (threading.get_ident(), workspace()), range(64), 4)
        by_thread = dict(seen)
        assert all(obj is by_thread[thread] for thread, obj in seen)
        assert len({id(obj) for obj in by_thread.values()}) == len(by_thread)
        assert sorted(made) == sorted(by_thread)

    def test_workers_never_share_a_workspace(self):
        """More workers than cores and a switch interval of a microsecond:
        the engine and the TX chain still give their one-worker bits, which
        two threads writing one workspace would break."""
        rng = np.random.default_rng(3)
        x = (0.3 * (rng.normal(size=300_000) + 1j * rng.normal(size=300_000))).astype(
            np.complex64
        )
        cfg = AphConfig.default()
        h = rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients)
        coeffs = CoefficientVector(0.05 * h)
        chain = TxChain(
            IqModulatorModel(1.0, 5.0, 0.01 + 0.01j), PaModel(0.95 - 0.02j, 0.5 + 0.1j, -1.0)
        )
        buf = IqBuffer(x, 1e6)
        engine_one = predistort_parallel(buf, coeffs, cfg, chunk_len=4096).samples
        chain_one = chain.apply(x)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine_many = predistort_parallel(buf, coeffs, cfg, chunk_len=4096, n_workers=8)
            chain_many = chain.apply(x, 8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(engine_many.samples.view(np.uint64), engine_one.view(np.uint64))
        assert np.array_equal(chain_many.view(np.uint64), chain_one.view(np.uint64))


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    """A process pinned to one CPU (as by `taskset -c 0`) gets one worker,
    however many CPUs the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 1
