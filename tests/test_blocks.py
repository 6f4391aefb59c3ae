"""The block runner shared by the engine, the TX chain and Welch."""

from __future__ import annotations

import os
import sys
import threading
import warnings

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
    run_tx_chain,
)
from aphdpd.blocks import map_blocks, run_blocks, usable_cpus


class TestRunBlocks:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_results_in_start_order(self, n_workers):
        starts = range(0, 100, 7)
        assert run_blocks(lambda s: s * s, starts, n_workers) == [s * s for s in starts]

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda s: np.full(4, 1e38, dtype=np.float32) * np.float32(10 + s),
            lambda s: np.zeros(4) / np.zeros(4),
        ],
        ids=["overflow", "invalid"],
    )
    def test_floating_point_errors_raise_in_every_worker(self, n_workers, fn):
        """Every block runs under over="raise", invalid="raise", on the
        calling thread and on pool threads alike, whatever the caller's
        own error state: an overflow raises, it never warns."""
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                run_blocks(fn, range(3), n_workers)

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


class TestMapBlocks:
    """`map_blocks` with a recording stage: what each block is given."""

    @staticmethod
    def _record(x, block_len, n_workers, halo=0):
        made, calls = [], []

        def workspace(length):
            made.append((threading.get_ident(), length))
            return object()

        def stage(window, ws, skip, out):
            calls.append((threading.get_ident(), ws, window.copy(), skip, out.size))
            out[:] = window[skip:]

        out = map_blocks(stage, x, block_len, n_workers, workspace, halo)
        return out, made, calls

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_one_workspace_per_thread_made_once(self, n_workers):
        """Each worker thread makes one workspace, of
        min(block_len + halo, len(x)) samples, and uses it for every block
        it computes; no two threads share one."""
        x = np.arange(1000, dtype=np.complex64)
        out, made, calls = self._record(x, 10, n_workers, halo=3)
        threads = {thread for thread, _ in made}
        assert len(threads) == len(made) <= n_workers
        assert {length for _, length in made} == {13}
        by_thread = {}
        for thread, ws, *_ in calls:
            assert by_thread.setdefault(thread, ws) is ws
        assert set(by_thread) == threads
        assert len({id(ws) for ws in by_thread.values()}) == len(by_thread)
        assert np.array_equal(out, x)
        # A buffer shorter than one block: the workspace is the buffer's length.
        _, made, _ = self._record(x[:7], 10, n_workers, halo=3)
        assert [length for _, length in made] == [7]

    def test_windows_carry_the_halo(self):
        """The first block has no preceding samples (skip 0); every later
        one carries `halo` of them, and the partial last block ends at the
        end of the buffer."""
        x = np.arange(25, dtype=np.complex64)
        out, _, calls = self._record(x, 10, 1, halo=3)
        assert [(c[2].real.tolist(), c[3], c[4]) for c in calls] == [
            (list(range(0, 10)), 0, 10),
            (list(range(7, 20)), 3, 10),
            (list(range(17, 25)), 3, 5),
        ]
        assert out.dtype == np.complex64 and np.array_equal(out, x)

    def test_halo_shorter_at_the_start(self):
        """A halo longer than the first block: the second window starts at
        sample 0 and carries as many samples as precede its block."""
        x = np.arange(12, dtype=np.complex64)
        _, _, calls = self._record(x, 4, 1, halo=6)
        assert [(c[2].real.tolist()[0], c[3]) for c in calls] == [(0, 0), (0, 4), (2, 6)]

    def test_empty_input(self):
        out, made, calls = self._record(np.empty(0, dtype=np.complex64), 10, 2, halo=3)
        assert out.shape == (0,) and out.dtype == np.complex64
        assert made == [] and calls == []

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_rejects_nonpositive_workers(self, n_workers):
        with pytest.raises(ConfigurationError, match="n_workers"):
            self._record(np.zeros(8, dtype=np.complex64), 4, n_workers)


class TestPerThread:
    """The engine and the TX chain give each worker thread its own workspace."""

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
        chain_one = run_tx_chain(buf, chain).samples
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            engine_many = predistort_parallel(buf, coeffs, cfg, chunk_len=4096, n_workers=8)
            chain_many = run_tx_chain(buf, chain, 8).samples
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
