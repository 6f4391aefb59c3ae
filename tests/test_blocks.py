"""The block runner shared by the engine, the TX chain and Welch."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aphdpd import (
    AphConfig,
    CoefficientVector,
    ConfigurationError,
    DivergenceError,
    IqBuffer,
    IqModulatorModel,
    PaModel,
    TxChain,
    identity_coefficients,
    predistort_parallel,
    run_tx_chain,
    waveforms,
)
from aphdpd.blocks import (
    BLOCK_LEN,
    PARALLEL_CHUNK_LEN,
    SERIAL_CHUNK_LEN,
    default_chunk_len,
    map_blocks,
    run_blocks,
    usable_cpus,
)


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


CHAIN = TxChain(
    IqModulatorModel(1.0, 5.0, 0.01 + 0.01j), PaModel(0.95 - 0.02j, 0.5 + 0.1j, -1.0)
)


def _on_all_workers(n_workers: int, n_blocks: int):
    """A block function for `n_blocks` blocks on `n_workers` threads that
    holds each of the first `n_workers` blocks until all of them run, so
    the call occupies every pool thread; it returns the thread it ran on."""
    barrier = threading.Barrier(n_workers, timeout=30)

    def fn(start):
        if start < n_workers:
            barrier.wait()
        return threading.current_thread()

    return fn, range(n_blocks)


class TestWorkerPool:
    """`run_blocks` keeps its worker threads for the life of the process."""

    def test_a_later_call_reuses_the_threads(self):
        first = set(run_blocks(*_on_all_workers(2, 6), 2))
        second = set(run_blocks(*_on_all_workers(2, 6), 2))
        assert len(first) == 2 and threading.current_thread() not in first
        assert second == first

    def test_thread_count_stays_flat(self):
        run_blocks(*_on_all_workers(2, 4), 2)
        before = threading.active_count()
        counts = []
        for _ in range(50):
            counts.extend(run_blocks(lambda s: threading.active_count(), range(4), 2))
        assert max(counts) == before and threading.active_count() == before

    def test_a_call_from_inside_a_block_runs_inline(self):
        """A nested call runs on the thread of the block that made it, so a
        shared pool never waits on itself, even when the outer call holds
        every pool thread."""
        result = []

        def outer(start):
            inner = run_blocks(lambda s: threading.current_thread(), range(4), 2)
            return threading.current_thread(), inner

        thread = threading.Thread(target=lambda: result.extend(run_blocks(outer, range(4), 2)))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "a nested run_blocks call deadlocked"
        assert len(result) == 4
        for block_thread, inner in result:
            assert inner == [block_thread] * 4

    def test_concurrent_callers_share_a_pool(self):
        """Four threads calling at once on one 4-thread pool, with a short
        switch interval, each get exactly their own results in order."""
        interval = sys.getswitchinterval()
        results, errors = {}, []

        def caller(key):
            try:
                for _ in range(10):
                    results[key] = run_blocks(lambda s: (key, s), range(200), 4)
                    assert results[key] == [(key, s) for s in range(200)]
            except AssertionError as err:
                errors.append(err)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(key,)) for key in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a caller hung"
        assert not errors and sorted(results) == [0, 1, 2, 3]

    def test_threads_bounded_and_process_exits(self):
        """Calls on 2 and 3 workers, each holding every thread, leave at
        most 2 + 3 pool threads, and a process that made them still exits
        promptly: no pool thread keeps the interpreter alive."""
        code = (
            "import threading\n"
            "from aphdpd.blocks import run_blocks\n"
            "def hold(n):\n"
            "    barrier = threading.Barrier(n, timeout=30)\n"
            "    return lambda s: barrier.wait() if s < n else s\n"
            "seen = []\n"
            "for n in (2, 3, 2, 3, 3):\n"
            "    run_blocks(hold(n), range(9), n)\n"
            "    seen.append(threading.active_count())\n"
            "print(max(seen))\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 1 + 2 + 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_its_own_threads(self):
        """A child forked after a 2-worker call has none of the parent's
        pool threads; its own 2-worker call must start new ones, not wait
        for the parent's."""
        code = (
            "import os, time\n"
            "from aphdpd.blocks import run_blocks\n"
            "run_blocks(lambda s: s, range(4), 2)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if run_blocks(lambda s: s, range(4), 2) == [0, 1, 2, 3] else 1)\n"
            "for _ in range(200):\n"
            "    done, status = os.waitpid(pid, os.WNOHANG)\n"
            "    if done:\n"
            "        raise SystemExit(os.waitstatus_to_exitcode(status))\n"
            "    time.sleep(0.05)\n"
            "os.kill(pid, 9)\n"
            "os.waitpid(pid, 0)\n"
            "raise SystemExit('the forked child hung')\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


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

    def test_default_chunk_len_by_worker_count(self):
        assert default_chunk_len(1) == SERIAL_CHUNK_LEN == 1 << 14
        assert default_chunk_len(2) == default_chunk_len(8) == PARALLEL_CHUNK_LEN == 1 << 16

    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_every_stage_follows_the_block_length_rule(self, monkeypatch, n_workers):
        """The engine and the TX chain, given no length, both run blocks
        of `default_chunk_len(n_workers)` samples."""
        lengths = []

        def recording(stage, x, block_len, *args, **kwargs):
            lengths.append(block_len)
            return map_blocks(stage, x, block_len, *args, **kwargs)

        monkeypatch.setattr("aphdpd.predistorter.map_blocks", recording)
        monkeypatch.setattr("aphdpd.impairments.map_blocks", recording)
        cfg = AphConfig.default()
        x = IqBuffer(np.full(100, 0.1 + 0.1j, dtype=np.complex64), 1e6)
        predistort_parallel(x, identity_coefficients(cfg), cfg, n_workers=n_workers)
        run_tx_chain(x, TxChain(IqModulatorModel(), PaModel(1.0)), n_workers)
        assert lengths == [default_chunk_len(n_workers)] * 2


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
        chain = CHAIN
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


class TestStageOutputs:
    """The engine and the transmit chain hand their output over unscanned:
    it is finite by construction, or the call raised."""

    @settings(max_examples=20, deadline=None)
    @given(exponent=st.floats(-3.0, 38.6), n_workers=st.sampled_from([1, 2]))
    def test_finite_or_divergence_and_never_rescanned(self, exponent, n_workers):
        """Inputs scaled up to the complex64 limit, on one and two workers:
        each stage raises DivergenceError or returns all-finite samples,
        and no finiteness scan runs on its output."""
        cfg = AphConfig.default()
        rng = np.random.default_rng(11)
        h = rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients)
        coeffs = CoefficientVector(identity_coefficients(cfg).h + (0.05 * h).astype(np.complex64))
        scale = min(10.0**exponent, float(np.finfo(np.float32).max))
        parts = rng.uniform(-1.0, 1.0, size=(BLOCK_LEN + 999, 2)) * scale
        x = IqBuffer(parts.astype(np.float32).view(np.complex64)[:, 0], 1e6)
        stages = {
            "engine": lambda: predistort_parallel(
                x, coeffs, cfg, chunk_len=8192, n_workers=n_workers
            ),
            "chain": lambda: run_tx_chain(x, CHAIN, n_workers),
        }
        all_finite = waveforms._all_finite
        scans = []

        def counting(samples):
            scans.append(samples.size)
            return all_finite(samples)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(waveforms, "_all_finite", counting)
            warnings.simplefilter("error")
            for name, stage in stages.items():
                try:
                    out = stage().samples
                except DivergenceError:
                    continue
                assert np.all(np.isfinite(out)), name
                assert scans == [], name


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    """A process pinned to one CPU (as by `taskset -c 0`) gets one worker,
    however many CPUs the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 1
