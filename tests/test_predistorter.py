"""Predistorter engine: kernel correctness, the coefficient layout, and the
parallel bit-identity guarantee.

The correctness oracle is tests/conftest.py:reference_predistort, an
independent double-precision filter-bank evaluation that shares no code
with the compiled kernel.
"""

from __future__ import annotations

import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from aphdpd import (
    AphConfig,
    BranchSets,
    CoefficientVector,
    ConfigurationError,
    IqBuffer,
    PolyBasis,
    coefficients_from_json_dict,
    coefficients_to_json_dict,
    fit_orthogonal_basis,
    identity_coefficients,
    load_experiment_config,
    predistort_parallel,
    predistort_serial,
)
from aphdpd.predistorter import (
    PARALLEL_CHUNK_LEN,
    SERIAL_CHUNK_LEN,
    _CompiledKernel,
    default_chunk_len,
)
from conftest import reference_kernel, reference_predistort

CFG = AphConfig.default()


def _random_coeffs(cfg, seed=7, scale=0.05):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients)
    h = (scale * h).astype(np.complex64)
    h[0] += np.complex64(1.0)  # keep a dominant linear term
    return CoefficientVector(h)


def _linear_branch_coeffs(taps):
    """Coefficients with `taps` on the main order-1 branch, every other
    branch and the constant zero, placed through `branch_slices`."""
    h = np.zeros(CFG.n_coefficients, dtype=np.complex64)
    (cols,) = [s for family, order, s in CFG.branch_slices() if (family, order) == ("main", 1)]
    h[cols] = taps
    return CoefficientVector(h)


def _buffer(n, seed=1, rms=0.2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x *= rms / np.sqrt(np.mean(np.abs(x) ** 2))
    return IqBuffer(x.astype(np.complex64), 61.44e6)


class TestAphConfig:
    def test_default_coefficient_count(self):
        assert CFG.n_coefficients == 26
        assert CFG.l_max == 5

    def test_branch_slices_cover_h(self):
        slices = CFG.branch_slices()
        assert [s.stop - s.start for _, _, s in slices] == [5, 5, 5, 5, 5]
        assert slices[-1][2].stop == CFG.n_coefficients - 1  # bias term last

    def test_tap_alignment_enforced(self):
        sets = BranchSets.odd_orders_up_to(5, 3)
        with pytest.raises(ConfigurationError):
            AphConfig(sets, (5, 5), (5, 5), PolyBasis.plain(sets))

    def test_basis_sets_must_match(self):
        other = BranchSets((1, 3), (1,))
        with pytest.raises(ConfigurationError):
            AphConfig(CFG.sets, CFG.taps_main, CFG.taps_conj, PolyBasis.plain(other))

    @pytest.mark.parametrize(
        "taps_main,taps_conj",
        [((2.9, 1, 1), (1, 1)), ((2, 1, 1), (1.0, 1)), ((2, False, 1), (1, 1))],
        ids=["fraction", "integral-float", "bool"],
    )
    def test_non_integral_taps_rejected(self, taps_main, taps_conj):
        """A float or a bool tap count is an error, never truncated to an int."""
        with pytest.raises(ConfigurationError, match="must hold integers"):
            AphConfig(CFG.sets, taps_main, taps_conj, CFG.basis)

    def test_numpy_integer_taps_accepted(self):
        cfg = AphConfig(CFG.sets, np.array([5, 5, 5]), (np.int16(5), np.uint8(5)), CFG.basis)
        assert cfg == CFG
        assert all(type(t) is int for t in (*cfg.taps_main, *cfg.taps_conj))


class TestCoefficientVector:
    def test_c_is_last_entry(self):
        h = np.zeros(26, dtype=np.complex64)
        h[-1] = 0.25 - 0.5j
        assert CoefficientVector(h).c == pytest.approx(0.25 - 0.5j)

    def test_rejects_nonfinite(self):
        h = np.zeros(26, dtype=np.complex64)
        h[3] = np.inf
        with pytest.raises(ConfigurationError):
            CoefficientVector(h)


class TestKernelCorrectness:
    def test_matches_double_precision_oracle(self):
        x = _buffer(5000)
        coeffs = _random_coeffs(CFG)
        got = predistort_serial(x, coeffs, CFG).samples
        want = reference_predistort(x.samples, coeffs, CFG)
        assert_allclose(got, want.astype(np.complex64), rtol=2e-5, atol=1e-7)

    def test_oracle_agreement_orthogonal_basis(self):
        training = _buffer(4000, seed=3)
        basis = fit_orthogonal_basis(training, CFG.sets)
        cfg = AphConfig(CFG.sets, CFG.taps_main, CFG.taps_conj, basis)
        coeffs = _random_coeffs(cfg, seed=11)
        got = predistort_serial(training, coeffs, cfg).samples
        want = reference_predistort(training.samples, coeffs, cfg)
        assert_allclose(got, want.astype(np.complex64), rtol=2e-4, atol=1e-6)

    def test_identity_passthrough_bit_exact(self):
        x = _buffer(3000, seed=5)
        out = predistort_serial(x, identity_coefficients(CFG), CFG)
        assert_array_equal(out.samples, x.samples)

    def test_bias_only(self):
        """All filter taps zero: every output sample equals the bias."""
        h = np.zeros(CFG.n_coefficients, dtype=np.complex64)
        h[-1] = 0.3 + 0.1j
        out = predistort_serial(_buffer(64), CoefficientVector(h), CFG)
        assert_array_equal(out.samples, np.full(64, np.complex64(0.3 + 0.1j)))

    def test_impulse_reads_back_linear_taps(self):
        """Unit impulse through a main-linear-only filter reproduces its taps."""
        taps = np.array([0.9, -0.2j, 0.1 + 0.1j, 0.05, -0.03j], dtype=np.complex64)
        coeffs = _linear_branch_coeffs(taps)
        x = np.zeros(8, dtype=np.complex64)
        x[0] = 1.0
        out = predistort_serial(IqBuffer(x, 1e6), coeffs, CFG)
        assert_allclose(out.samples[:5], taps, rtol=1e-6)
        assert_array_equal(out.samples[5:], np.zeros(3, np.complex64))

    def test_linearity_of_linear_branch(self):
        """With only odd-order-1 branches active the map is linear."""
        coeffs = _linear_branch_coeffs(np.array([1.0, 0.3, 0, 0, 0.1], dtype=np.complex64))
        a, b = _buffer(400, seed=8), _buffer(400, seed=9)
        summed = IqBuffer(a.samples + b.samples, a.sample_rate_hz)
        lhs = predistort_serial(summed, coeffs, CFG).samples
        rhs = predistort_serial(a, coeffs, CFG).samples + predistort_serial(b, coeffs, CFG).samples
        assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-6)

    def test_causality(self):
        """Changing a sample never affects earlier outputs."""
        x = _buffer(256, seed=12)
        coeffs = _random_coeffs(CFG)
        base = predistort_serial(x, coeffs, CFG).samples
        bumped = x.samples.copy()
        bumped[100] += np.complex64(0.5)
        out = predistort_serial(IqBuffer(bumped, x.sample_rate_hz), coeffs, CFG).samples
        assert_array_equal(out[:100], base[:100])
        assert out[100] != base[100]

    def test_empty_buffer(self):
        out = predistort_serial(IqBuffer(np.empty(0, np.complex64), 1e6), _random_coeffs(CFG), CFG)
        assert len(out) == 0


class TestChunkPlan:
    """How the engine splits a stream: the caller picks the chunk length
    and worker count; the halo, l_max - 1, comes from the config."""

    def test_for_config_halo(self):
        """The shortest legal chunk is one longer than the config's halo,
        and it still reproduces serial bit for bit."""
        sets = BranchSets.odd_orders_up_to(5, 3)
        cfg = AphConfig(sets, (3, 1, 2), (1, 1), PolyBasis.plain(sets))
        x = _buffer(100)
        coeffs = _random_coeffs(cfg)
        want = predistort_serial(x, coeffs, cfg).samples
        got = predistort_parallel(x, coeffs, cfg, chunk_len=cfg.l_max, n_workers=2).samples
        assert_array_equal(got, want)
        with pytest.raises(ConfigurationError, match=r"halo \(2\)"):
            predistort_parallel(x, coeffs, cfg, chunk_len=cfg.l_max - 1)

    def test_chunk_len_must_exceed_halo(self):
        for chunk_len in (4, 0, -1):
            with pytest.raises(ConfigurationError):
                predistort_parallel(_buffer(100), _random_coeffs(CFG), CFG, chunk_len=chunk_len)


class TestBitIdentity:
    """The acceptance property, exercised here on small buffers: the chunked
    parallel path must reproduce the serial output bit for bit, for any
    partition geometry and worker count."""

    def test_grid_of_plans(self):
        x = _buffer(10_000, seed=31)
        coeffs = _random_coeffs(CFG)
        want = predistort_serial(x, coeffs, CFG).samples
        for chunk_len in (37, 128, 999, 4096, 10_000, 1 << 16):
            for workers in (1, 2, 5):
                got = predistort_parallel(
                    x, coeffs, CFG, chunk_len=chunk_len, n_workers=workers
                ).samples
                assert_array_equal(got, want, err_msg=f"chunk_len={chunk_len} workers={workers}")

    @settings(max_examples=30, deadline=None)
    @given(
        chunk_len=st.integers(min_value=5, max_value=3000),
        workers=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_partition(self, chunk_len, workers, seed):
        x = _buffer(2500, seed=seed)
        coeffs = _random_coeffs(CFG, seed=seed ^ 0xA5A5)
        want = predistort_serial(x, coeffs, CFG).samples
        got = predistort_parallel(
            x, coeffs, CFG, chunk_len=chunk_len, n_workers=workers
        ).samples
        assert_array_equal(got, want)


@pytest.fixture(scope="module")
def layouts():
    """The shipped configs' layouts (fitted bases), and a short plain one
    with unequal tap counts."""
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    layouts = {p.stem: load_experiment_config(p, respect_env=False).aph_config() for p in configs}
    sets = BranchSets.odd_orders_up_to(5, 3)
    layouts["taps_312_11"] = AphConfig(sets, (3, 1, 2), (1, 1), PolyBasis.plain(sets))
    return layouts


class TestKernelBits:
    """The engine computes each chunk in its workers' workspaces; the bits
    are those of `reference_kernel`, the same program evaluated by
    allocating numpy expressions over the whole buffer as one window."""

    @pytest.mark.parametrize("layout", ["ca_3mhz_x2", "single_carrier", "taps_312_11"])
    @pytest.mark.parametrize("chunk", ["l_max", 4097, 1 << 14, 1 << 16, 1 << 20])
    def test_engine_equals_reference_kernel(self, layouts, layout, chunk):
        cfg = layouts[layout]
        chunk_len = cfg.l_max if chunk == "l_max" else chunk
        # A partial last chunk; l_max chunks stay few, for speed.
        n = 301 if chunk == "l_max" else chunk_len + chunk_len // 2 + 5
        x = _buffer(n, seed=chunk_len)
        coeffs = _random_coeffs(cfg, seed=n)
        want = reference_kernel(_CompiledKernel(coeffs, cfg), x.samples)
        for workers in (1, 2):
            got = predistort_parallel(x, coeffs, cfg, chunk_len=chunk_len, n_workers=workers)
            assert_array_equal(
                got.samples.view(np.uint64), want.view(np.uint64), err_msg=f"workers={workers}"
            )

    def test_default_chunk_len_by_worker_count(self):
        assert default_chunk_len(1) == SERIAL_CHUNK_LEN == 1 << 14
        assert default_chunk_len(2) == default_chunk_len(8) == PARALLEL_CHUNK_LEN == 1 << 16

    def test_memory_does_not_grow_with_length(self):
        """Each worker evaluates its chunks in one workspace, allocated on
        its first chunk: on one or two workers the peak allocation beyond
        the output is the same at 1 Mi and 4 Mi samples."""
        x = _buffer(4 << 20, seed=41).samples
        coeffs = _random_coeffs(CFG)

        def beyond_output(n, n_workers):
            buf = IqBuffer(x[:n], 61.44e6)
            tracemalloc.start()
            try:
                out = predistort_parallel(buf, coeffs, CFG, n_workers=n_workers)
                return tracemalloc.get_traced_memory()[1] - out.samples.nbytes
            finally:
                tracemalloc.stop()

        for n_workers in (1, 2):
            small, large = beyond_output(1 << 20, n_workers), beyond_output(4 << 20, n_workers)
            assert large <= 1.05 * small, (n_workers, small, large)


class TestCoefficientJson:
    def test_round_trip_bits_and_layout(self):
        coeffs = _random_coeffs(CFG)
        doc = json.loads(json.dumps(coefficients_to_json_dict(coeffs, CFG)))
        back, cfg_back = coefficients_from_json_dict(doc)
        assert_array_equal(back.h, coeffs.h)
        assert cfg_back.sets == CFG.sets
        assert (cfg_back.taps_main, cfg_back.taps_conj) == (CFG.taps_main, CFG.taps_conj)
        assert cfg_back.basis.mode == CFG.basis.mode
        for order in CFG.sets.main_orders:
            assert_array_equal(cfg_back.basis.u_main[order], CFG.basis.u_main[order])

    def test_round_trip_orthogonal_basis(self):
        basis = fit_orthogonal_basis(_buffer(4000, seed=40), CFG.sets)
        cfg = AphConfig(CFG.sets, CFG.taps_main, CFG.taps_conj, basis)
        coeffs = _random_coeffs(cfg, seed=41)
        back, cfg_back = coefficients_from_json_dict(coefficients_to_json_dict(coeffs, cfg))
        x = _buffer(1000, seed=42)
        assert_array_equal(
            predistort_serial(x, back, cfg_back).samples,
            predistort_serial(x, coeffs, cfg).samples,
        )

    @pytest.mark.parametrize(
        "key", ["h[1]", "c", "layout.basis.u_main[2][2]", "layout.basis.u_conj[1][1]"]
    )
    @pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
    def test_entries_must_fit_single_precision(self, key, part):
        """A tap, the constant or a basis entry with a part that overflows
        single precision is refused at parse time, naming its key, with no
        warning."""
        doc = coefficients_to_json_dict(identity_coefficients(CFG), CFG)
        pair = doc
        for step in key.replace("]", "").replace("[", ".").split("."):
            pair = pair[int(step) if step.isdigit() else step]
        pair[part] = -1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=re.escape(f"'{key}' does not fit")):
                coefficients_from_json_dict(doc)

    def test_taps_times_basis_must_fit_single_precision(self):
        """A tap and a basis entry that each fit in single precision, but
        whose product folded into the linear taps does not: the engine
        refuses them instead of running with an infinite tap, which gives
        infinite samples without any overflow."""
        doc = coefficients_to_json_dict(identity_coefficients(CFG), CFG)
        doc["h"][0] = [1e30, 0.0]
        doc["layout"]["basis"]["u_main"][0][0] = [1e30, 0.0]
        coeffs, cfg = coefficients_from_json_dict(doc)
        x = IqBuffer(np.full(100, 0.5 + 0.5j, dtype=np.complex64), 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="basis overflow single precision"):
                predistort_parallel(x, coeffs, cfg)
