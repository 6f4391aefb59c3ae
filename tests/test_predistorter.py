"""Predistorter engine: kernel correctness, packing, and the parallel
bit-identity guarantee.

The correctness oracle is tests/conftest.py:reference_predistort, an
independent double-precision filter-bank evaluation that shares no code
with the compiled kernel.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from aphdpd import (
    AphConfig,
    BranchSets,
    ChunkPlan,
    CoefficientVector,
    ConfigurationError,
    IqBuffer,
    PolyBasis,
    coefficients_from_json_dict,
    coefficients_to_json_dict,
    fit_orthogonal_basis,
    identity_coefficients,
    pack_coefficients,
    predistort_parallel,
    predistort_serial,
    unpack_coefficients,
)
from conftest import reference_predistort

CFG = AphConfig.default()


def _random_coeffs(cfg, seed=7, scale=0.05):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients)
    h = (scale * h).astype(np.complex64)
    h[0] += np.complex64(1.0)  # keep a dominant linear term
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

    def test_pack_unpack_round_trip(self):
        coeffs = _random_coeffs(CFG)
        per_branch, c = unpack_coefficients(coeffs, CFG)
        again = pack_coefficients(per_branch, c, CFG)
        assert_array_equal(again.h, coeffs.h)

    def test_pack_rejects_wrong_tap_count(self):
        per_branch, c = unpack_coefficients(_random_coeffs(CFG), CFG)
        per_branch[("main", 3)] = per_branch[("main", 3)][:4]
        with pytest.raises(ConfigurationError):
            pack_coefficients(per_branch, c, CFG)

    def test_pack_rejects_missing_branch(self):
        per_branch, c = unpack_coefficients(_random_coeffs(CFG), CFG)
        del per_branch[("conj", 3)]
        with pytest.raises(ConfigurationError):
            pack_coefficients(per_branch, c, CFG)


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
        per_branch = {key: np.zeros(5, np.complex64) for key in
                      (("main", 1), ("main", 3), ("main", 5), ("conj", 1), ("conj", 3))}
        taps = np.array([0.9, -0.2j, 0.1 + 0.1j, 0.05, -0.03j], dtype=np.complex64)
        per_branch[("main", 1)] = taps
        coeffs = pack_coefficients(per_branch, 0.0, CFG)
        x = np.zeros(8, dtype=np.complex64)
        x[0] = 1.0
        out = predistort_serial(IqBuffer(x, 1e6), coeffs, CFG)
        assert_allclose(out.samples[:5], taps, rtol=1e-6)
        assert_array_equal(out.samples[5:], np.zeros(3, np.complex64))

    def test_linearity_of_linear_branch(self):
        """With only odd-order-1 branches active the map is linear."""
        per_branch = {key: np.zeros(5, np.complex64) for key in
                      (("main", 1), ("main", 3), ("main", 5), ("conj", 1), ("conj", 3))}
        per_branch[("main", 1)] = np.array([1.0, 0.3, 0, 0, 0.1], dtype=np.complex64)
        coeffs = pack_coefficients(per_branch, 0.0, CFG)
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
    def test_for_config_halo(self):
        plan = ChunkPlan.for_config(CFG, chunk_len=1 << 14, n_workers=3)
        assert plan.halo == CFG.l_max - 1
        assert plan.n_workers == 3

    def test_chunk_len_must_exceed_halo(self):
        with pytest.raises(ConfigurationError):
            ChunkPlan(chunk_len=4, halo=4, n_workers=1)

    def test_halo_mismatch_rejected(self):
        x = _buffer(100)
        with pytest.raises(ConfigurationError):
            predistort_parallel(x, _random_coeffs(CFG), CFG, ChunkPlan(64, 2, 1))


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
                plan = ChunkPlan(chunk_len, CFG.l_max - 1, workers)
                got = predistort_parallel(x, coeffs, CFG, plan).samples
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
        got = predistort_parallel(x, coeffs, CFG, ChunkPlan(chunk_len, CFG.l_max - 1, workers)).samples
        assert_array_equal(got, want)


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
