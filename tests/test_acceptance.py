"""Acceptance gate: the release criteria, one test per criterion.

Each test prints a single PASS/FAIL line naming its criterion (run with
`pytest -s tests/test_acceptance.py` to watch them go by) and then asserts.
Criterion 6a needs four physical cores and is skipped, loudly, on smaller
hosts.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from aphdpd import (
    AphConfig,
    CoefficientVector,
    IqBuffer,
    PaModel,
    TrainingConfig,
    build_normal_equations,
    evaluate_branches,
    fit_orthogonal_basis,
    identity_coefficients,
    ila_train,
    load_experiment_config,
    make_bench_buffer,
    pa_evaluate,
    predistort_parallel,
    predistort_serial,
    run_bench,
    run_tx_chain,
    suppression_db,
    welch_psd,
    write_bench_csv,
)
from aphdpd.training import _lstsq_ridge
from conftest import reference_basis_matrix

ROOT = Path(__file__).resolve().parents[1]
SC_CONFIG = ROOT / "configs" / "single_carrier.json"
CA_CONFIG = ROOT / "configs" / "ca_3mhz_x2.json"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _linearize(config_path):
    """Train on the configured chain, then simulate the full buffer with and
    without predistortion. Returns per-band suppression and elapsed seconds."""
    start = time.perf_counter()
    cfg = load_experiment_config(config_path, respect_env=False)
    aph = cfg.aph_config()
    chain = cfg.tx_chain()
    wave = cfg.waveform_factory()
    coeffs, _ = ila_train(chain, aph, cfg.training, make_waveform=wave)

    x = wave(cfg.n_samples, cfg.seed)
    before = welch_psd(run_tx_chain(x, chain), cfg.nfft, cfg.overlap)
    after = welch_psd(run_tx_chain(predistort_serial(x, coeffs, aph), chain), cfg.nfft, cfg.overlap)
    gains = [suppression_db(before, after, lo, hi) for lo, hi in cfg.bands]
    return gains, time.perf_counter() - start


class TestAcceptance:
    def test_criterion_1_single_carrier_suppression(self):
        gains, elapsed = _linearize(SC_CONFIG)
        ok = all(g >= 10.0 for g in gains) and elapsed < 60.0
        _verdict(
            "criterion 1 (single-carrier adjacent-band suppression >= 10 dB, < 60 s)",
            ok,
            f"bands {[f'{g:.1f}' for g in gains]} dB in {elapsed:.1f} s",
        )

    def test_criterion_2_carrier_aggregation_imd3(self):
        gains, elapsed = _linearize(CA_CONFIG)
        ok = all(g >= 10.0 for g in gains) and elapsed < 90.0
        _verdict(
            "criterion 2 (two-carrier IMD3-band suppression >= 10 dB, < 90 s)",
            ok,
            f"bands {[f'{g:.1f}' for g in gains]} dB in {elapsed:.1f} s",
        )

    def test_criterion_3_exact_recovery(self):
        start = time.perf_counter()
        cfg = AphConfig.default()
        rng = np.random.default_rng(314)
        h0 = 0.1 * (rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients))
        h0[0] += 1.0
        x = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        x = (0.2 * x / np.sqrt(np.mean(np.abs(x) ** 2))).astype(np.complex64)

        z = reference_basis_matrix(x, cfg) @ h0
        normal = build_normal_equations(IqBuffer(x, 61.44e6), z, cfg)
        h, _ = _lstsq_ridge(normal.gram, normal.rhs, 0.0)
        h_hat = h.astype(np.complex64)
        rel = float(np.linalg.norm(h_hat - h0.astype(np.complex64)) / np.linalg.norm(h0))
        elapsed = time.perf_counter() - start
        ok = rel <= 1e-6 and elapsed < 1.0
        _verdict(
            "criterion 3 (noise-free coefficient recovery, rel err <= 1e-6, < 1 s)",
            ok,
            f"relative error {rel:.2e} in {elapsed:.2f} s",
        )

    def test_criterion_4_training_never_regresses(self):
        cfg = load_experiment_config(SC_CONFIG, respect_env=False)
        aph = cfg.aph_config()
        chain = cfg.tx_chain()
        wave = cfg.waveform_factory()
        worst = -np.inf
        for seed in range(5):
            tcfg = dataclasses.replace(cfg.training, seed=seed)
            _, report = ila_train(chain, aph, tcfg, make_waveform=wave)
            nmse = report.nmse_db
            worst = max(worst, nmse[2] - nmse[0])
        ok = worst <= 0.1
        _verdict(
            "criterion 4 (iteration-3 NMSE within 0.1 dB of iteration 1, 5 seeds)",
            ok,
            f"worst iteration-3 minus iteration-1 delta {worst:+.4f} dB",
        )

    def test_criterion_5_parallel_bit_identity(self):
        cfg = AphConfig.default()
        rng = np.random.default_rng(99)
        h = identity_coefficients(cfg).h + (
            0.05 * (rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients))
        ).astype(np.complex64)
        coeffs = CoefficientVector(h)
        x = make_bench_buffer(1_000_000)
        want = predistort_serial(x, coeffs, cfg).samples

        combos = [
            (chunk_len, workers)
            for chunk_len in (4_097, 65_536, 250_000, 999_983)
            for workers in (1, 2, 4)
        ]
        mismatched = []
        for chunk_len, workers in combos:
            got = predistort_parallel(
                x, coeffs, cfg, chunk_len=chunk_len, n_workers=workers
            ).samples
            if not np.array_equal(got.view(np.float32), want.view(np.float32)):
                mismatched.append((chunk_len, workers))
        ok = not mismatched and len(combos) >= 12
        _verdict(
            "criterion 5 (bit-identical output across 12 chunk/worker geometries, 1e6 samples)",
            ok,
            f"{len(combos)} combinations checked, mismatches: {mismatched or 'none'}",
        )

    def test_criterion_6a_parallel_speedup(self, tmp_path):
        n_cores = os.cpu_count() or 1
        if n_cores < 4:
            line = (
                "SKIP criterion 6a (4-worker speedup >= 1.8x): "
                f"host exposes {n_cores} core(s), need >= 4"
            )
            print(line)
            pytest.skip(line)
        cfg = AphConfig.default()
        coeffs = identity_coefficients(cfg)
        results = run_bench(cfg, coeffs, 10_000_000, [1, 4], repeats=3)
        speedup = results[1].throughput_sps_median / results[0].throughput_sps_median
        ok = speedup >= 1.8
        _verdict(
            "criterion 6a (4 workers >= 1.8x over 1 worker, 1e7 samples)",
            ok,
            f"speedup {speedup:.2f}x",
        )

    def test_criterion_6b_single_worker_throughput(self, tmp_path):
        cfg = AphConfig.default()
        rng = np.random.default_rng(2718)
        h = identity_coefficients(cfg).h + (
            0.05 * (rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients))
        ).astype(np.complex64)
        results = run_bench(cfg, CoefficientVector(h), 2_000_000, [1], repeats=3)
        csv_path = tmp_path / "bench.csv"
        write_bench_csv(results, csv_path)
        sps = results[0].throughput_sps_median
        ok = sps >= 5e6 and csv_path.exists() and csv_path.read_text().startswith("workers,")
        _verdict(
            "criterion 6b (single-worker throughput >= 5 Msps with CSV report)",
            ok,
            f"{sps / 1e6:.1f} Msps, report at {csv_path}",
        )

    def test_criterion_7_reference_values(self):
        cfg = load_experiment_config(SC_CONFIG, respect_env=False)
        buf = cfg.waveform_factory()(cfg.n_samples, cfg.seed)
        spec = welch_psd(buf, cfg.nfft, cfg.overlap)
        time_power = float(np.mean(np.abs(buf.samples.astype(np.complex128)) ** 2))
        freq_power = float(np.sum(spec.psd) * spec.bin_width_hz)
        parseval_db = abs(10 * np.log10(freq_power / time_power))

        pa = PaModel(0.9490 - 0.0197j, 0.4885 + 0.1071j, -1.0156 - 0.0474j)
        gain_err = abs(pa_evaluate(1.0, pa) - (0.4219 + 0.0400j))

        ok = parseval_db < 0.1 and gain_err <= 1e-6
        _verdict(
            "criterion 7 (PSD power matches time power to 0.1 dB; PA unit-drive value to 1e-6)",
            ok,
            f"power delta {parseval_db:.4f} dB, PA value error {gain_err:.2e}",
        )

    def test_criterion_8_basis_orthogonality(self):
        cfg = load_experiment_config(SC_CONFIG, respect_env=False)
        wave = cfg.waveform_factory()
        training = wave(2 * cfg.training.n_training_samples, cfg.seed + 500)
        basis = fit_orthogonal_basis(training, cfg.branch_sets)
        rows = evaluate_branches(training.samples, basis)
        n_main = len(cfg.branch_sets.main_orders)
        worst = 0.0
        for signals in (rows[:n_main], rows[n_main:]):
            for i in range(len(signals)):
                for j in range(i):
                    num = abs(np.mean(signals[i] * np.conj(signals[j])))
                    den = np.sqrt(
                        float(np.mean(np.abs(signals[i]) ** 2) * np.mean(np.abs(signals[j]) ** 2))
                    )
                    worst = max(worst, num / den)
        ok = worst < 1e-3
        _verdict(
            "criterion 8 (fitted basis branch correlations < 1e-3 on the fit set)",
            ok,
            f"largest normalized cross-correlation {worst:.2e}",
        )
