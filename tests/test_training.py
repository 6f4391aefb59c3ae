"""Training loop: gain estimation, the least-squares core, and the
safeguarded iterative fit against a simulated transmit chain.

Least-squares answers are checked against the normal equations and a
perturbation test rather than against a second solver. The dense
regression matrix in those checks is the test oracle
`conftest.reference_basis_matrix`; the solver sees only the normal
equations that training builds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from aphdpd import (
    AphConfig,
    ConditioningError,
    ConfigurationError,
    DegenerateInputError,
    DivergenceError,
    InsufficientDataError,
    IqBuffer,
    IqModulatorModel,
    PaModel,
    PolyBasis,
    TrainingConfig,
    TxChain,
    build_normal_equations,
    fit_orthogonal_basis,
    identity_coefficients,
    ila_train,
    predistort_serial,
    run_tx_chain,
)
from aphdpd.blocks import usable_cpus
from aphdpd.training import _linearization_nmse_db, _lstsq_ridge
from conftest import gaussian_waveform as WAVE
from conftest import child_peak_rss, estimate_gain, nmse_db, reference_basis_matrix

CFG = AphConfig.default()
REF_CHAIN = TxChain(
    modulator=IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j),
    pa=PaModel(0.9490 - 0.0197j, 0.4885 + 0.1071j, -1.0156 - 0.0474j),
)
LINEAR_CHAIN = TxChain(modulator=IqModulatorModel(), pa=PaModel(alpha1=1.0))


def _buffer(n, seed=1, rms=0.15):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x *= rms / np.sqrt(np.mean(np.abs(x) ** 2))
    return IqBuffer(x.astype(np.complex64), 1.0)


class TestEstimateGain:
    def test_real_scaling(self, rng):
        x = _buffer(1000)
        y = IqBuffer(2.0 * x.samples, 1.0)
        assert estimate_gain(x, y) == pytest.approx(2.0, abs=1e-6)

    def test_complex_rotation(self):
        x = _buffer(1000, seed=2)
        y = IqBuffer((1j * x.samples.astype(np.complex128)).astype(np.complex64), 1.0)
        assert estimate_gain(x, y) == pytest.approx(1j, abs=1e-6)

    def test_small_signal_gain_near_alpha1(self):
        """At low drive the PA is nearly linear, so the fitted gain sits
        close to its first-order coefficient."""
        x = _buffer(20_000, seed=3, rms=0.1)
        y = run_tx_chain(x, TxChain(IqModulatorModel(), REF_CHAIN.pa))
        g = estimate_gain(x, y)
        assert abs(g - REF_CHAIN.pa.alpha1) / abs(REF_CHAIN.pa.alpha1) < 0.02

    def test_zero_input_rejected(self):
        z = IqBuffer(np.zeros(10, np.complex64), 1.0)
        with pytest.raises(DegenerateInputError):
            estimate_gain(z, _buffer(10))


class TestTrainingConfig:
    def test_negative_seed_rejected(self):
        """numpy's generators take no seed below 0; the config says so
        before any stimulus is drawn."""
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            TrainingConfig(n_training_samples=2000, seed=-1)


class TestLsSolve:
    """The ridge solve `_lstsq_ridge` on the normal equations training builds."""

    def _system(self, n=3000, seed=4):
        """A known coefficient vector, its exact filter output, the matching
        dense regression matrix, and its normal equations."""
        rng = np.random.default_rng(seed)
        h0 = (rng.normal(size=CFG.n_coefficients) + 1j * rng.normal(size=CFG.n_coefficients))
        h0 = (0.1 * h0).astype(np.complex64)
        h0[0] += np.complex64(1.0)
        y = _buffer(n, seed=seed + 1, rms=0.2)
        a = reference_basis_matrix(y.samples, CFG)
        z = a @ h0.astype(np.complex128)
        return h0, a, z, build_normal_equations(y, z, CFG)

    def test_recovers_known_coefficients(self):
        h0, _, _, ne = self._system()
        h, _ = _lstsq_ridge(ne.gram, ne.rhs, 0.0)
        rel = np.linalg.norm(h.astype(np.complex64) - h0) / np.linalg.norm(h0)
        assert rel <= 1e-6

    def test_normal_equations_hold(self):
        """The unregularized solution must zero the gradient: A^H(A h - z) ~ 0."""
        _, a, z, ne = self._system(seed=5)
        h, _ = _lstsq_ridge(ne.gram, ne.rhs, 0.0)
        h_hat = h.astype(np.complex64).astype(np.complex128)
        grad = a.conj().T @ (a @ h_hat - z)
        assert np.linalg.norm(grad) <= 1e-4 * np.linalg.norm(a.conj().T @ z)

    def test_perturbation_never_improves(self, rng):
        """Local optimality of the ridge objective |Ah-b|^2 + lam|h|^2."""
        _, a, z, ne = self._system(seed=6)
        lam = 1e-3
        h, _ = _lstsq_ridge(ne.gram, ne.rhs, lam)
        h_hat = h.astype(np.complex64).astype(np.complex128)

        def objective(h):
            return np.sum(np.abs(a @ h - z) ** 2) + lam * np.sum(np.abs(h) ** 2)

        base = objective(h_hat)
        for _ in range(20):
            step = rng.normal(size=h_hat.size) + 1j * rng.normal(size=h_hat.size)
            assert objective(h_hat + 1e-4 * step) >= base * (1 - 1e-9)

    def test_heavy_ridge_shrinks_solution(self):
        _, a, _, ne = self._system(seed=7)
        gram_diag = np.sum(np.abs(a) ** 2, axis=0)
        h, _ = _lstsq_ridge(ne.gram, ne.rhs, 1e6 * float(gram_diag.max()))
        assert float(np.max(np.abs(h.astype(np.complex64)))) < 1e-3

    def test_singular_matrix_without_ridge(self):
        a = np.zeros((40, 3), dtype=np.complex128)
        a[:, 0] = np.arange(40)
        a[:, 1] = 2 * np.arange(40)  # dependent column
        a[:, 2] = 1.0
        b = np.arange(40).astype(np.complex128)
        with pytest.raises(ConditioningError) as exc_info:
            _lstsq_ridge(a.conj().T @ a, a.conj().T @ b, 0.0)
        assert exc_info.value.condition_estimate is not None


class TestIlaTrain:
    def test_linear_chain_keeps_identity(self):
        """A distortion-free chain leaves nothing to correct: the trained
        filter must act as (numerically) the identity."""
        coeffs, report = ila_train(
            LINEAR_CHAIN, CFG, TrainingConfig(n_training_samples=2000, iterations=2), WAVE
        )
        x = _buffer(2000, seed=99)
        out = predistort_serial(x, coeffs, CFG)
        dev = np.linalg.norm(out.samples - x.samples) / np.linalg.norm(x.samples)
        assert dev < 1e-3
        assert report.baseline_nmse_db < -60.0

    def test_improves_nonlinear_chain(self):
        coeffs, report = ila_train(
            REF_CHAIN, CFG, TrainingConfig(n_training_samples=4000, iterations=3, seed=11), WAVE
        )
        assert report.nmse_db[-1] < report.baseline_nmse_db - 15.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_nmse_non_increasing(self, seed):
        """The candidate gate makes later iterations no worse (0.1 dB slack)."""
        _, report = ila_train(
            REF_CHAIN, CFG, TrainingConfig(n_training_samples=3000, iterations=3, seed=seed), WAVE
        )
        nmse = report.nmse_db
        assert nmse[2] <= nmse[0] + 0.1
        for earlier, later in zip(nmse, nmse[1:]):
            assert later <= earlier + 0.1

    def test_repeat_run_is_bit_identical(self):
        tcfg = TrainingConfig(n_training_samples=2000, iterations=2, seed=5)
        coeffs_a, report_a = ila_train(REF_CHAIN, CFG, tcfg, WAVE)
        coeffs_b, report_b = ila_train(REF_CHAIN, CFG, tcfg, WAVE)
        assert_array_equal(coeffs_a.h, coeffs_b.h)
        assert report_a.to_json_list() == report_b.to_json_list()

    def test_back_to_back_sessions_equal_sessions_run_alone(self):
        """Sessions on different seeds, run one after the other in one
        process, give the reports each gives in a process of its own: no
        session's validation reference reaches the next."""
        code = (
            "import json\n"
            "from aphdpd import AphConfig, IqModulatorModel, PaModel, TrainingConfig, TxChain\n"
            "from aphdpd import ila_train\n"
            "from aphdpd.waveforms import white_gaussian\n"
            "chain = TxChain(IqModulatorModel(1.0, 5.0, 0.0112 + 0.0112j),\n"
            "                PaModel(0.9490 - 0.0197j, 0.4885 + 0.1071j, -1.0156 - 0.0474j))\n"
            "tcfg = TrainingConfig(n_training_samples=2000, iterations=2, seed=SEED)\n"
            "_, report = ila_train(chain, AphConfig.default(), tcfg,\n"
            "                      lambda n, seed: white_gaussian(n, 0.15, seed, 1.0))\n"
            "print(json.dumps([report.baseline_nmse_db, report.to_json_list()]))\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        in_turn = {}
        for seed in (3, 11):
            tcfg = TrainingConfig(n_training_samples=2000, iterations=2, seed=seed)
            _, report = ila_train(REF_CHAIN, CFG, tcfg, WAVE)
            in_turn[seed] = json.loads(
                json.dumps([report.baseline_nmse_db, report.to_json_list()])
            )
        assert in_turn[3] != in_turn[11]
        for seed, got in in_turn.items():
            proc = subprocess.run(
                [sys.executable, "-c", code.replace("SEED", str(seed))],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == got, seed

    @pytest.mark.skipif(usable_cpus() == 1, reason="one usable CPU: no mask to narrow")
    def test_report_is_independent_of_the_cpu_mask(self, tmp_path):
        """`dpd train` on a shipped config writes the same coefficient and
        report bytes in a child limited to one CPU, before numpy starts (and
        sizes its BLAS thread pool), as in a child on every CPU of this
        process."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("DPD_SEED", None)
        outputs = []
        for mask in ("{min(os.sched_getaffinity(0))}", "os.sched_getaffinity(0)"):
            coeffs = tmp_path / f"h_{len(outputs)}.json"
            report = tmp_path / f"report_{len(outputs)}.json"
            argv = ["train", str(root / "configs" / "single_carrier.json"),
                    str(coeffs), str(report)]
            code = (
                f"import os\nos.sched_setaffinity(0, {mask})\n"
                f"import aphdpd.cli\nassert aphdpd.cli.main({argv!r}) == 0\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((coeffs.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("coefficients", ["identity", "trained"])
    def test_gate_equals_nmse_of_the_normalized_output(self, coefficients):
        """The gate's NMSE from the session's reference is the float
        nmse_db gives for the output divided by the estimated gain, at the
        baseline and near -69 dB, where a last-bit change in the
        normalized output moves the result."""
        stimulus = WAVE(3000, 8)
        coeffs = identity_coefficients(CFG)
        if coefficients == "trained":
            tcfg = TrainingConfig(n_training_samples=2000, iterations=2, seed=8)
            coeffs, _ = ila_train(REF_CHAIN, CFG, tcfg, WAVE)
        s = run_tx_chain(predistort_serial(stimulus, coeffs, CFG), REF_CHAIN)
        gain = estimate_gain(stimulus, s)
        want = nmse_db(s.samples.astype(np.complex128) / gain, stimulus.samples)
        reference = stimulus.samples.astype(np.complex128)
        energy = float(np.sum(reference.real**2 + reference.imag**2))
        got = _linearization_nmse_db(REF_CHAIN, CFG, coeffs, stimulus, reference, energy)
        assert got == want

    def test_report_structure(self):
        _, report = ila_train(
            REF_CHAIN, CFG, TrainingConfig(n_training_samples=2000, iterations=2), WAVE
        )
        rows = report.to_json_list()
        assert [r["iteration"] for r in rows] == [1, 2]
        for row in rows:
            assert set(row) >= {"iteration", "nmse_db", "candidate_nmse_db", "gain",
                                "accepted", "residual_norm", "condition_estimate",
                                "ridge_lambda", "coefficients"}
            assert len(row["coefficients"]) == CFG.n_coefficients
            assert row["ridge_lambda"] > 0.0  # automatic level
            if row["accepted"]:
                assert row["candidate_nmse_db"] == row["nmse_db"]
            else:
                assert row["candidate_nmse_db"] is None or row["candidate_nmse_db"] > row["nmse_db"]

    def test_too_few_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            ila_train(REF_CHAIN, CFG, TrainingConfig(n_training_samples=259), WAVE)

    def test_diverging_chain_reported(self):
        """An absurd chain gain overflows single precision; the trainer must
        say so instead of returning garbage."""
        hot = TxChain(IqModulatorModel(), PaModel(alpha1=1e39))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            ila_train(hot, CFG, TrainingConfig(n_training_samples=2000, iterations=1), WAVE)

    def test_overdriven_chain_fails_loudly(self):
        """At RMS 50 the PA polynomial is far outside its range, and the
        untrained chain scores worse than an all-zero output (NMSE >= 0 dB).
        Training stops and names the NMSE and the drive instead of
        returning identity coefficients."""
        tcfg = TrainingConfig(n_training_samples=2000, iterations=1)
        with pytest.raises(DivergenceError, match=r"baseline NMSE \+\d.*RMS 50\b"):
            ila_train(REF_CHAIN, CFG, tcfg, make_waveform=lambda n, seed: _buffer(n, seed, 50.0))

    @pytest.mark.parametrize(
        "fitted, blow_up",
        [
            pytest.param(fitted, blow_up, id=f"fitted-basis-{name}" if fitted else name)
            for fitted in (False, True)
            for name, blow_up in (
                ("chain-overflows", lambda h: 1e30 * h),
                ("predistorter-overflows", lambda h: np.full_like(h, 3e38)),
                ("coefficients-overflow", lambda h: 1e40 * h),
            )
        ],
    )
    def test_overflowing_candidate_is_rejected(self, monkeypatch, fitted, blow_up):
        """A candidate whose validation overflows single precision, in the
        transmit chain or in the predistorter itself, or whose coefficients
        do not fit in single precision at all, is recorded as rejected with
        no candidate NMSE, the kept state stays the baseline, and no
        warning is raised. On a fitted basis the candidate's coefficients
        may fit while the taps the basis folds them into do not: that too
        is a rejection, not the end of training."""

        def huge_solve(*args):
            h, cond = _lstsq_ridge(*args)
            return blow_up(h), cond

        cfg = CFG
        if fitted:
            basis = fit_orthogonal_basis(WAVE(4000, 2), CFG.sets)
            cfg = AphConfig(CFG.sets, CFG.taps_main, CFG.taps_conj, basis)
        monkeypatch.setattr("aphdpd.training._lstsq_ridge", huge_solve)
        tcfg = TrainingConfig(n_training_samples=2000, iterations=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, report = ila_train(REF_CHAIN, cfg, tcfg, WAVE)
        (record,) = report.records
        assert not record.accepted and record.candidate_nmse_db is None
        assert record.nmse_db == report.baseline_nmse_db
        assert report.to_json_list()[0]["candidate_nmse_db"] is None
        assert_array_equal(coeffs.h, identity_coefficients(cfg).h)

    def test_stage_configuration_error_is_not_divergence(self, monkeypatch):
        """Only an overflow means divergence: a ConfigurationError raised
        inside a stage is a real fault and must reach the caller as is."""

        def broken(*args):
            raise ConfigurationError("layout bug")

        monkeypatch.setattr("aphdpd.training.predistort_serial", broken)
        with pytest.raises(ConfigurationError, match="layout bug"):
            ila_train(REF_CHAIN, CFG, TrainingConfig(n_training_samples=2000, iterations=1), WAVE)

    def test_custom_waveform_factory(self):
        calls = []

        def factory(n, seed):
            calls.append((n, seed))
            return _buffer(n, seed=seed)

        tcfg = TrainingConfig(n_training_samples=2000, iterations=2, seed=30)
        ila_train(REF_CHAIN, CFG, tcfg, make_waveform=factory)
        assert (2000, 30) in calls          # validation stimulus
        assert (2000, 31) in calls and (2000, 32) in calls  # per-iteration

    def test_orthogonal_basis_path(self):
        training = _buffer(3000, seed=77, rms=0.15)
        basis = fit_orthogonal_basis(training, CFG.sets)
        cfg = AphConfig(CFG.sets, CFG.taps_main, CFG.taps_conj, basis)
        _, report = ila_train(
            REF_CHAIN, cfg, TrainingConfig(n_training_samples=3000, iterations=2, seed=77), WAVE
        )
        assert report.nmse_db[-1] < report.baseline_nmse_db - 15.0


class TestTrainMemory:
    def test_peak_rss_per_training_sample(self, tmp_path):
        """`dpd train` peaks at most 150 B higher per added training sample,
        between 250k and 500k samples and one iteration (the children's
        VmHWM). About 120 B are left: the basis fit's stimulus of twice the
        training length, and each iteration's complex128 target and
        feedback. Whole-buffer branch rows, their conjugate and a padded
        target in the normal equations took about 280 B."""
        root = Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "single_carrier.json").read_text())
        peaks = []
        for n in (250_000, 500_000):
            doc["training"] = {"n_training_samples": n, "iterations": 1}
            config = tmp_path / f"config_{n}.json"
            config.write_text(json.dumps(doc))
            argv = ["train", str(config), str(tmp_path / "h.json"), str(tmp_path / "r.json")]
            peaks.append(child_peak_rss(f"assert aphdpd.cli.main({argv!r}) == 0"))
        assert (peaks[1] - peaks[0]) / 250_000 <= 150
