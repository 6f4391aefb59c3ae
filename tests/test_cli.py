"""End-to-end checks of the `dpd` command surface, run in process."""

from __future__ import annotations

import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aphdpd import analysis, cli, read_iq
from aphdpd.config import _read_json

FAST_DOC = {
    "sample_rate_hz": 61.44e6,
    "n_samples": 30_000,
    "seed": 11,
    "drive_rms": 0.15,
    "carriers": [{"center_offset_hz": 0.0, "bandwidth_hz": 9e6, "power_db": 0.0}],
    "dpd": {
        "max_order_main": 5,
        "max_order_conj": 3,
        "taps_main": 5,
        "taps_conj": 5,
        "basis_mode": "plain",
    },
    "training": {"n_training_samples": 3000, "iterations": 2},
    "pa": {"alpha1": [0.949, -0.0197], "alpha3": [0.4885, 0.1071], "alpha5": [-1.0156, -0.0474]},
    "iq_modulator": {
        "gain_imbalance_db": 1.0,
        "phase_imbalance_deg": 5.0,
        "lo_leakage": [0.0112, 0.0112],
    },
    "analysis": {"nfft": 1024, "overlap": 0.5, "bands": [[5e6, 15e6], [-15e6, -5e6]]},
}


@pytest.fixture
def config_path(tmp_path, monkeypatch):
    monkeypatch.delenv("DPD_SEED", raising=False)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(FAST_DOC))
    return str(path)


def _config_variant(tmp_path, name, **overrides):
    doc = json.loads(json.dumps(FAST_DOC))
    for key, value in overrides.items():
        section, _, leaf = key.partition(".")
        if leaf:
            doc[section][leaf] = value
        else:
            doc[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestGenerate:
    def test_writes_sized_payload(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "wave.iq")
        assert cli.main(["generate", config_path, out]) == 0
        assert os.path.getsize(out) == 30_000 * 8
        buf = read_iq(out)
        assert len(buf) == 30_000
        assert buf.rms() == pytest.approx(0.15, rel=1e-5)
        assert "30000" in capsys.readouterr().out

    def test_env_seed_changes_output(self, config_path, tmp_path, monkeypatch):
        a, b, c = (str(tmp_path / n) for n in ("a.iq", "b.iq", "c.iq"))
        cli.main(["generate", config_path, a])
        monkeypatch.setenv("DPD_SEED", "999")
        cli.main(["generate", config_path, b])
        cli.main(["generate", config_path, c])
        wave_a, wave_b, wave_c = read_iq(a), read_iq(b), read_iq(c)
        assert not np.array_equal(wave_a.samples, wave_b.samples)
        np.testing.assert_array_equal(wave_b.samples, wave_c.samples)

    def test_config_error_names_missing_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(json.dumps(FAST_DOC))
        del doc["sample_rate_hz"]
        bad.write_text(json.dumps(doc))
        assert cli.main(["generate", str(bad), str(tmp_path / "x.iq")]) == 1
        assert "sample_rate_hz" in capsys.readouterr().err

    def test_allocation_failure_is_one_error_line(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        """An array too large for memory (say "n_samples": 10**13) ends as
        one error line; here a CLI-bound name raises instead of allocating."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. TiB for an array")

        monkeypatch.setattr(cli, "write_iq", out_of_memory)
        capsys.readouterr()
        assert cli.main(["generate", config_path, str(tmp_path / "x.iq")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and len(err.strip().splitlines()) == 1


class TestNegativeSeed:
    """numpy's generators take no seed below 0: such a seed, from the
    config or from DPD_SEED, is one error line naming it, and no file is
    written."""

    @staticmethod
    def _argv(command, config, tmp_path):
        outs = ["x.iq"] if command == "generate" else ["c.json", "r.json"]
        return [command, config, *(str(tmp_path / name) for name in outs)]

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_config_seed(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.delenv("DPD_SEED", raising=False)
        config = _config_variant(tmp_path, "neg.json", seed=-1)
        assert cli.main(self._argv(command, config, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == "error: 'seed' must be >= 0, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["neg.json"]

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_env_seed(self, config_path, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("DPD_SEED", "-3")
        assert cli.main(self._argv(command, config_path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == "error: DPD_SEED must be >= 0, got -3\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]


class TestTrain:
    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        outs = []
        for tag in ("one", "two"):
            coeffs = tmp_path / f"coeffs_{tag}.json"
            report = tmp_path / f"report_{tag}.json"
            assert cli.main(["train", config_path, str(coeffs), str(report)]) == 0
            outs.append((coeffs.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

    def test_unwritable_report_keeps_the_old_coefficients(self, config_path, tmp_path, capsys):
        """The coefficient file and the report land together: a report that
        cannot be written leaves the old coefficient file byte for byte,
        with one error line and no part file."""
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text('{"older": "coefficients"}\n')
        old = coeffs.read_bytes()
        report = tmp_path / "missing_dir" / "report.json"
        assert cli.main(["train", config_path, str(coeffs), str(report)]) == 1
        assert "missing_dir" in _one_error_line(capsys)
        assert coeffs.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coeffs.json", "exp.json"]

    def test_failed_second_rename_keeps_the_old_pair(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        """If the report's rename fails after the coefficient file's, the
        old coefficient file is put back: both old files keep their bytes,
        with one error line and no part or link file."""
        coeffs, report = tmp_path / "coeffs.json", tmp_path / "report.json"
        coeffs.write_text('{"older": "coefficients"}\n')
        report.write_text('[{"older": "report"}]\n')
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace, calls = os.replace, []

        def second_rename_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_rename_fails)
        assert cli.main(["train", config_path, str(coeffs), str(report)]) == 1
        assert _one_error_line(capsys) == "rename refused"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_report_is_iteration_array(self, config_path, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        report = tmp_path / "report.json"
        cli.main(["train", config_path, str(coeffs), str(report)])
        rows = json.loads(report.read_text())
        assert isinstance(rows, list) and len(rows) == 2
        assert rows[0]["iteration"] == 1
        assert {"candidate_nmse_db", "ridge_lambda"} <= set(rows[0])
        printed = capsys.readouterr().out
        assert "baseline" in printed and "iteration 2" in printed
        for row, line in zip(rows, printed.splitlines()[1:]):
            if not row["accepted"]:
                assert "candidate" in line

    def test_overdriven_basis_fit_reports_the_rms(self, tmp_path, capsys):
        """With main orders to 23 the diagonally scaled basis moments are
        numerically singular at any drive (the scaling removes the drive
        level); at drive_rms 50 the one error line reports the condition
        and the training RMS."""
        hot = _config_variant(
            tmp_path,
            "hot.json",
            drive_rms=50,
            **{"dpd.basis_mode": "orthogonal", "dpd.max_order_main": 23},
        )
        capsys.readouterr()
        rc = cli.main(["train", hot, str(tmp_path / "c.json"), str(tmp_path / "r.json")])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "cond ~" in lines[0] and "RMS 50" in lines[0]

    def test_overdriven_plain_training_fails(self, tmp_path, capsys):
        """The plain basis has no fit to fail at drive_rms 50, so training
        itself must stop: one error line naming the baseline NMSE and the
        drive, exit 1, and no coefficient or report file."""
        hot = _config_variant(tmp_path, "hot.json", drive_rms=50)
        coeffs, report = tmp_path / "c.json", tmp_path / "r.json"
        capsys.readouterr()
        assert cli.main(["train", hot, str(coeffs), str(report)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: baseline NMSE +")
        assert "RMS 50" in lines[0] and "reduce the drive" in lines[0]
        assert not coeffs.exists() and not report.exists()

    def test_linear_chain_report_has_finite_residuals(self, tmp_path):
        """On a linear chain the model fits the data to rounding, so the
        residual's square cancels to about zero and may land below it:
        every reported residual_norm is still a finite number that the
        strict JSON reader accepts."""
        linear = _config_variant(
            tmp_path,
            "linear.json",
            **{
                "pa.alpha3": [0.0, 0.0],
                "pa.alpha5": [0.0, 0.0],
                "iq_modulator.gain_imbalance_db": 0.0,
                "iq_modulator.phase_imbalance_deg": 0.0,
                "iq_modulator.lo_leakage": [0.0, 0.0],
            },
        )
        report = tmp_path / "r.json"
        assert cli.main(["train", linear, str(tmp_path / "c.json"), str(report)]) == 0
        residuals = [row["residual_norm"] for row in _read_json(report)]
        assert residuals and all(np.isfinite(r) and r >= 0.0 for r in residuals)

    def test_coefficient_file_is_self_contained(self, config_path, tmp_path):
        coeffs = tmp_path / "coeffs.json"
        cli.main(["train", config_path, str(coeffs), str(tmp_path / "r.json")])
        doc = json.loads(coeffs.read_text())
        assert {"h", "c", "layout"} <= set(doc)
        assert "basis" in doc["layout"]


def _identity_coeffs(config_path, tmp_path):
    """The config's identity coefficients as a coefficient file: with the
    plain basis the predistorter passes every sample through unchanged."""
    from aphdpd import coefficients_to_json_dict, identity_coefficients, load_experiment_config

    cfg = load_experiment_config(config_path).aph_config()
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(coefficients_to_json_dict(identity_coefficients(cfg), cfg)))
    return str(path)


class TestPredistortSimulate:
    def test_identity_round_trip_and_worker_invariance(self, config_path, tmp_path):
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        ident = _identity_coeffs(config_path, tmp_path)
        out1 = str(tmp_path / "out1.iq")
        out4 = str(tmp_path / "out4.iq")
        assert cli.main(["predistort", config_path, ident, wave, out1]) == 0
        assert cli.main(
            ["predistort", config_path, ident, wave, out4, "--workers", "4", "--chunk-len", "4096"]
        ) == 0
        np.testing.assert_array_equal(read_iq(out1).samples, read_iq(wave).samples)
        assert (tmp_path / "out1.iq").read_bytes() == (tmp_path / "out4.iq").read_bytes()

    def test_missing_coefficients_file(self, config_path, tmp_path, capsys):
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        rc = cli.main(["predistort", config_path, str(tmp_path / "no.json"), wave, wave + ".o"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("c", [1]),
            ("c", "0"),
            ("h", 3),
            ("h", [[1.0]]),
            ("h", [[1.0, "x"]]),
            (None, "[1, 2]"),
            (None, "{not json"),
            ("extra", 1),
            ("layout", [1]),
            ("layout.conj_orders", [1.5, 3]),
            ("layout.taps_main", "5"),
            ("layout.speed", 1),
            ("layout.basis.mode", "fancy"),
            ("layout.basis.u_main", [[[1.0, 0.0]]]),
            ("layout.basis.u_conj", [[[1.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        ],
        ids=[
            "c-short",
            "c-text",
            "h-number",
            "h-short-pair",
            "h-text",
            "not-object",
            "invalid-json",
            "unknown-key",
            "layout-list",
            "layout-fractional-order",
            "layout-taps-text",
            "layout-unknown-key",
            "basis-mode",
            "basis-missing-rows",
            "basis-short-pair",
        ],
    )
    def test_malformed_coefficients_are_one_error_line(
        self, config_path, tmp_path, capsys, key, value
    ):
        """`key` is a dotted path into the coefficient document; without
        one, `value` is the whole file."""
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        bad = Path(_identity_coeffs(config_path, tmp_path))
        if key is None:
            bad.write_text(value)
        else:
            doc = json.loads(bad.read_text())
            *parents, leaf = key.split(".")
            section = doc
            for name in parents:
                section = section[name]
            section[leaf] = value
            bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["predistort", config_path, str(bad), wave, wave + ".o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and len(err.strip().splitlines()) == 1
        if key is not None:
            assert f"'{key}" in err

    def test_malformed_sidecar_is_one_error_line(self, config_path, tmp_path, capsys):
        wave = tmp_path / "wave.iq"
        cli.main(["generate", config_path, str(wave)])
        (tmp_path / "wave.iq.json").write_text("{not json")
        capsys.readouterr()
        assert cli.main(["simulate", config_path, str(wave), str(tmp_path / "o.iq")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_simulate_ideal_chain_passthrough(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DPD_SEED", raising=False)
        ideal = _config_variant(
            tmp_path,
            "ideal.json",
            **{
                "pa.alpha1": [1.0, 0.0],
                "pa.alpha3": [0.0, 0.0],
                "pa.alpha5": [0.0, 0.0],
                "iq_modulator.gain_imbalance_db": 0.0,
                "iq_modulator.phase_imbalance_deg": 0.0,
                "iq_modulator.lo_leakage": [0.0, 0.0],
            },
        )
        wave = str(tmp_path / "wave.iq")
        out = str(tmp_path / "sim.iq")
        cli.main(["generate", ideal, wave])
        assert cli.main(["simulate", ideal, wave, out]) == 0
        np.testing.assert_allclose(read_iq(out).samples, read_iq(wave).samples, rtol=1e-6)

    def test_same_path_in_and_out(self, config_path, tmp_path):
        """The input is a read-only map of its file, and the output is
        renamed over that path, so the map keeps the old file's pages and
        in and out may be one path: simulate (with and without DPD) and
        predistort then write the bytes they write to a fresh path."""
        wave = tmp_path / "wave.iq"
        cli.main(["generate", config_path, str(wave)])
        coeffs = str(tmp_path / "coeffs.json")
        assert cli.main(["train", config_path, coeffs, str(tmp_path / "report.json")]) == 0
        runs = {
            "simulate": ["simulate", config_path],
            "simulate_dpd": ["simulate", config_path, "--with-dpd", coeffs],
            "predistort": ["predistort", config_path, coeffs],
        }
        for name, argv in runs.items():
            fresh, same = tmp_path / f"{name}_fresh.iq", tmp_path / f"{name}_same.iq"
            same.write_bytes(wave.read_bytes())
            Path(str(same) + ".json").write_bytes(Path(str(wave) + ".json").read_bytes())
            assert cli.main([*argv, str(wave), str(fresh)]) == 0
            assert cli.main([*argv, str(same), str(same)]) == 0
            assert same.read_bytes() == fresh.read_bytes(), name
            assert Path(str(same) + ".json").read_bytes() == Path(str(fresh) + ".json").read_bytes()

    def test_simulate_with_dpd_flag(self, config_path, tmp_path):
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        ident = _identity_coeffs(config_path, tmp_path)
        plain = str(tmp_path / "sim_plain.iq")
        with_dpd = str(tmp_path / "sim_dpd.iq")
        assert cli.main(["simulate", config_path, wave, plain]) == 0
        assert cli.main(["simulate", config_path, wave, with_dpd, "--with-dpd", ident]) == 0
        # identity DPD must reproduce the plain simulation exactly
        np.testing.assert_array_equal(read_iq(plain).samples, read_iq(with_dpd).samples)


class TestWorkerCount:
    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        """simulate (with and without DPD) and evaluate run on every usable
        CPU; at 1 and at 2 they write the same bytes. 200k samples make
        four TX-chain blocks, and a 16 Ki-sample Welch batch makes 25 FFT
        batches."""
        monkeypatch.delenv("DPD_SEED", raising=False)
        monkeypatch.setattr(analysis, "_WELCH_BATCH_SAMPLES", 16384)
        config = _config_variant(tmp_path, "long.json", n_samples=200_000)
        wave, coeffs = str(tmp_path / "wave.iq"), str(tmp_path / "coeffs.json")
        raw, dpd, evaluation = (tmp_path / n for n in ("raw.iq", "dpd.iq", "eval.json"))
        assert cli.main(["generate", config, wave]) == 0
        assert cli.main(["train", config, coeffs, str(tmp_path / "report.json")]) == 0
        written = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda cpus=cpus: cpus)
            assert cli.main(["simulate", config, wave, str(raw)]) == 0
            assert cli.main(["simulate", config, wave, str(dpd), "--with-dpd", coeffs]) == 0
            assert cli.main(
                ["evaluate", config, str(raw), str(dpd), "--out", str(evaluation)]
            ) == 0
            written[cpus] = [path.read_bytes() for path in (raw, dpd, evaluation)]
        assert written[1] == written[2]

    def test_predistort_workers_default_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
        args = cli.build_parser().parse_args(["predistort", "exp.json", "k.json", "i", "o"])
        assert args.workers == 3


class TestEvaluate:
    def test_psd_csv_to_stdout(self, config_path, tmp_path, capsys):
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        capsys.readouterr()  # drop the generate summary line
        assert cli.main(["evaluate", config_path, wave]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "freq_hz,psd_db"
        assert len(lines) == 1 + FAST_DOC["analysis"]["nfft"]

    def test_same_file_twice_reports_zero_suppression(self, config_path, tmp_path):
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        out = tmp_path / "eval.json"
        assert cli.main(["evaluate", config_path, wave, wave, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["bands"]) == 2
        for band in doc["bands"]:
            assert band["suppression_db"] == pytest.approx(0.0, abs=1e-12)
            assert band["reference_band_power_db"] == band["test_band_power_db"]

    @pytest.mark.parametrize("nfft, overlap", [(4096, 0.9999), (3, 0.9)])
    def test_overlap_rounding_step_to_zero_is_one_error_line(
        self, config_path, tmp_path, capsys, nfft, overlap
    ):
        """An overlap that rounds the Welch step to 0 samples is a config
        error naming `analysis.overlap`, not a traceback."""
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        bad = _config_variant(
            tmp_path, "overlap.json",
            analysis={**FAST_DOC["analysis"], "nfft": nfft, "overlap": overlap},
        )
        capsys.readouterr()
        assert cli.main(["evaluate", bad, wave]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "analysis.overlap" in err

    def test_band_outside_nyquist_fails_cleanly(self, tmp_path, capsys):
        bad = _config_variant(tmp_path, "bad_band.json", **{"analysis.bands": [[40e6, 50e6]]})
        rc = cli.main(["evaluate", bad, str(tmp_path / "missing.iq")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_csv_written(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        rc = cli.main(
            ["bench", config_path, out, "--n", "30000", "--workers", "1,2",
             "--chunk-len", "8192", "--repeats", "1"]
        )
        assert rc == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("workers,chunk_len,n_samples")
        assert len(lines) == 3
        assert "Msps" in capsys.readouterr().out

    def test_failed_csv_write_keeps_the_old_csv(self, config_path, tmp_path, monkeypatch, capsys):
        """The CSV lands by rename: a write that fails after the header
        leaves the old CSV byte for byte, with one error line, exit 1 and
        no part file."""
        out = tmp_path / "bench.csv"
        out.write_text("older,bench\n1,2\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_writer = csv.writer

        class FullDisk:
            def __init__(self, fh, **kwargs):
                self.inner, self.rows = real_writer(fh, **kwargs), 0

            def writerow(self, row):
                if self.rows:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.rows += 1
                self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FullDisk)
        argv = ["bench", config_path, str(out), "--n", "30000", "--workers", "1", "--repeats", "1"]
        assert cli.main(argv) == 1
        assert "No space left on device" in _one_error_line(capsys)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_bad_worker_list_is_a_usage_error(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["bench", config_path, str(tmp_path / "b.csv"), "--workers", "x"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "'x'" in err

    def test_chunk_len_defaults_by_worker_count(self, config_path, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(
            ["bench", config_path, str(out), "--n", "70000", "--workers", "1,2", "--repeats", "1"]
        )
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 16384), (2, 65536)]


def _one_error_line(capsys) -> str:
    """The one stderr line of a command that failed, without 'error: '."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0].removeprefix("error: ")


class TestOverflow:
    """A stage driven past single precision ends the command with one
    error line that names the stage, exit 1 and no output file: no
    RuntimeWarning, no traceback, no message about a finite input not
    being finite."""

    @pytest.fixture
    def hot_input(self, config_path, tmp_path):
        """A file of finite samples at 1e12, three 64 Ki-sample blocks long
        so that two workers share them, and the config's identity
        coefficients."""
        from aphdpd import IqBuffer, write_iq

        path = tmp_path / "hot.iq"
        write_iq(IqBuffer(np.full(2 * 65536 + 7, 1e12 + 1e12j, np.complex64), 61.44e6), path)
        return str(path), _identity_coeffs(config_path, tmp_path)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "command, stage",
        [
            ("simulate", "transmit chain output overflows"),
            ("simulate --with-dpd", "predistorter overflows"),
            ("predistort", "predistorter overflows"),
        ],
    )
    def test_overflow_is_one_divergence_line(
        self, config_path, hot_input, tmp_path, monkeypatch, capsys, command, stage, workers
    ):
        hot, coeffs = hot_input
        out = tmp_path / "out.iq"
        monkeypatch.setattr(cli, "usable_cpus", lambda: workers)
        argv = {
            "simulate": ["simulate", config_path, hot, str(out)],
            "simulate --with-dpd": ["simulate", config_path, hot, str(out), "--with-dpd", coeffs],
            "predistort": [
                "predistort", config_path, coeffs, hot, str(out), "--workers", str(workers)
            ],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == 1
        message = _one_error_line(capsys)
        assert message.startswith(stage) and "single precision" in message
        assert not out.exists()

    def test_overdriven_pa_gain_stops_training(self, tmp_path, capsys):
        """alpha1 = 1e39 is finite in double, but the chain's output is
        not in single precision: training raises DivergenceError."""
        hot = _config_variant(tmp_path, "hot.json", **{"pa.alpha1": [1e39, 0]})
        coeffs, report = tmp_path / "c.json", tmp_path / "r.json"
        capsys.readouterr()
        assert cli.main(["train", hot, str(coeffs), str(report)]) == 1
        assert _one_error_line(capsys).startswith("transmit chain output overflows")
        assert not coeffs.exists() and not report.exists()


class TestConfigGainBounds:
    """A dB value whose linear gain overflows a double is a config error
    naming its key; one that is finite in double but overflows single
    precision ends as one line naming the carrier power or the drive."""

    @pytest.mark.parametrize(
        "key, value, command, expected",
        [
            ("carriers", [{"center_offset_hz": 0.0, "bandwidth_hz": 9e6, "power_db": 8000}],
             "generate", "power_db 8000"),
            ("iq_modulator.gain_imbalance_db", 8000, "simulate", "gain_imbalance_db 8000"),
            ("carriers", [{"center_offset_hz": 0.0, "bandwidth_hz": 9e6, "power_db": 800}],
             "generate", "carrier power_db 800"),
            ("drive_rms", 1e308, "generate", "drive RMS 1e+308"),
        ],
        ids=["power_db-8000", "gain_imbalance_db-8000", "power_db-800", "drive_rms-1e308"],
    )
    def test_one_error_line_naming_the_key(
        self, config_path, tmp_path, capsys, key, value, command, expected
    ):
        config = _config_variant(tmp_path, "hot.json", **{key: value})
        out = tmp_path / "out.iq"
        if command == "generate":
            argv = ["generate", config, str(out)]
        else:
            wave = str(tmp_path / "wave.iq")
            assert cli.main(["generate", config_path, wave]) == 0
            argv = ["simulate", config, wave, str(out)]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert _one_error_line(capsys).startswith(expected)
        assert not out.exists()


class TestDriveUnderflow:
    """A drive RMS below single precision's smallest normal would give a
    stimulus of zero or subnormal samples: the commands that synthesize it
    refuse it with one error line and write no file."""

    @pytest.mark.parametrize("drive_rms", [1e-300, 1e-40])
    @pytest.mark.parametrize("command, outputs", [("generate", 1), ("train", 2)])
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, command, outputs, drive_rms):
        monkeypatch.delenv("DPD_SEED", raising=False)
        config = _config_variant(tmp_path, "quiet.json", drive_rms=drive_rms)
        argv = [command, config, *(str(tmp_path / f"out{i}") for i in range(outputs))]
        assert cli.main(argv) == 1
        expected = f"drive RMS {drive_rms:g} underflows single precision"
        assert _one_error_line(capsys).startswith(expected)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["quiet.json"]


class TestSampleRate:
    """A sample rate of zero or below is refused under its own key. A
    positive rate too low for the carrier is refused by the carrier rule,
    which names both."""

    @pytest.mark.parametrize(
        "rate, expected",
        [
            (0, "'sample_rate_hz' must be positive, got 0.0"),
            (-61.44e6, "'sample_rate_hz' must be positive, got -61440000.0"),
            (1e-300, "carrier at 0.0 Hz with bandwidth 9000000.0 Hz exceeds Nyquist "
                     "for fs=1e-300 Hz"),
        ],
        ids=["zero", "negative", "tiny"],
    )
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, rate, expected):
        monkeypatch.delenv("DPD_SEED", raising=False)
        config = _config_variant(tmp_path, "rate.json", sample_rate_hz=rate)
        out = tmp_path / "out.iq"
        assert cli.main(["generate", config, str(out)]) == 1
        assert _one_error_line(capsys) == expected
        assert not out.exists()


class TestRangeErrorsNameTheirPlace:
    """A count below 1 or a bandwidth of zero is refused under its dotted
    key, with the carrier's or tap list's index, so a config with several
    carriers or branches shows which one is wrong. So is a branch family's
    top order that is even, below 1, or (for the conjugate family) above the
    main family's."""

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (
                {"training.n_training_samples": 0},
                "'training.n_training_samples' must be >= 1, got 0",
            ),
            ({"training.iterations": 0}, "'training.iterations' must be >= 1, got 0"),
            (
                {"carriers": [
                    FAST_DOC["carriers"][0],
                    {"center_offset_hz": 10e6, "bandwidth_hz": 0, "power_db": 0.0},
                ]},
                "'carriers[1].bandwidth_hz' must be positive, got 0.0",
            ),
            ({"dpd.taps_main": [5, 0, 5]}, "'dpd.taps_main[1]' must be >= 1, got 0"),
            ({"dpd.taps_conj": 0}, "'dpd.taps_conj' must be >= 1, got 0"),
            ({"dpd.taps_main": -1}, "'dpd.taps_main' must be >= 1, got -1"),
            (
                {"dpd.max_order_conj": 7},
                "'dpd.max_order_conj' reaches order 7, above the main family's top order 5",
            ),
            *(
                (
                    {f"dpd.{key}": top},
                    f"'dpd.{key}' must be an odd order from 1 to the order bound 127, got {top}",
                )
                for key, top in [
                    ("max_order_main", 4), ("max_order_conj", 2),
                    ("max_order_main", 0), ("max_order_main", -3),
                ]
            ),
        ],
        ids=[
            "n_training_samples", "iterations", "bandwidth_hz",
            "tap-entry", "taps-zero", "taps-negative", "conj-above-main",
            "main-even", "conj-even", "main-zero", "main-negative",
        ],
    )
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, overrides, expected):
        monkeypatch.delenv("DPD_SEED", raising=False)
        config = _config_variant(tmp_path, "range.json", **overrides)
        out = tmp_path / "out.iq"
        assert cli.main(["generate", config, str(out)]) == 1
        assert _one_error_line(capsys) == expected
        assert not out.exists()


def _loaded_by_import(names) -> list[str]:
    """The modules among `names` that a fresh interpreter holds in
    sys.modules after `import aphdpd.cli`."""
    return _fresh_json(
        "import json, sys, aphdpd.cli; "
        f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"
    )


def _fresh_json(code: str):
    """What a fresh interpreter running `code` against the source tree
    prints as JSON, with warnings as errors and nothing on stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_import_needs_no_scipy():
    """The package runs on numpy alone; importing it is most of the
    start-up of every `dpd` command."""
    assert _loaded_by_import(["scipy"]) == []


def test_import_skips_the_costly_standard_modules():
    """Every `dpd` process pays the package's import. These modules cost
    about 20 ms of it (`-X importtime`, 2-vCPU x86 host, Python 3.11):
    `dataclasses` compiles each generated method of a value class on its
    own, `concurrent.futures` loads `logging`, and `statistics` loads
    `fractions` and `decimal`. The package needs none of them."""
    costly = ["dataclasses", "concurrent.futures", "logging", "statistics", "fractions", "decimal"]
    assert _loaded_by_import(costly) == []


def test_import_binds_no_reference_form():
    """The elementwise TX chain, the NMSE of two arrays, the gain of two
    buffers and the one-carrier generator were expressions that only tests
    called. The first four are test oracles now (`conftest.py`), and the
    last is `compose_multicarrier` with one spec: a fresh `import aphdpd`
    binds none of them, in the package or in any of its modules."""
    names = ["pa_evaluate", "iq_modulate", "nmse_db", "estimate_gain", "generate_carrier"]
    bound = _fresh_json(
        "import json, sys, aphdpd\n"
        "modules = [m for key, m in sys.modules.items() if key.split('.')[0] == 'aphdpd']\n"
        f"names = {names!r}\n"
        "print(json.dumps([m.__name__ + '.' + n for m in modules for n in names "
        "if hasattr(m, n)]))\n"
    )
    assert bound == []


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["frobnicate"])
        assert exc_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 2


class TestRemovedSettings:
    """Settings that no command used are gone; an input that still gives one
    ends the command with one error line."""

    @pytest.mark.parametrize("command, n_outputs", [("generate", 1), ("train", 2)])
    def test_config_with_ridge_lambda(self, tmp_path, monkeypatch, capsys, command, n_outputs):
        monkeypatch.delenv("DPD_SEED", raising=False)
        old = _config_variant(tmp_path, "old.json", **{"training.ridge_lambda": None})
        outputs = [str(tmp_path / f"out{i}") for i in range(n_outputs)]
        assert cli.main([command, old, *outputs]) == 1
        assert _one_error_line(capsys) == "unknown key 'training.ridge_lambda'"

    def test_bench_coeffs_is_a_usage_error(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["bench", config_path, str(tmp_path / "b.csv"), "--coeffs", "c.json"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--coeffs" in err

    def test_file_without_sidecar(self, config_path, tmp_path, capsys):
        wave = tmp_path / "wave.iq"
        assert cli.main(["generate", config_path, str(wave)]) == 0
        (tmp_path / "wave.iq.json").unlink()
        capsys.readouterr()
        assert cli.main(["evaluate", config_path, str(wave)]) == 1
        assert _one_error_line(capsys) == f"{wave}: no sidecar JSON"

    def test_coefficient_file_with_basis_orders(self, config_path, tmp_path, capsys):
        """A coefficient file in the earlier format, which also gave the
        branch orders as `layout.basis.I_P` and `I_Q` and each basis entry
        as an [re, 0.0] pair, is refused: retrain to get the current one."""
        wave = str(tmp_path / "wave.iq")
        assert cli.main(["generate", config_path, wave]) == 0
        old = Path(_identity_coeffs(config_path, tmp_path))
        doc = json.loads(old.read_text())
        layout = doc["layout"]
        basis = layout["basis"]
        pairs = {
            key: [[[v, 0.0] for v in row] for row in basis[key]] for key in ("u_main", "u_conj")
        }
        layout["basis"] = {
            "mode": basis["mode"],
            "I_P": layout["main_orders"],
            "I_Q": layout["conj_orders"],
            **pairs,
        }
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["predistort", config_path, str(old), wave, wave + ".o"]) == 1
        assert _one_error_line(capsys) == f"{old}: unknown key 'layout.basis.I_P'"
        assert not Path(wave + ".o").exists()


class TestJsonBoundary:
    """Every JSON document a command reads (the config, a coefficient file,
    a sidecar) refuses a key given twice in one object and a nesting deeper
    than the decoder recurses: one error line naming the file, exit 1."""

    @pytest.fixture
    def documents(self, config_path, tmp_path):
        """(document name) -> (its path, a command that reads it)."""
        wave = str(tmp_path / "wave.iq")
        assert cli.main(["generate", config_path, wave]) == 0
        coeffs = _identity_coeffs(config_path, tmp_path)
        out = str(tmp_path / "out.iq")
        return {
            "config": (config_path, ["generate", config_path, out]),
            "coefficients": (coeffs, ["predistort", config_path, coeffs, wave, out]),
            "sidecar": (wave + ".json", ["evaluate", config_path, wave]),
        }

    @pytest.mark.parametrize(
        "document, key, value",
        [
            ("config", "seed", "7"),
            ("coefficients", "c", "[0.5, 0.0]"),
            ("sidecar", "n_samples", "1"),
        ],
        ids=["config-seed", "coefficients-c", "sidecar-n_samples"],
    )
    def test_duplicate_key(self, documents, capsys, document, key, value):
        """The key is given twice, first with another valid `value`."""
        path, argv = documents[document]
        text = Path(path).read_text()
        first = text.index(f'"{key}"')
        Path(path).write_text(f'{text[:first]}"{key}": {value}, {text[first:]}')
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert _one_error_line(capsys) == f"{path}: duplicate key '{key}'"

    def test_sidecar_unknown_key(self, documents, capsys):
        """The sidecar is read by a key table as strict as the config's:
        a misspelt key is not taken for a missing optional one."""
        path, argv = documents["sidecar"]
        doc = json.loads(Path(path).read_text())
        doc["n_sample"] = doc.pop("n_samples")
        Path(path).write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert _one_error_line(capsys) == f"{path}: unknown key 'n_sample'"

    @pytest.mark.parametrize("document", ["config", "coefficients", "sidecar"])
    def test_deep_nesting(self, documents, capsys, document):
        path, argv = documents[document]
        Path(path).write_text("[" * 100_000 + "]" * 100_000)
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert _one_error_line(capsys).startswith(f"{path}: invalid JSON (maximum recursion")


class TestOrderBound:
    """A branch order above basis.MAX_ORDER is refused where it is read,
    before anything is sized by it: one error line naming the key and the
    bound, exit 1."""

    @pytest.mark.parametrize("key", ["dpd.max_order_main", "dpd.max_order_conj"])
    def test_config_order(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.delenv("DPD_SEED", raising=False)
        config = _config_variant(tmp_path, "huge.json", **{key: 2**62})
        assert cli.main(["generate", config, str(tmp_path / "w.iq")]) == 1
        line = _one_error_line(capsys)
        assert key.removeprefix("dpd.") in line and "order bound 127" in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    def test_coefficient_file_order(self, config_path, tmp_path, capsys):
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        bad = Path(_identity_coeffs(config_path, tmp_path))
        doc = json.loads(bad.read_text())
        doc["layout"]["main_orders"] = [1, 3, 10**30 + 1]
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["predistort", config_path, str(bad), wave, wave + ".o"]) == 1
        line = _one_error_line(capsys)
        assert line.startswith(f"{bad}: 'layout.main_orders' ") and "order bound 127" in line

    @pytest.mark.parametrize(
        "key, orders, rule",
        [
            ("main_orders", [1, 3, 6], "must contain odd positive orders"),
            ("conj_orders", [1, 10**30 + 1], "above the order bound 127"),
            ("conj_orders", [3, 1], "must be strictly ascending"),
        ],
        ids=["even-order", "huge-order", "descending"],
    )
    def test_basis_orders_name_their_key(self, config_path, tmp_path, capsys, key, orders, rule):
        """A rule broken in the layout's branch order lists, which the basis
        is built on, is reported under that list's dotted key."""
        wave = str(tmp_path / "wave.iq")
        cli.main(["generate", config_path, wave])
        bad = Path(_identity_coeffs(config_path, tmp_path))
        doc = json.loads(bad.read_text())
        doc["layout"][key] = orders
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["predistort", config_path, str(bad), wave, wave + ".o"]) == 1
        line = _one_error_line(capsys)
        assert line.startswith(f"{bad}: 'layout.{key}' ") and rule in line


@pytest.mark.parametrize("value", [10**30, 2**62], ids=["1e30", "2^62"])
def test_train_sample_count_numpy_cannot_index(tmp_path, monkeypatch, capsys, value):
    """A training length beyond what numpy can index is refused at parse
    time, naming the key, and no file is written."""
    monkeypatch.delenv("DPD_SEED", raising=False)
    config = _config_variant(tmp_path, "huge.json", **{"training.n_training_samples": value})
    assert cli.main(["train", config, str(tmp_path / "c.json"), str(tmp_path / "r.json")]) == 1
    assert _one_error_line(capsys).startswith("'training.n_training_samples' ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]
