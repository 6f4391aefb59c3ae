"""Experiment config parsing: strict keys, typed errors, env seed override."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aphdpd import (
    ConfigurationError,
    load_experiment_config,
    parse_experiment_config,
)


def _doc():
    return {
        "sample_rate_hz": 61.44e6,
        "n_samples": 50_000,
        "seed": 7,
        "drive_rms": 0.15,
        "carriers": [{"center_offset_hz": 0.0, "bandwidth_hz": 9e6, "power_db": 0.0}],
        "dpd": {
            "max_order_main": 5,
            "max_order_conj": 3,
            "taps_main": 5,
            "taps_conj": 5,
            "basis_mode": "plain",
        },
        "training": {"n_training_samples": 5000, "iterations": 3},
        "pa": {"alpha1": [0.949, -0.0197], "alpha3": [0.4885, 0.1071], "alpha5": [-1.0156, -0.0474]},
        "iq_modulator": {
            "gain_imbalance_db": 1.0,
            "phase_imbalance_deg": 5.0,
            "lo_leakage": [0.0112, 0.0112],
        },
        "analysis": {"nfft": 4096, "overlap": 0.5, "bands": [[5e6, 15e6]]},
    }


class TestParse:
    def test_round_trip_of_reference_doc(self):
        cfg = parse_experiment_config(_doc())
        assert cfg.sample_rate_hz == 61.44e6
        assert cfg.seed == 7
        assert cfg.branch_sets.main_orders == (1, 3, 5)
        assert cfg.branch_sets.conj_orders == (1, 3)
        assert cfg.taps_main == (5, 5, 5)
        assert cfg.pa.alpha1 == pytest.approx(0.949 - 0.0197j)
        assert cfg.modulator.lo_leakage == pytest.approx(0.0112 + 0.0112j)
        assert cfg.bands == ((5e6, 15e6),)

    def test_missing_key_is_named(self):
        doc = _doc()
        del doc["sample_rate_hz"]
        with pytest.raises(ConfigurationError, match="sample_rate_hz"):
            parse_experiment_config(doc)

    def test_unknown_key_is_named(self):
        doc = _doc()
        doc["sampel_rate_hz"] = 1.0
        with pytest.raises(ConfigurationError, match="sampel_rate_hz"):
            parse_experiment_config(doc)

    @pytest.mark.parametrize(
        "section, key", [("dpd", "ordering"), ("training", "regress_on_input")]
    )
    def test_unknown_nested_key(self, section, key):
        doc = _doc()
        doc[section][key] = True
        with pytest.raises(ConfigurationError, match=key):
            parse_experiment_config(doc)

    def test_per_branch_tap_list(self):
        doc = _doc()
        doc["dpd"]["taps_main"] = [5, 4, 3]
        doc["dpd"]["taps_conj"] = [2, 1]
        cfg = parse_experiment_config(doc)
        assert cfg.taps_main == (5, 4, 3)
        assert cfg.taps_conj == (2, 1)

    def test_tap_list_length_must_match_branches(self):
        doc = _doc()
        doc["dpd"]["taps_main"] = [5, 4]
        with pytest.raises(ConfigurationError):
            parse_experiment_config(doc)

    def test_band_beyond_nyquist_rejected(self):
        doc = _doc()
        doc["analysis"]["bands"] = [[30e6, 40e6]]
        with pytest.raises(ConfigurationError):
            parse_experiment_config(doc)

    def test_band_ordering_rejected(self):
        doc = _doc()
        doc["analysis"]["bands"] = [[15e6, 5e6]]
        with pytest.raises(ConfigurationError):
            parse_experiment_config(doc)

    @pytest.mark.parametrize(
        "nfft, overlap, key",
        [(4096, 0.9999, "analysis.overlap"), (3, 0.9, "analysis.overlap"),
         (1024, 1.0, "analysis.overlap"), (1024, -0.5, "analysis.overlap"),
         (1, 0.5, "analysis.nfft")],
    )
    def test_welch_geometry_checked_and_named(self, nfft, overlap, key):
        """nfft >= 2, overlap in [0, 1), and a segment step of at least one
        sample once the overlap is rounded."""
        doc = _doc()
        doc["analysis"].update(nfft=nfft, overlap=overlap)
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            parse_experiment_config(doc)

    def test_complex_pair_shape_checked(self):
        doc = _doc()
        doc["pa"]["alpha1"] = [1.0]
        with pytest.raises(ConfigurationError):
            parse_experiment_config(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("carriers", [1]),
            ("seed", "abc"),
            ("training.iterations", 2.5),
            ("sample_rate_hz", float("inf")),
        ],
    )
    def test_value_type_checked_and_named(self, key, value):
        doc = _doc()
        section, _, leaf = key.partition(".")
        if leaf:
            doc[section][leaf] = value
        else:
            doc[section] = value
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            parse_experiment_config(doc)

    def test_seed_override_wins(self):
        cfg = parse_experiment_config(_doc(), seed_override=99)
        assert cfg.seed == 99


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-(2**64), max_value=2**128))
def test_any_seed_draws_or_is_rejected(seed):
    """Every integer seed either gives a config whose waveform factory
    draws samples, or is rejected as a config error naming the seed:
    never an exception from numpy's generator."""
    doc = _doc()
    doc["seed"] = seed
    try:
        cfg = parse_experiment_config(doc)
    except ConfigurationError as err:
        assert seed < 0 and "'seed' must be >= 0" in str(err)
        return
    assert seed >= 0
    assert len(cfg.waveform_factory()(64, cfg.seed)) == 64


class TestDerivedObjects:
    def test_tx_chain_matches_doc(self):
        chain = parse_experiment_config(_doc()).tx_chain()
        assert chain.pa.alpha3 == pytest.approx(0.4885 + 0.1071j)
        assert chain.modulator.gain_imbalance_db == 1.0

    def test_waveform_factory_applies_drive(self):
        cfg = parse_experiment_config(_doc())
        buf = cfg.waveform_factory()(20_000, cfg.seed)
        assert buf.rms() == pytest.approx(0.15, rel=1e-5)
        assert buf.sample_rate_hz == cfg.sample_rate_hz

    def test_plain_vs_orthogonal_basis_mode(self):
        plain_cfg = parse_experiment_config(_doc()).aph_config()
        assert plain_cfg.basis.mode == "plain"
        doc = _doc()
        doc["dpd"]["basis_mode"] = "orthogonal"
        ortho_cfg = parse_experiment_config(doc).aph_config()
        assert ortho_cfg.basis.mode == "orthogonal"

    def test_unknown_basis_mode_rejected(self):
        doc = _doc()
        doc["dpd"]["basis_mode"] = "legendre"
        with pytest.raises(ConfigurationError):
            parse_experiment_config(doc)


class TestLoad:
    def test_load_and_env_seed(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_doc()))
        monkeypatch.delenv("DPD_SEED", raising=False)
        assert load_experiment_config(path).seed == 7
        monkeypatch.setenv("DPD_SEED", "1234")
        assert load_experiment_config(path).seed == 1234
        assert load_experiment_config(path, respect_env=False).seed == 7

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_doc()))
        monkeypatch.setenv("DPD_SEED", "not-a-number")
        with pytest.raises(ConfigurationError, match="DPD_SEED"):
            load_experiment_config(path)

    def test_negative_env_seed_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_doc()))
        monkeypatch.setenv("DPD_SEED", "-3")
        with pytest.raises(ConfigurationError, match="DPD_SEED must be >= 0, got -3"):
            load_experiment_config(path)
        with pytest.raises(ConfigurationError, match="DPD_SEED must be >= 0, got -1"):
            parse_experiment_config(_doc(), seed_override=-1)
        monkeypatch.setenv("DPD_SEED", "0")
        assert load_experiment_config(path).seed == 0

    def test_shipped_configs_parse(self):
        root = Path(__file__).resolve().parents[1]
        for name in ("single_carrier.json", "ca_3mhz_x2.json"):
            cfg = load_experiment_config(root / "configs" / name, respect_env=False)
            assert cfg.n_samples == 200_000
            assert len(cfg.bands) == 2
