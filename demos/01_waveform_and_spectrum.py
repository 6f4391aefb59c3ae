"""Synthesize the configured multicarrier stimulus and inspect its spectrum.

Run from the repository root:

    python3 demos/01_waveform_and_spectrum.py

The spectrum goes to stimulus_psd.csv in the working directory.
"""

from pathlib import Path

import numpy as np

from aphdpd import band_power_db, load_experiment_config, welch_psd, write_spectrum_csv

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    cfg = load_experiment_config(ROOT / "configs" / "ca_3mhz_x2.json", respect_env=False)
    buf = cfg.waveform_factory()(cfg.n_samples, cfg.seed)
    print(f"synthesized {len(buf)} samples at {cfg.sample_rate_hz / 1e6:.2f} MHz")
    print(f"carriers: {[(c.center_offset_hz / 1e6, c.bandwidth_hz / 1e6) for c in cfg.carriers]}"
          " (center MHz, bandwidth MHz)")
    print(f"rms drive level: {buf.rms():.4f}")

    spec = welch_psd(buf, cfg.nfft, cfg.overlap)
    peak_bin = int(np.argmax(spec.psd))
    print(f"PSD peak at {spec.freq_hz[peak_bin] / 1e6:+.2f} MHz")

    for lo, hi in ((-6.35e6, -3.65e6), (3.65e6, 6.35e6)):
        print(f"carrier band [{lo / 1e6:+.2f}, {hi / 1e6:+.2f}] MHz: "
              f"{band_power_db(spec, lo, hi):.1f} dB")
    for lo, hi in cfg.bands:
        print(f"monitored band [{lo / 1e6:+.2f}, {hi / 1e6:+.2f}] MHz: "
              f"{band_power_db(spec, lo, hi):.1f} dB (clean stimulus floor)")

    out = Path("stimulus_psd.csv").resolve()
    write_spectrum_csv(spec, out)
    print(f"spectrum written to {out}")


if __name__ == "__main__":
    main()
