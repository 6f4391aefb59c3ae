"""Batch command-line front-end: `dpd <command> <config> ...`.

Every command takes an experiment config file first; flags carry only
paths, worker counts, and workload sizes, so a config plus a seed pins the
whole run. The DPD_SEED environment variable overrides the config seed
without editing the file.

The streaming commands run their long stages on every CPU in the
process's affinity mask (`predistort --workers` overrides it for the
engine); the worker count never changes an output bit.

All failures print a single `error: ...` line to stderr and exit nonzero
(2 for usage errors, 1 for everything else).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import band_power_db, suppression_db, welch_psd, write_spectrum_csv
from .bench import run_bench, write_bench_csv
from .blocks import usable_cpus
from .config import _read_json, load_experiment_config
from .exceptions import ConfigurationError, DpdError
from .iqfile import read_iq, write_iq
from .predistorter import (
    PARALLEL_CHUNK_LEN,
    SERIAL_CHUNK_LEN,
    CoefficientVector,
    coefficients_from_json_dict,
    coefficients_to_json_dict,
    identity_coefficients,
    predistort_parallel,
    predistort_serial,
)
from .impairments import run_tx_chain
from .training import ila_train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_coefficients(path):
    doc = _read_json(path)
    try:
        return coefficients_from_json_dict(doc)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err


def _cmd_generate(args) -> int:
    cfg = load_experiment_config(args.config)
    wave = cfg.waveform_factory()
    buf = wave(cfg.n_samples, cfg.seed)
    write_iq(buf, args.out_iq)
    print(f"wrote {len(buf)} samples at {cfg.sample_rate_hz:.6g} Hz to {args.out_iq}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    aph = cfg.aph_config()
    coeffs, report = ila_train(cfg.tx_chain(), aph, cfg.training, cfg.waveform_factory())
    _write_json(coefficients_to_json_dict(coeffs, aph), args.coeffs_out)
    _write_json(report.to_json_list(), args.report_out)
    print(f"baseline NMSE: {report.baseline_nmse_db:.2f} dB")
    for rec in report.records:
        if rec.accepted:
            tag = "accepted"
        elif rec.candidate_nmse_db is None:
            tag = "kept previous; candidate diverged"
        else:
            tag = f"kept previous; candidate {rec.candidate_nmse_db:.2f} dB"
        print(f"iteration {rec.iteration}: NMSE {rec.nmse_db:.2f} dB ({tag})")
    return 0


def _cmd_predistort(args) -> int:
    load_experiment_config(args.config)  # validate the experiment document
    coeffs, aph = _load_coefficients(args.coeffs)
    buf = read_iq(args.in_iq)
    out = predistort_parallel(buf, coeffs, aph, chunk_len=args.chunk_len, n_workers=args.workers)
    write_iq(out, args.out_iq)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config)
    buf = read_iq(args.in_iq)
    if args.with_dpd is not None:
        coeffs, aph = _load_coefficients(args.with_dpd)
        buf = predistort_serial(buf, coeffs, aph)
    out = run_tx_chain(buf, cfg.tx_chain(), n_workers=usable_cpus())
    write_iq(out, args.out_iq)
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_experiment_config(args.config)
    workers = usable_cpus()
    buf_a = read_iq(args.in_iq)
    spec_a = welch_psd(buf_a, cfg.nfft, cfg.overlap, n_workers=workers)
    if args.in_iq_b is None:
        if args.out is None:
            write_spectrum_csv(spec_a, sys.stdout)
        else:
            write_spectrum_csv(spec_a, args.out)
        return 0
    buf_b = read_iq(args.in_iq_b)
    spec_b = welch_psd(buf_b, cfg.nfft, cfg.overlap, n_workers=workers)
    bands = []
    for lo, hi in cfg.bands:
        bands.append(
            {
                "f_lo_hz": lo,
                "f_hi_hz": hi,
                "reference_band_power_db": band_power_db(spec_a, lo, hi),
                "test_band_power_db": band_power_db(spec_b, lo, hi),
                "suppression_db": suppression_db(spec_a, spec_b, lo, hi),
            }
        )
    doc = {"reference": args.in_iq, "test": args.in_iq_b, "bands": bands}
    if args.out is None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _write_json(doc, args.out)
    return 0


def _cmd_bench(args) -> int:
    aph = load_experiment_config(args.config).aph_config()
    # Timing is coefficient-value independent; any finite set works.
    rng = np.random.default_rng(2718)
    h = rng.normal(size=aph.n_coefficients) + 1j * rng.normal(size=aph.n_coefficients)
    coeffs = CoefficientVector((0.05 * h).astype(np.complex64))
    coeffs = CoefficientVector(coeffs.h + identity_coefficients(aph).h)
    results = run_bench(aph, coeffs, args.n, args.workers, args.chunk_len, args.repeats)
    write_bench_csv(results, args.out_csv)
    print(f"host: {os.cpu_count()} cpus, numpy {np.__version__}, python {sys.version.split()[0]}")
    for r in results:
        print(
            f"workers {r.workers}: median {r.throughput_sps_median / 1e6:.1f} Msps "
            f"(min {r.throughput_sps_min / 1e6:.1f})"
        )
    return 0


_CHUNK_LEN_HELP = (
    f"samples per engine chunk (default: {SERIAL_CHUNK_LEN} on one worker, "
    f"{PARALLEL_CHUNK_LEN} on more)"
)


def _worker_list(text: str) -> list[int]:
    """argparse type of `bench --workers`: comma-separated worker counts."""
    try:
        return [int(w) for w in text.split(",") if w]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpd", description="Data-parallel digital predistortion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize the configured multicarrier waveform")
    p.add_argument("config")
    p.add_argument("out_iq")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train predistorter coefficients on the simulated chain")
    p.add_argument("config")
    p.add_argument("coeffs_out")
    p.add_argument("report_out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predistort", help="apply coefficients to an I/Q file")
    p.add_argument("config")
    p.add_argument("coeffs")
    p.add_argument("in_iq")
    p.add_argument("out_iq")
    p.add_argument("--workers", type=int, default=usable_cpus())
    p.add_argument("--chunk-len", type=int, default=None, help=_CHUNK_LEN_HELP)
    p.set_defaults(func=_cmd_predistort)

    p = sub.add_parser("simulate", help="run the impaired transmit chain over an I/Q file")
    p.add_argument("config")
    p.add_argument("in_iq")
    p.add_argument("out_iq")
    p.add_argument("--with-dpd", metavar="COEFFS", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "evaluate", help="PSD of one file (CSV) or band suppression of two (JSON)"
    )
    p.add_argument("config")
    p.add_argument("in_iq")
    p.add_argument("in_iq_b", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="measure predistortion throughput")
    p.add_argument("config")
    p.add_argument("out_csv")
    p.add_argument("--n", type=int, default=2_000_000)
    p.add_argument("--workers", type=_worker_list, default="1,2,4")
    p.add_argument("--chunk-len", type=int, default=None, help=_CHUNK_LEN_HELP)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DpdError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory ({err})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
