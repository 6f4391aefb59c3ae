"""The parallel engine's contract: any chunk geometry, any worker count,
the exact same bits as the serial reference — and how fast it goes here.

    python3 demos/03_parallel_bit_identity.py
"""

import numpy as np

from aphdpd import (
    AphConfig,
    CoefficientVector,
    identity_coefficients,
    make_bench_buffer,
    predistort_parallel,
    predistort_serial,
    run_bench,
)


def main() -> None:
    cfg = AphConfig.default()
    rng = np.random.default_rng(7)
    h = identity_coefficients(cfg).h + (
        0.05 * (rng.normal(size=cfg.n_coefficients) + 1j * rng.normal(size=cfg.n_coefficients))
    ).astype(np.complex64)
    coeffs = CoefficientVector(h)

    x = make_bench_buffer(1_000_000)
    reference = predistort_serial(x, coeffs, cfg).samples
    print(f"serial reference over {len(x):,} samples computed")

    print(f"{'chunk_len':>10} {'workers':>8}   result")
    for chunk_len in (4_097, 65_536, 333_333):
        for workers in (1, 2, 4):
            got = predistort_parallel(
                x, coeffs, cfg, chunk_len=chunk_len, n_workers=workers
            ).samples
            same = np.array_equal(got.view(np.float32), reference.view(np.float32))
            print(f"{chunk_len:>10} {workers:>8}   {'bit-identical' if same else 'MISMATCH'}")

    results = run_bench(cfg, coeffs, 2_000_000, [1], repeats=3)
    sps = results[0].throughput_sps_median
    print(f"\nsingle-worker throughput: {sps / 1e6:.1f} Msps "
          f"(median of {len(results[0].latencies_s)} runs)")


if __name__ == "__main__":
    main()
