"""aphdpd benchmark: the `dpd` CLI driven as a user drives it.

    python3 perfbench/run.py --workload flow_default --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout; the package need not be
installed (children get PYTHONPATH=src). The seed goes into a generated
copy of the workload's config, so the program sees only generated inputs.
The load is a closed loop: one client, one `dpd` process at a time.

--trace 0 repeats the workload's timed pass for --seconds and reports the
end-to-end metrics. --trace 1 runs the per-layer measurement of
`layers.py` instead. Either way the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it describe the host, the inputs and each metric's sample count;
the full record (spans included) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads as wls
from workloads import FULL, ROOT, SRC, TINY, WORKLOADS, Checks, Files, Flow

# Set-up probes: some before the first pass, then one after each pass, so
# the median spans the run rather than its first seconds.
SETUP_PROBES_FIRST = 3
SETUP_CODE = (
    "import sys, aphdpd; "
    "aphdpd.load_experiment_config(sys.argv[1]).aph_config()"
)

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "flow_s": "s",
    "train_s": "s",
    "predistort_msps": "Msps",
    "simulate_msps": "Msps",
    "evaluate_msps": "Msps",
    "peak_rss_mb": "MB",
    "linearization_db": "dB",
    "suppression_db": "dB",
}


def _median(values):
    return statistics.median(values) if values else None


def measure_setup(config: Path, work: Path, checks: Checks, times: list[float], repeats: int):
    """Fresh interpreter -> import aphdpd, load the config, build the predistorter."""
    for _ in range(repeats):
        proc = wls.run_process("setup", [sys.executable, "-c", SETUP_CODE, str(config)], work)
        ok = proc.exit_code == 0
        if checks.record(ok, f"set-up exited {proc.exit_code}: {proc.stderr[-500:]}"):
            times.append(proc.wall_s)


def run_end_to_end(wl, seed: int, seconds: float, scale: str, work: Path, checks: Checks):
    files = Files(work, wls.write_config(wl, seed, scale, work))
    inputs = wls.describe_inputs(files.config)
    n = inputs["stimulus_samples"]
    flow = Flow(files, n, checks)

    setup_times: list[float] = []
    first = 1 if scale == TINY else SETUP_PROBES_FIRST
    measure_setup(files.config, work, checks, setup_times, first)
    procs = list(flow.run(wl.setup_commands).values())

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(flow.run(wl.pass_commands))
        procs.extend(passes[-1].values())
        measure_setup(files.config, work, checks, setup_times, 1)

    ok = [p for p in passes if all(proc.exit_code == 0 for proc in p.values())]
    samples = {
        "setup_s": setup_times,
        "flow_s": [sum(proc.wall_s for proc in p.values()) for p in ok],
        "train_s": [p["train"].wall_s for p in ok],
        "predistort_msps": [n / p["predistort"].wall_s / 1e6 for p in ok],
        "simulate_msps": [
            2 * n / (p["simulate"].wall_s + p["simulate_dpd"].wall_s) / 1e6 for p in ok
        ],
        "evaluate_msps": [2 * n / p["evaluate"].wall_s / 1e6 for p in ok],
    }
    values = {name: _median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = max(proc.rss_mb for proc in procs)
    values["linearization_db"] = -flow.series[-1] if flow.series else None
    values["suppression_db"] = flow.suppression_db
    counts = {name: f"median of {len(v)}" for name, v in samples.items()}
    counts["peak_rss_mb"] = f"max over {len(procs)} processes"
    record = {
        "inputs": inputs,
        "passes": [{c: vars(proc) for c, proc in p.items()} for p in passes],
        "samples": samples,
        "sample_counts": counts,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=(FULL, TINY), default=FULL,
                        help="input sizes; 'tiny' is for the benchmark's smoke test")
    args = parser.parse_args(argv)

    needed = (SRC / "aphdpd" / "cli.py", wls.BASE_CONFIG)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a source checkout of aphdpd (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        if args.trace:
            import layers

            metrics, record = layers.run_traced(
                wl, args.seed, args.seconds, args.scale, work, checks
            )
        else:
            metrics, record = run_end_to_end(
                wl, args.seed, args.seconds, args.scale, work, checks
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    describe = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": wls.describe_host(),
        "inputs": record.pop("inputs"),
        "sample_counts": record.get("sample_counts", {}),
        "failures": checks.failures,
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    full = {**describe, "metrics": metrics, **record}
    (results / f"{tag}.json").write_text(json.dumps(full, indent=1, default=str) + "\n")

    print(json.dumps(describe))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>12s} {unit:5s} {describe['sample_counts'].get(name, '')}")
    print(json.dumps({
        "correct": checks.failed == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
