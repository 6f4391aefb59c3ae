"""Workloads, the `dpd` process runner and the correctness checks.

Shared by the end-to-end run (`run.py`) and the traced run (`layers.py`).
Every workload is the same six-command user flow over a generated copy of
the shipped single-carrier config; workloads differ in its sizes and in
which commands are repeated in the timed pass (the rest run once at set-up).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "single_carrier.json"

# The flow in user order; "simulate_dpd" is `dpd simulate --with-dpd`.
COMMANDS = ("generate", "train", "simulate", "simulate_dpd", "predistort", "evaluate")
PREDISTORT_WORKERS = 2
MIN_SUPPRESSION_DB = 10.0
CHILD_TIMEOUT_S = 100.0

FULL = "full"
TINY = "tiny"  # the benchmark's own smoke test


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # scale -> {dotted key: value}
    pass_commands: tuple[str, ...]

    @property
    def setup_commands(self) -> tuple[str, ...]:
        return tuple(c for c in COMMANDS if c not in self.pass_commands)


_TINY = {"n_samples": 16384, "training.n_training_samples": 2000, "training.iterations": 2}

WORKLOADS = {
    w.name: w
    for w in (
        # Start-up bound: six process starts on 200k samples, so imports
        # dominate and engine or solver work should not show.
        Workload("flow_default", {FULL: {}, TINY: _TINY}, COMMANDS),
        # Compute bound: a stimulus larger than L3 for the engine, TX chain,
        # Welch and file I/O, plus long training for matrix build and solve.
        Workload(
            "stream_large",
            {
                FULL: {
                    "n_samples": 16 * 1024 * 1024,
                    "training.n_training_samples": 200_000,
                    "training.iterations": 5,
                },
                TINY: {**_TINY, "n_samples": 131072},
            },
            COMMANDS[1:],
        ),
    )
}


def write_config(wl: Workload, seed: int, scale: str, work: Path) -> Path:
    """A copy of the workload's base config with the seed and sizes set."""
    doc = json.loads(BASE_CONFIG.read_text())
    doc["seed"] = int(seed)
    for dotted, value in wl.overrides[scale].items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPD_SEED", None)  # the generated config alone fixes the seed
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Proc:
    """One finished child process: wall time and peak RSS from wait4."""

    name: str
    started: float  # time.perf_counter() at spawn
    wall_s: float
    rss_mb: float
    exit_code: int
    stderr: str


def run_process(name: str, argv: list[str], work: Path) -> Proc:
    """Run one child to completion; rusage comes from os.wait4 on that child only."""
    err_path = work / f"{name}.stderr"
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    # ru_maxrss is in KiB on Linux.
    return Proc(name, started, wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


class Files:
    """The paths one flow reads and writes."""

    def __init__(self, work: Path, config: Path):
        self.work = work
        self.config = config
        self.stimulus = work / "stimulus.iq"
        self.coeffs = work / "coeffs.json"
        self.report = work / "report.json"
        self.pa_raw = work / "pa_raw.iq"
        self.pa_dpd = work / "pa_dpd.iq"
        self.predistorted = work / "predistorted.iq"
        self.evaluation = work / "evaluation.json"

    def args(self, command: str) -> list[str]:
        """`dpd` arguments of one command of the flow."""
        c, stim, coeffs = str(self.config), str(self.stimulus), str(self.coeffs)
        return {
            "generate": ["generate", c, stim],
            "train": ["train", c, coeffs, str(self.report)],
            "simulate": ["simulate", c, stim, str(self.pa_raw)],
            "simulate_dpd": ["simulate", c, stim, str(self.pa_dpd), "--with-dpd", coeffs],
            "predistort": [
                "predistort", c, coeffs, stim, str(self.predistorted),
                "--workers", str(PREDISTORT_WORKERS),
            ],
            "evaluate": ["evaluate", c, str(self.pa_raw), str(self.pa_dpd),
                         "--out", str(self.evaluation)],
        }[command]

    def outputs(self, command: str) -> list[Path]:
        return {
            "generate": [self.stimulus],
            "train": [self.coeffs, self.report],
            "simulate": [self.pa_raw],
            "simulate_dpd": [self.pa_dpd],
            "predistort": [self.predistorted],
            "evaluate": [self.evaluation],
        }[command]


@dataclass
class Checks:
    """Correctness checks, each counted as one operation."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def file_size(self, path: Path, n_samples: int) -> bool:
        size = path.stat().st_size if path.exists() else -1
        return self.record(size == 8 * n_samples, f"{path.name} holds {size} bytes, not 8 x {n_samples}")

    def identical(self, path: Path, reference: np.ndarray) -> bool:
        ok = path.exists() and np.array_equal(np.fromfile(path, dtype="<u4"), reference)
        return self.record(ok, f"{path.name} differs from the serial reference")

    def nmse_non_increasing(self, report_path: Path) -> list[float] | None:
        try:
            series = [rec["nmse_db"] for rec in json.loads(report_path.read_text())]
        except (OSError, ValueError, KeyError, TypeError):
            series = None
        ok = bool(series) and all(b <= a for a, b in zip(series, series[1:]))
        self.record(ok, f"training NMSE series {series} is not non-increasing")
        return series if ok else None

    def suppression(self, evaluation_path: Path) -> float | None:
        try:
            bands = [b["suppression_db"] for b in json.loads(evaluation_path.read_text())["bands"]]
        except (OSError, ValueError, KeyError, TypeError):
            bands = []
        ok = bool(bands) and min(bands) >= MIN_SUPPRESSION_DB
        self.record(ok, f"suppression {bands} dB is below {MIN_SUPPRESSION_DB} dB on some band")
        return min(bands) if ok else None


def serial_reference(files: Files) -> np.ndarray:
    """predistort_serial of the stimulus with the trained coefficients, as the
    little-endian 32-bit words `write_iq` would store."""
    from aphdpd import coefficients_from_json_dict, predistort_serial, read_iq

    coeffs, aph = coefficients_from_json_dict(json.loads(files.coeffs.read_text()))
    out = predistort_serial(read_iq(files.stimulus), coeffs, aph).samples
    return out.view("<f4").view("<u4").copy()


class Flow:
    """Runs commands of the flow as child processes and checks their outputs."""

    def __init__(self, files: Files, n_samples: int, checks: Checks):
        self.files = files
        self.n = n_samples
        self.checks = checks
        self.reference = None
        self.series = None
        self.suppression_db = None

    def run(self, commands) -> dict[str, Proc]:
        procs = {}
        for command in commands:
            for path in self.files.outputs(command):
                path.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "aphdpd.cli", *self.files.args(command)]
            proc = run_process(command, argv, self.files.work)
            self.checks.record(
                proc.exit_code == 0,
                f"dpd {command} exited {proc.exit_code}: {proc.stderr.strip()[-500:]}",
            )
            self.check(command)
            procs[command] = proc
        return procs

    def check(self, command: str) -> None:
        f, c = self.files, self.checks
        if command == "generate":
            c.file_size(f.stimulus, self.n)
        elif command == "train":
            self.series = c.nmse_non_increasing(f.report)
        elif command == "simulate":
            c.file_size(f.pa_raw, self.n)
        elif command == "simulate_dpd":
            c.file_size(f.pa_dpd, self.n)
        elif command == "predistort":
            if c.file_size(f.predistorted, self.n):
                if self.reference is None:
                    self.reference = serial_reference(f)  # built once per run
                c.identical(f.predistorted, self.reference)
        elif command == "evaluate":
            self.suppression_db = c.suppression(f.evaluation)


# --- the benchmark describes itself --------------------------------------------

def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be asked."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "aphdpd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe_host() -> dict:
    from importlib import metadata
    import platform

    nproc = os.cpu_count()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": nproc,
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "load": "closed loop, one client, one dpd process at a time; "
        f"at most {PREDISTORT_WORKERS} engine workers",
        "scaling": f"{nproc} cores: no wall-clock scaling beyond {nproc} workers is claimed",
    }


def describe_inputs(config_path: Path) -> dict:
    """Input sizes in samples and bytes, and the counts computed from them."""
    from aphdpd import load_experiment_config

    cfg = load_experiment_config(config_path, respect_env=False)
    n, m = cfg.n_samples, cfg.training.n_training_samples
    taps = (*cfg.taps_main, *cfg.taps_conj)
    l_max, n_coeff = max(taps), sum(taps) + 1
    halo = l_max - 1
    engine = {}
    for chunk in (65536, 1048576):
        n_chunks = -(-n // chunk)
        engine[str(chunk)] = {
            "halo_fraction": halo / chunk,
            "recomputed_samples": halo * (n_chunks - 1),
            # complex64 in (halo re-read included) and out; the kernel's own
            # intermediate arrays are not counted.
            "bytes_per_sample": 8 * (1 + halo / chunk) + 8,
        }
    return {
        "computed": {
            "regression_matrix_bytes": (m + l_max - 1) * n_coeff * 16,
            "regression_matrix_shape": [m + l_max - 1, n_coeff],
            "engine_by_chunk_len": engine,
            "note": "computed from array sizes and the chunk geometry, not measured",
        },
        "stimulus_samples": n,
        "stimulus_bytes": 8 * n,
        "training_samples": m,
        "training_bytes_per_draw": 8 * m,
        "training_iterations": cfg.training.iterations,
        "basis_fit_samples": 2 * m if cfg.basis_mode == "orthogonal" else 0,
        "coefficients": n_coeff,
        "halo": halo,
    }
