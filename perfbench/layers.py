"""The traced run: per-layer metrics of one workload.

1. The six `dpd` commands run once as child processes, as in the
   end-to-end run, for each command's wall time and peak RSS.
2. Fresh interpreters run `python -X importtime -c "import aphdpd"` for
   the import cost of the package and of the numpy and scipy it pulls in.
3. The same six commands run in this process through `aphdpd.cli.main`,
   alternately untraced and traced, for the tracing overhead and the
   per-layer times; then `predistort` runs at workers {1, 2} x chunk_len
   {65536, 1048576}, each output checked against the serial reference.

Spans (name, start, end, parent, attributes) are recorded by this file
only: around each call it makes, and by wrappers it installs, while
tracing, on the names `aphdpd.cli`, `aphdpd.config` and `aphdpd.training`
look up at call time. When a wrapped name is gone, the layer's time falls
back to the self time of the span that encloses it. Spans are kept in
memory and written out with the result.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import re
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

import workloads as wls
from workloads import COMMANDS, TINY, Files, Flow

ENGINE_WORKERS = (1, 2)
ENGINE_CHUNKS = (65536, 1048576)
IMPORT_REPEATS = 3
PROBE_MIN_S = 0.5


def _samples(args, out):
    return {"samples": len(args[0])}


def _bytes_read(args, out):
    return {"bytes": Path(args[0]).stat().st_size}


def _bytes_written(args, out):
    return {"bytes": Path(args[1]).stat().st_size}


def _matrix_bytes(args, out):
    return {"bytes": out.values.nbytes}


# (module, attribute, span name, attributes from (args, result), enclosing span)
HOOKS = (
    ("aphdpd.cli", "load_experiment_config", "config.load", None, None),
    ("aphdpd.cli", "read_iq", "iqfile.read", _bytes_read, None),
    ("aphdpd.cli", "write_iq", "iqfile.write", _bytes_written, None),
    ("aphdpd.cli", "ila_train", "training.ila_train", None, "call.train"),
    ("aphdpd.cli", "run_tx_chain", "impairments.tx_chain", _samples, "call.simulate"),
    ("aphdpd.cli", "predistort_serial", "predistorter.serial", _samples, "call.simulate_dpd"),
    ("aphdpd.cli", "predistort_parallel", "predistorter.engine", _samples, "probe.engine"),
    ("aphdpd.cli", "welch_psd", "analysis.welch", _samples, "call.evaluate"),
    ("aphdpd.config", "compose_multicarrier", "waveforms.synthesize",
     lambda args, out: {"samples": len(out)}, "call.generate"),
    ("aphdpd.config", "fit_orthogonal_basis", "basis.fit", None, "call.train"),
    ("aphdpd.training", "build_basis_matrix", "basis.build_matrix", _matrix_bytes,
     "training.ila_train"),
    ("aphdpd.training", "_lstsq_ridge", "training.solve", None, "training.ila_train"),
    ("aphdpd.training", "_linearization_nmse_db", "training.gate", None, "training.ila_train"),
)
FALLBACK = {span: parent for _, _, span, _, parent in HOOKS if parent}


class Tracer:
    """Spans kept in memory; times in seconds from the tracer's creation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.t0,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def named(self, name: str, **match) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def total(self, name: str, **match) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, **match))

    def self_time(self, name: str, **match) -> float:
        """Duration of the named spans minus what their children cover."""
        ids = {s["id"] for s in self.named(name, **match)}
        covered = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.total(name, **match) - covered

    def layer_time(self, name: str, **match) -> float:
        """Time in a hooked layer, or in its enclosing span if the hook is gone."""
        if name in FALLBACK and not self.named(name):
            return self.self_time(FALLBACK[name], **match)
        if match:  # attributes live on the enclosing probe span
            ids = {s["id"] for s in self.named(FALLBACK[name], **match)}
            return sum(s["end"] - s["start"] for s in self.named(name) if s["parent"] in ids)
        return self.total(name)


class Untraced:
    def span(self, name, **attrs):
        return nullcontext({})


@contextmanager
def hooks_installed(tracer: Tracer):
    def wrap(fn, span_name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name) as rec:
                out = fn(*args, **kwargs)
            if attrs is not None:
                try:
                    rec.update(attrs(args, out))
                except (AttributeError, IndexError, OSError, TypeError):
                    pass
            return out
        return wrapper

    saved = []
    try:
        for module_name, attr, span_name, attrs, _ in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"note: {module_name}.{attr} is gone; {span_name} falls back to the "
                      f"self time of {FALLBACK.get(span_name)}", file=sys.stderr)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, span_name, attrs))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def call_cli(t, flow: Flow, command: str, span: str, extra=(), **attrs) -> None:
    """One `dpd` command through aphdpd.cli.main in this process, then its checks."""
    from aphdpd import cli

    with t.span(span, **attrs), redirect_stdout(io.StringIO()):
        code = cli.main([*flow.files.args(command), *extra])
    flow.checks.record(code == 0, f"in-process dpd {command} returned {code}")
    flow.check(command)


def _import_times(work: Path, checks, tracer: Tracer, repeats: int) -> None:
    """`-X importtime` of `import aphdpd` in fresh interpreters, as spans.

    numpy and scipy count their outermost entries in the import tree, so
    each measures what `import aphdpd` actually pulls in.
    """
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")
    for _ in range(repeats):
        with tracer.span("import.probe") as rec:
            proc = wls.run_process(
                "import", [sys.executable, "-X", "importtime", "-c", "import aphdpd"], work
            )
        if not checks.record(proc.exit_code == 0, f"import probe exited {proc.exit_code}"):
            continue
        cumulative = {"aphdpd": 0.0, "numpy": 0.0, "scipy": 0.0}
        ancestors: list[str] = []
        # Children print before parents; reversed, each entry follows its ancestors.
        for entry in reversed(proc.stderr.splitlines()):
            m = line.match(entry)
            if not m:
                continue
            depth, package = len(m.group(2)) // 2, m.group(3).split(".")[0]
            del ancestors[depth:]
            if package in cumulative and package not in ancestors:
                cumulative[package] += int(m.group(1)) / 1e6
            ancestors.append(package)
        rec.update({f"{k}_s": v for k, v in cumulative.items()})


def run_traced(wl, seed: int, seconds: float, scale: str, work: Path, checks):
    files = Files(work, wls.write_config(wl, seed, scale, work))
    inputs = wls.describe_inputs(files.config)
    n = inputs["stimulus_samples"]
    flow = Flow(files, n, checks)
    tracer, probes = Tracer(), Tracer()

    # 1. Per-command process cost.
    for command, proc in flow.run(COMMANDS).items():
        start = proc.started - tracer.t0
        tracer.spans.append({
            "id": len(tracer.spans), "name": f"cli.{command}", "parent": None,
            "start": start, "end": start + proc.wall_s, "rss_mb": proc.rss_mb,
        })

    # 2. Import cost.
    _import_times(work, checks, tracer, 1 if scale == TINY else IMPORT_REPEATS)

    # 3. The six commands in this process, untraced then traced.
    untraced_s, traced_s = [], []
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started < seconds:
        for t, times in ((Untraced(), untraced_s), (tracer, traced_s)):
            with hooks_installed(tracer) if t is tracer else nullcontext():
                t0 = time.perf_counter()
                with t.span("sequence", repeat=len(times)):
                    for command in COMMANDS:
                        call_cli(t, flow, command, f"call.{command}")
                times.append(time.perf_counter() - t0)
    repeats = len(traced_s)
    report = json.loads(files.report.read_text())

    # Engine geometries, through `dpd predistort --workers W --chunk-len C`.
    with hooks_installed(probes):
        for workers in ENGINE_WORKERS:
            for chunk in ENGINE_CHUNKS:
                extra = ("--workers", str(workers), "--chunk-len", str(chunk))
                probe_started = time.perf_counter()
                while True:
                    call_cli(probes, flow, "predistort", "probe.engine", extra,
                             workers=workers, chunk_len=chunk)
                    if time.perf_counter() - probe_started >= PROBE_MIN_S:
                        break

    def per_repeat(name: str) -> float:
        return tracer.layer_time(name) / repeats

    def rate(name: str, key: str) -> float | None:
        amount = sum(s.get(key, 0) for s in tracer.named(name))
        spent = tracer.layer_time(name)
        return amount / spent / 1e6 if amount and spent > 0 else None

    def engine_rate(workers: int, chunk: int) -> float | None:
        match = {"workers": workers, "chunk_len": chunk}
        spent = probes.layer_time("predistorter.engine", **match)
        return n * len(probes.named("probe.engine", **match)) / spent / 1e6 if spent > 0 else None

    def import_median(key: str) -> float | None:
        values = [s[key] for s in tracer.named("import.probe") if key in s]
        return statistics.median(values) if values else None

    metrics = {
        "import.aphdpd_s": (import_median("aphdpd_s"), "s"),
        "import.numpy_s": (import_median("numpy_s"), "s"),
        "import.scipy_s": (import_median("scipy_s"), "s"),
    }
    for command in COMMANDS:
        (span,) = tracer.named(f"cli.{command}")
        metrics[f"cli.{command}_s"] = (span["end"] - span["start"], "s")
        metrics[f"cli.{command}.rss_mb"] = (span["rss_mb"], "MB")
    matrices = [s.get("bytes", 0) for s in tracer.named("basis.build_matrix")]
    metrics.update({
        "config.load_s": (per_repeat("config.load"), "s"),
        "basis.fit_s": (per_repeat("basis.fit"), "s"),
        "basis.build_matrix_s": (per_repeat("basis.build_matrix"), "s"),
        "basis.matrix_mb": (max(matrices, default=0) / 1e6, "MB"),
        "training.solve_s": (per_repeat("training.solve"), "s"),
        "training.gate_s": (per_repeat("training.gate"), "s"),
        "training.ila_train_s": (per_repeat("training.ila_train"), "s"),
        "training.iterations": (len(report), "count"),
        "training.accepted": (sum(bool(r["accepted"]) for r in report), "count"),
        "training.final_nmse_db": (report[-1]["nmse_db"], "dB"),
        "waveforms.msps": (rate("waveforms.synthesize", "samples"), "Msps"),
        "impairments.tx_chain_msps": (rate("impairments.tx_chain", "samples"), "Msps"),
        "predistorter.serial_msps": (rate("predistorter.serial", "samples"), "Msps"),
    })
    computed = inputs["computed"]["engine_by_chunk_len"]
    for chunk in ENGINE_CHUNKS:
        for workers in ENGINE_WORKERS:
            metrics[f"predistorter.engine_msps.w{workers}.c{chunk}"] = (
                engine_rate(workers, chunk), "Msps"
            )
        geometry = computed[str(chunk)]
        metrics[f"predistorter.halo_fraction.c{chunk}"] = (geometry["halo_fraction"], "ratio")
        metrics[f"predistorter.recomputed_samples.c{chunk}"] = (
            geometry["recomputed_samples"], "count"
        )
        metrics[f"predistorter.bytes_per_sample.c{chunk}"] = (geometry["bytes_per_sample"], "B")
    metrics.update({
        "analysis.welch_msps": (rate("analysis.welch", "samples"), "Msps"),
        "iqfile.read_mbps": (rate("iqfile.read", "bytes"), "MB/s"),
        "iqfile.write_mbps": (rate("iqfile.write", "bytes"), "MB/s"),
        "iqfile.bytes_read": (
            sum(s.get("bytes", 0) for s in tracer.named("iqfile.read")) // repeats, "B"
        ),
        "iqfile.bytes_written": (
            sum(s.get("bytes", 0) for s in tracer.named("iqfile.write")) // repeats, "B"
        ),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0), "%"
        ),
    })
    record = {
        "inputs": inputs,
        "sample_counts": {"trace.overhead_pct": f"medians of {repeats} repeats each"},
        "sequence_s": {"untraced": untraced_s, "traced": traced_s},
        "spans": tracer.spans,
        "probe_spans": probes.spans,
    }
    return metrics, record
