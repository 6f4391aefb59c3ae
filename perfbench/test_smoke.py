"""Smoke test of the benchmark itself, at tiny sizes (about three minutes):

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wls  # noqa: E402

sys.path.insert(0, str(wls.SRC))

SPEC = json.loads((wls.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", wls.TINY],
        cwd=wls.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_appears_with_its_unit(workload, trace):
    result = _run(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_corrupted_copy_of_an_output_is_counted_as_failed():
    work = wls.ROOT / ".perfbench" / "work" / "smoke-corruption"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        files = wls.Files(work, wls.write_config(wls.WORKLOADS["flow_default"], 7, wls.TINY, work))
        n = wls.describe_inputs(files.config)["stimulus_samples"]
        checks = wls.Checks()
        flow = wls.Flow(files, n, checks)
        flow.run(["generate", "train", "predistort"])
        assert checks.failed == 0

        flipped = work / "flipped.iq"
        data = bytearray(files.predistorted.read_bytes())
        data[8 * (n // 2) + 3] ^= 0x01
        flipped.write_bytes(bytes(data))
        truncated = work / "truncated.iq"
        truncated.write_bytes(files.predistorted.read_bytes()[:-8])

        assert not checks.identical(flipped, flow.reference)
        assert not checks.file_size(truncated, n)
        assert checks.failed == 2
        # The program's own output is untouched and still passes.
        assert checks.identical(files.predistorted, flow.reference)
        assert checks.failed == 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
