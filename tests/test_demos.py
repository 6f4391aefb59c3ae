"""Every walkthrough in demos/ runs to completion against the source tree,
with warnings as errors and nothing on stderr, and writes its outputs to
the working directory, never under demos/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _files_under(directory: Path) -> dict:
    """Each file's path -> (modification time in ns, size)."""
    return {
        path: (path.stat().st_mtime_ns, path.stat().st_size)
        for path in directory.rglob("*")
        if path.is_file()
    }


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("DPD_SEED", None)
    before = _files_under(ROOT / "demos")
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert _files_under(ROOT / "demos") == before
