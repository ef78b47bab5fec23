"""Each demo script runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import usptest

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(usptest.__file__).resolve().parent.parent

# small sizes: the five runs take about 2 s together
DEMOS = {
    "01_marital_status_tests.py": ["--B", "99"],
    "02_unbiased_estimation.py": ["--reps", "50"],
    "03_power_curves.py": ["--reps", "20", "--B", "19"],
    "04_size_instability.py": ["--points", "50", "--out", "{tmp}"],
    "05_real_data_subsampling.py": ["--reps", "20", "--B", "19"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    args = [a.format(tmp=tmp_path) for a in DEMOS[demo]]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
