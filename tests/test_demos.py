"""The demo scripts run to completion and write numeric CSV files."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lubelastic as lb

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# the directory lubelastic was imported from, for the subprocesses
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lb.__file__)))
WRITES = {"02_sliding_bearing_pressure.py": ["bearing_pressure.csv", "grid.csv"],
          "03_plate_channel_coupling.py": ["energy_ledger.csv"]}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == WRITES.get(script, [])
    for name in written:
        # grid.csv rows are axis,coordinate: the coordinates are the numbers
        data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2,
                          usecols=[1] if name == "grid.csv" else None)
        assert data.shape[0] > 1 and np.all(np.isfinite(data))
