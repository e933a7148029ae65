"""The benchmark's workloads run in process against the library as it is:
a rename or a changed result that would break the benchmark's end-to-end
runs fails here first.  The test only reads `bench/`."""
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("size", ["full", "toy"])
@pytest.mark.parametrize("workload", ["ladder-k2", "fsi2d-patch", "cli-artifacts"])
def test_every_gate_passes_at_seed_1(workloads, workload, size, tmp_path):
    assert workload in workloads.WORKLOADS
    inputs = workloads.make_inputs(workload, 1, size, str(tmp_path))
    gates, values = workloads.Gates(), {}
    ops = workloads.operations(workload, inputs)
    assert ops
    for _, run, check in ops:
        check(run(), gates, values)
    attempted, failed, _ = gates.totals()
    assert attempted > 0
    assert failed == 0, {name: row["message"] for name, row in gates.table.items()
                         if row["failed"]}
