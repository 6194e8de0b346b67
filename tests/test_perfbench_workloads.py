"""The benchmark's workloads call kmslab's public API; each call must still work.

perfbench/workloads.py builds configs, parses them, compares plane waves
and runs field-family estimates through kmslab.  A change to a signature it
uses, or to what those calls return, otherwise shows only as failed
operations when someone runs the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cfg_dir(workloads, tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    workloads.write_configs(path)
    return path


@pytest.mark.parametrize("workload", ["sweep", "fields", "fields-p2"])
def test_setup_and_plane_wave_check(workloads, cfg_dir, workload):
    configs = workloads.setup(workload, cfg_dir)
    assert sorted(configs) == sorted(workloads.WORKLOADS[workload])
    checks = workloads.plane_wave_check(configs, seed=3)
    assert [label for label, _ in checks] == [f"plane-waves-{name}" for name in configs]
    assert [error for _, error in checks] == [None] * len(configs)


@pytest.mark.parametrize("workload", ["fields", "fields-p2"])
def test_field_operation_runs_and_passes_its_check(workloads, cfg_dir, workload):
    (config,) = workloads.setup(workload, cfg_dir).values()
    label, run, check = workloads._field_op(config, 8, 5)
    assert label == "estimate-M8"
    first = check(run())
    assert check(run()) == first
