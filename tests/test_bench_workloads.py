"""The bench's workload setups must keep running against the package."""

import importlib.util
from pathlib import Path

import pytest

from popgcn.cli import load_run_config

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name, tmp_path):
    # graph_large's setup raises unless its default edge rules are 2
    # equality and 2 threshold rules
    workloads.WORKLOADS[name].setup(1, tmp_path)


def test_compare_config_parses(tmp_path):
    compare = workloads.Compare()
    compare.setup(1, tmp_path)
    run = load_run_config(tmp_path / "run.json")
    assert run.train.folds == compare.FOLDS
    assert run.baselines == list(compare.BASELINES)
    assert run.edge_rules == ()
