"""Shared fixtures."""

import importlib.util
import multiprocessing
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def perfbench_workloads() -> dict:
    """perfbench/workloads.py's WORKLOADS, loaded by path as the benchmark
    loads it, so tests run the documents the benchmark times."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a live multiprocessing child, after
    terminating it so the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"child processes left running: {left}")
