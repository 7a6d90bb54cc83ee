import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def bench_jobs(tmp_path_factory):
    """Job paths of a benchmark workload at a seed, written by ``bench/workloads.py``.

    Called as ``bench_jobs("fit-box", 1)``; returns {job name: path}.  The
    generator needs only the standard library.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)

    def write(workload: str, seed: int) -> dict[str, Path]:
        directory = tmp_path_factory.mktemp(f"{workload}-{seed}")
        return workloads.write_jobs(workloads.WORKLOADS[workload](seed), directory)

    return write
