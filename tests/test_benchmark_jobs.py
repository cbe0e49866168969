"""The benchmark's pinned command-line jobs, replayed in-process.

``perfbench/workloads.py`` pins each job's exit code, stdout line count and
stdout sha256, the 14,400-line ``--output machine`` stream of
``check module-t`` among them.  This runs every job that has an ``argv``
through ``cli.main`` and judges it with the benchmark's own ``judge_job``,
so a change to those bytes fails here and not only in a benchmark run.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from nambu3.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _workloads()
_ARGV_JOBS = [job for jobs in _WORKLOADS.JOBS.values() for job in jobs
              if job.argv]


@pytest.mark.parametrize("job", _ARGV_JOBS, ids=lambda job: job.name)
def test_benchmark_job_matches_its_pinned_output(capsys, job):
    code = main(list(job.argv))
    out = capsys.readouterr().out
    result = {"exit": code, "lines": out.count("\n"),
              "digest": hashlib.sha256(out.encode()).hexdigest()}
    assert _WORKLOADS.judge_job(job, result) is None
