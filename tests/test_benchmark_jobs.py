"""The benchmark's pinned jobs, replayed in-process and traced.

``perfbench/workloads.py`` pins each job's exit code, stdout line count and
stdout sha256, the 14,400-line ``--output machine`` stream of
``check module-t`` among them.  This runs every job that has an ``argv``
through ``cli.main`` and judges it with the benchmark's own ``judge_job``,
so a change to those bytes fails here and not only in a benchmark run.
Every symbolic-modules job also runs as a traced benchmark child, which
must pass ``judge_job`` and whose reports must count the pinned cases.
"""
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nambu3.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


@pytest.mark.parametrize("job", _WORKLOADS.JOBS["symbolic-modules"],
                         ids=lambda job: job.name)
def test_traced_benchmark_job_counts_its_pinned_cases(job):
    # the child the benchmark starts, with the layer tracer installed
    spec = {"name": job.name, "argv": list(job.argv), "library": job.library,
            "relation": list(_WORKLOADS.relation_for(7)), "trace": True,
            "spans_path": None}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "job",
         json.dumps(spec)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert _WORKLOADS.judge_job(job, result) is None
    assert sum(result["trace"]["cases"].values()) == job.cases
