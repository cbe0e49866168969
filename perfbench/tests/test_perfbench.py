"""Self-tests of the benchmark harness (not of nambu3 itself).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Every metric the design in README.md here names.
NAMED_END_TO_END = {
    "setup_s", "wall_s", "cases_per_s", "latency_p50_ms", "latency_p99_ms",
    "peak_rss_mb", "error_rate", "verdict_s.module-t",
    "verdict_s.module-t-mu2", "verdict_s.induced-psi",
    "verdict_s.pullback-phi", "verdict_s.induce-relations", "verdict_s.fi",
    "verdict_s.fi-par2",
    "parallel_efficiency"}
NAMED_PER_LAYER = {
    "scalar.mul.calls", "scalar.add.calls", "scalar.fraction_new.calls",
    "scalar.self_s", "scalar.divides.calls", "scalar.divides.distinct_ratio",
    "scalar.mul3_us", "scalar.add3_us", "scalar.divides_us",
    "linear.merge.calls", "linear.scale.calls", "linear.self_s",
    "algebra.bracket_keys.calls", "algebra.fi.cases_per_s",
    "algebra.fi.self_s", "algebra.fi.workers", "algebra.bracket_det_s",
    "derivations.table.cases_per_s", "derivations.pair_cache.hit_ratio",
    "derivations.ad_apply.calls", "derivations.decompose_s",
    "repmod.axiom1.cases_per_s", "repmod.axiom2.cases_per_s",
    "repmod.tri_key_cache.hit_ratio", "repmod.tri_key_cache.size",
    "repmod.lie_key_cache.hit_ratio", "repmod.module_gate.calls",
    "repmod.module_gate.hit_ratio", "repmod.induce_apply.calls",
    "repmod.induce_apply_s", "repmod.gate.divides_calls",
    "repmod.lie_module.cases_per_s", "repmod.induced.cases_per_s",
    "repmod.orbit_s", "reports.entries", "reports.machine_lines",
    "reports.format_s", "parsing.calls", "parsing.busy_s", "cli.main.calls",
    "cli.build_parser_s", "cli.self_s", "trace.overhead_ratio"}

LIE_PSI = next(j for j in workloads.SYMBOLIC_JOBS if j.name == "lie-psi")


@pytest.fixture
def only_lie_psi(monkeypatch):
    """Make symbolic-modules a one-job workload (lie-psi takes ~0.3 s)."""
    run.OUT.mkdir(exist_ok=True)

    def use(job):
        monkeypatch.setitem(workloads.JOBS, "symbolic-modules", (job,))
        monkeypatch.setitem(workloads.SLOTS, "symbolic-modules",
                            ((job.name,),))
    return use


def test_same_seed_gives_same_requests():
    def argvs(seed, index):
        return [r.argv for r in workloads.pass_requests(seed, index)]

    assert argvs(7, 0) == argvs(7, 0)
    assert argvs(7, 1) == argvs(7, 1)
    assert argvs(7, 0) != argvs(8, 0)
    assert argvs(7, 0) != argvs(7, 1)
    assert len(argvs(7, 0)) == workloads.PASS_REQUESTS >= 1000
    assert workloads.relation_for(3) == workloads.relation_for(3)


def test_every_pass_holds_the_fixed_mix():
    for seed, index in ((1, 0), (2, 5)):
        kinds = Counter(r.kind for r in workloads.pass_requests(seed, index))
        assert kinds == dict(workloads.PASS_MIX)


def test_slots_run_every_job_once():
    for workload, jobs in workloads.JOBS.items():
        names = [name for slot in workloads.SLOTS[workload] for name in slot]
        assert sorted(names) == sorted(job.name for job in jobs)


def test_stream_holds_the_roadmap_odd_inputs():
    argvs = [r.argv for r in workloads.pass_requests(1, 0) if r.contract]
    brackets = [a for a in argvs if a[0] == "bracket" and "M[0]" in a]
    assert brackets and all(a[1].startswith("L[") for a in brackets)
    assert any(a[0] == "bracket" and a[3] == "L[0]" for a in argvs)


def test_corrupted_expected_verdict_raises_error_rate(only_lie_psi):
    deadline = run.time.monotonic() + 60
    only_lie_psi(LIE_PSI)
    good = run.sweep_pass("symbolic-modules", 1, deadline)
    assert good.failures == []
    only_lie_psi(dataclasses.replace(LIE_PSI, exit=1))
    bad = run.sweep_pass("symbolic-modules", 1, deadline)
    metrics = run.end_to_end("symbolic-modules", [(0.1, 0.06)], [bad])
    assert metrics["error_rate"][0] > 0
    assert run.end_to_end("symbolic-modules", [(0.1, 0.06)],
                          [good])["error_rate"][0] == 0


def test_traced_pass_counts_cases_and_keeps_verdicts(only_lie_psi):
    deadline = run.time.monotonic() + 60
    only_lie_psi(LIE_PSI)
    plain = run.sweep_pass("symbolic-modules", 1, deadline)
    traced = run.sweep_pass("symbolic-modules", 1, deadline, trace=True)
    assert traced.failures == []
    assert traced.outcomes == plain.outcomes
    summary = traced.summaries[0]
    assert summary["cases"] == {"check_lie_module": LIE_PSI.cases}
    assert summary["functions"]["main"][1] == 1


def _fake_pass(workload):
    p = run.Pass(cases=100, setups=[0.1], rss_kb=40000, attempted=3)
    if workload == "query-session":
        p.latencies = [0.001 * (1 + i % 7) for i in range(300)]
        p.kind_s = {kind: 0.1 for kind, _ in workloads.PASS_MIX}
    else:
        p.verdict_s = {job.name: 1.0 for job in workloads.JOBS[workload]}
    return p


def test_every_named_metric_is_printed_with_a_unit(only_lie_psi, capsys):
    printed = {}
    for workload in workloads.WORKLOADS:
        m = run.end_to_end(workload, [(0.1, 0.06)], [_fake_pass(workload)])
        listed = {e["name"] for e in SPEC["end_to_end"]}
        assert listed <= set(m), workload
        assert all(m[e["name"]][0] > 0 for e in SPEC["end_to_end"])
        printed.update(m)
    only_lie_psi(LIE_PSI)
    deadline = run.time.monotonic() + 60
    plain = run.sweep_pass("symbolic-modules", 1, deadline)
    traced = run.sweep_pass("symbolic-modules", 1, deadline, trace=True)
    micro, _ = run._run_child("micro", {}, 60)
    layer = run.per_layer(plain, traced, micro)
    assert {e["name"] for e in SPEC["per_layer"]} <= set(layer)
    printed.update(layer)
    missing = (NAMED_END_TO_END | NAMED_PER_LAYER) - set(printed)
    assert not missing
    assert all(unit for _, unit, _ in printed.values())
    result = run.report("symbolic-modules", 1, 1, layer, [plain, traced],
                        SPEC["per_layer"])
    out = capsys.readouterr().out
    for name in layer:
        assert f" {name} " in out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "integer-sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
