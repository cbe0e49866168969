"""nambu3 benchmark: run a workload end to end, or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload symbolic-modules --seed 1 \\
        --seconds 40 --trace 0

``--workload all`` runs every workload, untraced and then traced, and
prints every metric of all six runs.

Every metric is printed by name with its unit, one per line; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` lists for the mode (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``).  See README.md here for
the workloads, the metric definitions and the layer-to-end-to-end mapping.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import LAYERS, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 10         # import-only interpreters at the start of a run
PROBES_PER_PASS = 3       # and after each pass
RUN_LIMIT_S = 170.0       # stop starting work past this, whatever --seconds
# End-to-end times are scaled to a reference machine speed: every time of a
# run is multiplied by REF_S / ref, where ref is the median time of the
# fixed reference loop (worker.reference_s) over every process of the run.
# The median of some 40 samples follows slow changes in machine speed
# without adding the noise of a single 60 ms sample.  REF_S is about that
# median on the 2-CPU x86-64 box the benchmark was written on, so there the
# scaled times read close to the raw ones.
REF_S = 0.06
DEFECT_NOTE_LIMIT = 5     # failure reasons echoed per run


# -- child processes ----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NAMBU3_PARALLELISM", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(mode: str, spec: dict, **popen):
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), mode, json.dumps(spec)],
        cwd=ROOT, env=_child_env(), text=True, **popen)
    return proc, started


def _run_child(mode: str, spec: dict, timeout: float):
    """Run a child to completion; (last stdout line as dict, start time)."""
    proc, started = _spawn(mode, spec, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), started
    except ValueError:
        pass
    raise RuntimeError(f"{mode} child failed ({proc.returncode}): "
                       f"{err.strip()[-300:]}")


class Session:
    """One long-lived child answering requests, closed loop."""

    def __init__(self, trace: bool, spans_path=None):
        self.stderr = open(OUT / "session-stderr.txt", "w")
        self.proc, _ = _spawn(
            "session", {"trace": trace, "spans_path": spans_path},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, bufsize=1)
        self._read()    # ready once nambu3.cli is imported

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("session process ended unexpectedly")
        return json.loads(line)

    def ask(self, argv) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.stderr.close()


# -- passes -------------------------------------------------------------------


@dataclass
class Pass:
    """One pass: every job of a sweep workload, or PASS_REQUESTS requests."""

    cases: int = 0
    refs: list = field(default_factory=list)        # reference-loop times
    setups: list = field(default_factory=list)
    rss_kb: int = 0
    verdict_s: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    kind_s: dict = field(default_factory=dict)      # service time per kind
    attempted: int = 0
    failures: list = field(default_factory=list)    # (name, reason, answer)
    outcomes: list = field(default_factory=list)    # compared traced/untraced
    summaries: list = field(default_factory=list)   # tracer summaries
    elapsed_s: float = 0.0                          # set-up included

    @property
    def wall_s(self) -> float:
        """Time spent in the program's work, summed over jobs or requests.

        Set-up, the harness's pipe round trips and the packing of jobs onto
        slots are left out.
        """
        return sum(self.verdict_s.values()) + sum(self.latencies)


def _job_spec(job, seed: int, trace: bool, span_dir) -> dict:
    return {"name": job.name, "argv": list(job.argv), "library": job.library,
            "relation": list(workloads.relation_for(seed)), "trace": trace,
            "spans_path": str(span_dir / f"{job.name}.jsonl")
            if span_dir else None}


def _run_job(spec: dict, deadline: float):
    return _run_child("job", spec, deadline - time.monotonic())


def sweep_pass(workload: str, seed: int, deadline: float, trace=False,
               span_dir=None) -> Pass:
    """Run every job once, each slot of ``workloads.SLOTS`` on its own."""
    out = Pass()
    by_name = {job.name: job for job in workloads.JOBS[workload]}
    slots = workloads.SLOTS[workload]
    if len(slots) > (os.cpu_count() or 1):
        slots = (sum(slots, ()),)

    def run_slot(names):
        results = []
        for name in names:
            spec = _job_spec(by_name[name], seed, trace, span_dir)
            try:
                results.append(_run_job(spec, deadline))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                results.append(exc)
        return results

    begin = time.monotonic()
    with ThreadPoolExecutor(max_workers=len(slots)) as pool:
        done = list(pool.map(run_slot, slots))
    out.elapsed_s = time.monotonic() - begin
    for names, results in zip(slots, done):
        for name, outcome in zip(names, results):
            job = by_name[name]
            out.attempted += 1
            if isinstance(outcome, Exception):
                out.failures.append((name, str(outcome), True))
                continue
            result, started = outcome
            out.refs.append(result["ref_s"])
            out.setups.append(result["imported_at"] - started)
            out.verdict_s[name] = result["verdict_s"]
            out.rss_kb = max(out.rss_kb, result["maxrss_kb"])
            out.outcomes.append((name, result["exit"], result["raised"],
                                 result["lines"], result["digest"]))
            reason = workloads.judge_job(job, result)
            if reason is None and trace:
                counted = sum(result["trace"]["cases"].values())
                if counted != job.cases:
                    reason = (f"reports counted {counted} cases, "
                              f"not {job.cases}")
            if reason is not None:
                out.failures.append((name, reason, True))
            if result["trace"] is not None:
                out.summaries.append(result["trace"])
            out.cases += job.cases
    return out


def session_pass(session: Session, seed: int, index: int) -> Pass:
    out = Pass()
    requests = workloads.pass_requests(seed, index)
    begin = time.monotonic()
    out.refs.append(session.ask("ref")["ref_s"])
    replies = [session.ask(req.argv) for req in requests]
    out.refs.append(session.ask("ref")["ref_s"])
    out.elapsed_s = time.monotonic() - begin
    # Service time inside the session process: the pipe round trip to this
    # client is the harness's cost, not the program's.
    out.latencies = [reply["service_s"] for reply in replies]
    for req, latency in zip(requests, out.latencies):
        out.kind_s[req.kind] = out.kind_s.get(req.kind, 0.0) + latency
    stats = session.ask(None)
    out.rss_kb = stats["maxrss_kb"]
    if stats["trace"] is not None:
        out.summaries.append(stats["trace"])
    out.cases = out.attempted = len(requests)
    for n, (req, reply) in enumerate(zip(requests, replies)):
        out.outcomes.append((n, reply["exit"], reply["raised"],
                             reply["stdout"]))
        reason = workloads.judge_reply(req, reply)
        if reason is not None:
            out.failures.append((" ".join(req.argv), reason,
                                 not req.contract))
    return out


def setup_probes(deadline: float, count: int) -> list:
    """(raw set-up time, reference-loop time) of ``count`` fresh imports."""
    samples = []
    for _ in range(count):
        result, started = _run_child("probe", {},
                                     deadline - time.monotonic())
        samples.append((result["imported_at"] - started, result["ref_s"]))
    return samples


# -- runs ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, start: float):
    """Untraced run: passes while they fit in seconds, set-up probes between.

    The first import may compile bytecode, so it is not a set-up sample.
    """
    deadline = start + RUN_LIMIT_S
    setup_probes(deadline, 1)
    probes = setup_probes(deadline, SETUP_PROBES)
    passes = []
    session = None
    if workload == "query-session":
        session = Session(trace=False)
    try:
        while True:
            if session is None:
                passes.append(sweep_pass(workload, seed, deadline))
            else:
                passes.append(session_pass(session, seed, len(passes)))
            probes += setup_probes(deadline, PROBES_PER_PASS)
            typical = statistics.median(p.elapsed_s for p in passes)
            now = time.monotonic()
            if now + typical > min(start + seconds, deadline):
                break
    finally:
        if session is not None:
            session.close()
    return probes, passes


def traced(workload: str, seed: int, start: float):
    """One untraced and one traced pass on the same inputs, plus micros."""
    deadline = start + RUN_LIMIT_S
    span_dir = OUT / f"trace-{workload}-seed{seed}"
    span_dir.mkdir(parents=True, exist_ok=True)
    setup_probes(deadline, 1)    # compiles bytecode before the passes
    if workload == "query-session":
        plain_session = Session(trace=False)
        try:
            plain = session_pass(plain_session, seed, 0)
        finally:
            plain_session.close()
        traced_session = Session(trace=True,
                                 spans_path=str(span_dir / "session.jsonl"))
        try:
            tpass = session_pass(traced_session, seed, 0)
        finally:
            traced_session.close()
    else:
        plain = sweep_pass(workload, seed, deadline)
        tpass = sweep_pass(workload, seed, deadline, trace=True,
                           span_dir=span_dir)
    micro, _ = _run_child("micro", {}, deadline - time.monotonic())
    if plain.outcomes != tpass.outcomes:
        tpass.failures.append(("trace", "traced verdicts differ from the "
                               "untraced ones", True))
    return plain, tpass, micro


# -- metrics ------------------------------------------------------------------


def _pct(values, q: float) -> float:
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[k]


def end_to_end(workload: str, probes: list, passes: list) -> dict:
    """name -> (value, unit, note); every metric the workload applies to."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    refs = [ref for _, ref in probes] + [r for p in passes for r in p.refs]
    ref = statistics.median(refs)
    scale = REF_S / ref
    setup = statistics.median(raw for raw, _ in probes)
    wall = statistics.median(p.wall_s for p in passes)
    m = {
        "setup_s": (setup * scale, "s",
                    f"median of {len(probes)} interpreter starts between "
                    "passes, scaled"),
        "raw.setup_s": (setup, "s", "as measured"),
        "raw.wall_s": (wall, "s", "as measured"),
        "machine.ref_s": (ref, "s", f"median of {len(refs)} reference "
                          f"loops; times are scaled by {REF_S} / this"),
        "wall_s": (wall * scale, "s",
                   f"median of {len(passes)} passes, scaled"),
        "cases_per_s": (statistics.median(p.cases / p.wall_s
                                          for p in passes) / scale, "1/s",
                        "requests" if workload == "query-session"
                        else "sweep cases"),
        "peak_rss_mb": (statistics.median(p.rss_kb for p in passes) / 1024,
                        "MB", "largest ru_maxrss in a pass, median"),
        "error_rate": (failed / attempted, "ratio",
                       f"{failed} of {attempted}"),
    }
    if workload == "query-session":
        lat = [x * 1000 * scale for p in passes for x in p.latencies]
        m["latency_p50_ms"] = (_pct(lat, 0.5), "ms", f"n={len(lat)}")
        m["latency_p99_ms"] = (_pct(lat, 0.99), "ms",
                               f"n={len(lat)}, {len(lat) // 100} above")
        for kind, _ in workloads.PASS_MIX:
            m[f"service_share.{kind}"] = (
                statistics.median(p.kind_s.get(kind, 0.0) / p.wall_s
                                  for p in passes), "ratio",
                "of a pass's service time, median")
    else:
        in_pass = [s * scale for p in passes for s in p.setups]
        m["setup_s.in_pass"] = (statistics.median(in_pass), "s",
                                f"median of {len(in_pass)} job interpreters")
        for job in workloads.JOBS[workload]:
            times = [p.verdict_s[job.name] * scale for p in passes
                     if job.name in p.verdict_s]
            if times:
                m[f"verdict_s.{job.name}"] = (
                    statistics.median(times), "s", f"median of {len(times)}")
        if workload == "integer-sweeps" and "verdict_s.fi-par2" in m:
            eff = m["verdict_s.fi"][0] / (2 * m["verdict_s.fi-par2"][0])
            m["parallel_efficiency"] = (eff, "ratio",
                                        "verdict_s.fi / (2 x fi-par2)")
    return m


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: Pass, tpass: Pass, micro: dict) -> dict:
    """name -> (value, unit, note) from the traced pass and the micros."""
    t = merge(tpass.summaries)
    fns = t["functions"]

    def calls(name):
        return fns.get(name, [None, 0, 0.0, 0.0])[1]

    def incl(*names):
        return sum(fns.get(n, [None, 0, 0.0, 0.0])[2] for n in names)

    def cache(attr):
        return t["caches"].get(attr, {"hits": 0, "misses": 0, "size": 0})

    def hit_ratio(attr):
        c = cache(attr)
        return _ratio(c["hits"], c["hits"] + c["misses"])

    def cases_rate(fn):
        return _rate(t["cases"].get(fn, 0), incl(fn))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for layer, _, _, own in fns.values():
        layer_self[layer] += own
    busy = tpass.wall_s
    parse_fns = ("parse_scalar", "parse_elem", "parse_deriv",
                 "parse_weight_key")
    fmt_fns = ("DefectReport.machine_lines", "DefectReport.text_lines")
    lines = t["lines"]["machine_lines"] + t["lines"]["text_lines"]
    gate = cache("_module_gate")
    m = {
        "scalar.mul.calls": (calls("Scalar.__mul__"), "count", ""),
        "scalar.add.calls": (calls("Scalar.__add__"), "count", ""),
        "scalar.fraction_new.calls": (t["fraction_new"], "count", ""),
        "scalar.divides.calls": (calls("divides"), "count", ""),
        "scalar.divides.distinct_ratio": (
            _ratio(t["divides_distinct"], calls("divides")), "ratio",
            "distinct (divisor, coefficient) pairs / calls"),
        "linear.merge.calls": (calls("LinComb._merged"), "count", ""),
        "linear.scale.calls": (calls("LinComb.__mul__"), "count", ""),
        "algebra.bracket_keys.calls": (calls("bracket_keys"), "count", ""),
        "algebra.fi.cases_per_s": (cases_rate("check_fundamental"), "1/s",
                                   "0 when no fi sweep ran"),
        "algebra.fi.self_s": (fns.get("check_fundamental",
                                      [0, 0, 0.0, 0.0])[3], "s", ""),
        "algebra.fi.workers": (t["workers"], "count", ""),
        "algebra.bracket_det_s": (incl("bracket_det"), "s", ""),
        "derivations.table.cases_per_s": (cases_rate("check_pqxz_table"),
                                          "1/s", "0 when no table sweep"),
        "derivations.pair_cache.hit_ratio": (hit_ratio("pair_to_pqxz"),
                                             "ratio", ""),
        "derivations.ad_apply.calls": (calls("ad_apply"), "count", ""),
        "derivations.decompose_s": (incl("deriv_to_pqxz"), "s", ""),
        "derivations.decompose.calls_per_s": (
            _rate(calls("deriv_to_pqxz"), incl("deriv_to_pqxz")), "1/s", ""),
        "repmod.axiom1.cases_per_s": (cases_rate("check_tri_axiom1"), "1/s",
                                      ""),
        "repmod.axiom2.cases_per_s": (cases_rate("check_tri_axiom2"), "1/s",
                                      ""),
        "repmod.tri_key_cache.hit_ratio": (hit_ratio("_tri_key_terms"),
                                           "ratio", ""),
        "repmod.tri_key_cache.size": (cache("_tri_key_terms")["size"],
                                      "count", "largest in one process"),
        "repmod.lie_key_cache.hit_ratio": (hit_ratio("_lie_key_terms"),
                                           "ratio", ""),
        "repmod.module_gate.calls": (gate["hits"] + gate["misses"], "count",
                                     ""),
        "repmod.module_gate.hit_ratio": (hit_ratio("_module_gate"), "ratio",
                                         ""),
        "repmod.induce_apply.calls": (calls("induce_apply"), "count", ""),
        "repmod.induce_apply_s": (incl("induce_apply"), "s", ""),
        "repmod.induce_apply.calls_per_s": (
            _rate(calls("induce_apply"), incl("induce_apply")), "1/s", ""),
        "repmod.gate.divides_calls": (t["gate_divides"], "count", ""),
        "repmod.lie_module.cases_per_s": (cases_rate("check_lie_module"),
                                          "1/s", ""),
        "repmod.induced.cases_per_s": (cases_rate("check_induced"), "1/s",
                                       ""),
        "repmod.orbit_s": (incl("orbit_probe"), "s", ""),
        "repmod.orbit.calls_per_s": (
            _rate(calls("orbit_probe"), incl("orbit_probe")), "1/s", ""),
        "reports.entries": (calls("DefectEntry.__init__"), "count", ""),
        "reports.machine_lines": (t["lines"]["machine_lines"], "count", ""),
        "reports.format_s": (incl(*fmt_fns), "s", ""),
        "reports.lines_per_s": (_rate(lines, incl(*fmt_fns)), "1/s", ""),
        "parsing.calls": (sum(calls(n) for n in parse_fns), "count", ""),
        "parsing.busy_s": (incl(*parse_fns), "s", ""),
        "parsing.calls_per_s": (_rate(sum(calls(n) for n in parse_fns),
                                      incl(*parse_fns)), "1/s", ""),
        "cli.main.calls": (calls("main"), "count", ""),
        "cli.build_parser_s": (_ratio(incl("build_parser"),
                                      calls("build_parser")), "s",
                               "per call"),
        "trace.overhead_ratio": (tpass.wall_s / plain.wall_s, "ratio",
                                 "traced / untraced busy time"),
        "trace.spans": (t["spans"], "count",
                        f"{t['spans_dropped']} dropped past the cap"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s", "")
        m[f"{layer}.self_pct"] = (100 * layer_self[layer] / busy, "%",
                                  "of traced busy time")
    for name, value in micro.items():
        m[name] = (value, "us", "timeit median per call")
    return m


# -- output -------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def report(workload, seed, trace, metrics, passes, listed) -> dict:
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"commit {_git_commit()}")
    for name in sorted(metrics):
        value, unit, note = metrics[name]
        print(f"  {name:<38} {value:>16.6g} {unit:<6} {note}")
    for name, reason, _ in failures[:DEFECT_NOTE_LIMIT]:
        print(f"  failed: {name[:70]}: {reason}")
    if len(failures) > DEFECT_NOTE_LIMIT:
        print(f"  ... and {len(failures) - DEFECT_NOTE_LIMIT} more failures")
    return {"correct": not any(answer for _, _, answer in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {e["name"]: {"value": metrics[e["name"]][0],
                                    "unit": e["unit"]} for e in listed}}


def run_one(workload: str, seed: int, seconds: float, trace: int,
            spec: dict) -> dict:
    """Run one workload in one mode, print its report, return the result."""
    start = time.monotonic()
    if trace:
        plain, tpass, micro = traced(workload, seed, start)
        metrics = per_layer(plain, tpass, micro)
        passes, listed = [plain, tpass], spec["per_layer"]
    else:
        probes, passes = measure(workload, seed, seconds, start)
        metrics = end_to_end(workload, probes, passes)
        listed = spec["end_to_end"]
    return report(workload, seed, trace, metrics, passes, listed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload, untraced and "
                             "traced, whatever --trace says")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nambu3" / "cli.py").is_file():
        print(f"error: no nambu3 sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                                 args.trace, spec)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, args.seed, args.seconds, trace, spec)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
