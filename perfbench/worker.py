"""What a benchmark child process does once ``nambu3.cli`` is imported.

Modes:

* ``probe``: report the set-up time stamp and exit.
* ``job``: run one job (``cli.main(argv)`` or a library job), hash its
  stdout, and print one JSON result line.
* ``session``: answer ``cli.main`` requests read as JSON argv lists from
  stdin, one JSON reply line each; a ``null`` line asks for process stats
  and a ``"ref"`` line for one reference-loop time.
* ``micro``: time the fixed layer microbenchmarks.

Probes and jobs also report ``ref_s``, the time of ``reference_s``'s fixed
loop in the same process (for a job, the mean of one run just before and one
just after its work), from which the harness scales their times to a
reference machine speed.

With ``"trace": true`` the layer wrappers are installed before any work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import timeit
from math import gcd

REF_LOOPS = 80000


def reference_s() -> float:
    """Time a fixed loop of plain-Python work like nambu3's own.

    Exact rational sums, as integer pairs reduced by ``gcd``, into a dict of
    tuple keys.  It runs no nambu3 code and builds no ``Fraction`` (whose
    constructor the tracer counts), so neither a change to the program nor
    tracing can move it; a slower or busier machine slows it about as much
    as the program.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(REF_LOOPS):
        key = (i % 7, i % 11)
        num, den = acc.get(key, (0, 1))
        num, den = num * 21 + den * (7 * (i % 5) - 3 * (i % 3)), den * 21
        g = gcd(num, den)
        acc[key] = (num // g, den // g)
    return time.perf_counter() - t0


class _DigestSink(io.TextIOBase):
    """A stdout stand-in that hashes and counts lines instead of storing."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text):
        self.sha.update(text.encode())
        self.lines += text.count("\n")
        return len(text)


def _maxrss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _tracer(spec: dict):
    if not spec.get("trace"):
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, spec: dict):
    if tracer is None:
        return None
    if spec.get("spans_path"):
        tracer.write_spans(spec["spans_path"])
    return tracer.summary()


def _induce_relations(relation) -> int:
    # Looked up here, after any tracer is installed.
    from nambu3.algebra import L, M
    from nambu3.derivations import ad
    from nambu3.repmod import ModVec, default_probes, induce_apply, \
        weight_action

    a, b = relation
    rel = (ad(L(a + 1), M(b + 1)) - ad(L(a), M(b)) * 2
           + ad(L(a - 1), M(b - 1)))
    tri = weight_action()
    zero = True
    for key in default_probes():
        out = induce_apply(tri, rel, ModVec.term(key))
        print(out)
        zero = zero and out.is_zero
    return 0 if zero else 1


def run_job(spec: dict, imported_at: float) -> int:
    tracer = _tracer(spec)
    if tracer is not None:
        tracer.request = spec["name"]
    import nambu3.cli as cli

    sink, err = _DigestSink(), io.StringIO()
    raised = None
    code = None
    ref_before = reference_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(err):
            if spec.get("library") == "induce-relations":
                code = _induce_relations(spec["relation"])
            else:
                code = cli.main(list(spec["argv"]))
    except Exception as exc:  # a traceback is a result to report
        raised = type(exc).__name__
    verdict_s = time.perf_counter() - t0
    ref_s = (ref_before + reference_s()) / 2
    print(json.dumps({"imported_at": imported_at, "verdict_s": verdict_s,
                      "ref_s": ref_s,
                      "exit": code, "raised": raised, "lines": sink.lines,
                      "digest": sink.sha.hexdigest(),
                      "maxrss_kb": _maxrss_kb(),
                      "trace": _finish_trace(tracer, spec)}))
    return 0


def run_session(spec: dict, imported_at: float) -> int:
    tracer = _tracer(spec)
    import nambu3.cli as cli

    out = sys.stdout
    out.write(json.dumps({"imported_at": imported_at}) + "\n")
    out.flush()
    for n, line in enumerate(sys.stdin):
        argv = json.loads(line)
        if argv is None:
            reply = {"maxrss_kb": _maxrss_kb(),
                     "trace": tracer.summary() if tracer else None}
        elif argv == "ref":
            reply = {"ref_s": reference_s()}
        else:
            if tracer is not None:
                tracer.request = n
            buf, err = io.StringIO(), io.StringIO()
            code, raised = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # a traceback is a result to report
                raised = type(exc).__name__
            reply = {"exit": code, "raised": raised,
                     "stdout": buf.getvalue(),
                     "service_s": time.perf_counter() - t0}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    _finish_trace(tracer, spec)
    return 0


def _per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    number = max(1, number // 2)
    runs = timer.repeat(repeat=5, number=number)
    return statistics.median(runs) / number * 1e6


def run_micro(spec: dict, imported_at: float) -> int:
    """Layer microbenchmarks on fixed inputs, in microseconds per call."""
    from fractions import Fraction

    from nambu3.algebra import AlgElem, L, M, bracket_det
    from nambu3.scalar import LAMBDA, MU, Indeterminate, Scalar, divides

    lam, mu, a0 = Scalar(LAMBDA), Scalar(MU), Scalar(Indeterminate("a0"))
    p = lam + mu * 2 - Fraction(1, 3)          # three terms each
    q = mu * mu - a0 + 5
    gate = mu * mu - mu
    multiple = gate * (lam + a0 + 3)
    x = AlgElem([(L(1), p), (L(2), q), (M(0), lam)])
    y = AlgElem([(L(1), q), (M(0), mu), (M(3), p)])
    z = AlgElem([(L(-1), a0), (M(2), q), (M(-2), 3)])
    if not divides(gate, multiple):
        raise RuntimeError("divides micro input is not a multiple")
    result = {
        "scalar.mul3_us": _per_call_us(lambda: p * q),
        "scalar.add3_us": _per_call_us(lambda: p + q),
        "scalar.divides_us": _per_call_us(lambda: divides(gate, multiple)),
        "linear.merge3_us": _per_call_us(lambda: x + y),
        "algebra.bracket_det_us": _per_call_us(lambda: bracket_det(x, y, z)),
    }
    print(json.dumps(result))
    return 0


def main(mode: str, spec_json: str, imported_at: float) -> int:
    spec = json.loads(spec_json)
    if mode == "probe":
        print(json.dumps({"imported_at": imported_at,
                          "ref_s": reference_s()}))
        return 0
    if mode == "job":
        return run_job(spec, imported_at)
    if mode == "session":
        return run_session(spec, imported_at)
    if mode == "micro":
        return run_micro(spec, imported_at)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2
