"""Workload definitions: jobs, hand-written expected verdicts, request stream.

Three workloads, each chosen to stress a different mix of layers:

* ``symbolic-modules``: module checks with polynomial coefficients, one fresh
  interpreter per job, so every memo cache starts cold.
* ``integer-sweeps``: integer/rational structure-constant sweeps that never
  build a polynomial ``Scalar``, plus process fan-out.
* ``query-session``: one long-lived process answering a seeded stream of many
  small CLI requests with warm caches.

The expected verdicts below are written by hand from the README exit-code
contract and the ROADMAP counts.  The sha256 digests pin the exact stdout
bytes each job printed at the commit that introduced this benchmark; for the
``--output machine`` jobs that is the byte-exact machine-stream contract.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("symbolic-modules", "integer-sweeps", "query-session")


@dataclass(frozen=True)
class Job:
    """One fresh-interpreter job with its expected verdict.

    ``argv`` goes to ``nambu3.cli.main``; ``library`` names a library job
    instead.  ``cases`` counts sweep cases as the job's reports count them.
    """

    name: str
    argv: tuple = ()
    library: Optional[str] = None
    exit: int = 0
    lines: int = 0
    digest: str = ""
    cases: int = 0


# Criterion-12 decomposition kernel relations, as (a, b) in
# ad(L[a+1], M[b+1]) - 2 ad(L[a], M[b]) + ad(L[a-1], M[b-1]).
KERNEL_RELATIONS = tuple([(r, 0) for r in range(1, 6)]
                         + [(s + 1, s) for s in range(0, 5)])

_SIX_ZEROS = "acb88cc45a983fc5559854d1193217b31aa4efbbd52b0bf154ab0873194cf7a9"

SYMBOLIC_JOBS = (
    # One kernel relation pushed through induce_apply on the symbolic T
    # action over the six default probes: six zero vectors.  Each call
    # re-runs the module gate's divisibility test; the first also pays for
    # the 120,000-case gate sweep.
    Job("induce-relations", library="induce-relations",
        exit=0, lines=6, cases=120000, digest=_SIX_ZEROS),
    # 10 keys^4 x 6 probes x 2 axioms; 14,400 residual defects, all in the
    # ideal (mu^2 - mu), so the symbolic run passes.
    Job("module-t", ("check", "module-t", "--output", "machine"),
        exit=0, lines=14400, cases=120000,
        digest="b89994edf5e106ff855b821083d1dd1de4aec1f168ef2c365382a142b8c81457"),
    # mu = 2 is not a module parameter: exit 1 with the full defect list.
    Job("module-t-mu2", ("check", "module-t", "--mu", "2", "--output",
                         "machine"),
        exit=1, lines=14400, cases=120000,
        digest="17d1c991055afc1440a6790fb7f96b1b11b607f64913a361d7742fc63299184a"),
    # mu = 1 passes the module gate (120,000 cases) and matches psi on
    # 28 generators x 6 probes.
    Job("induced-psi", ("check", "induced-psi", "--mu", "1"),
        exit=0, lines=3, cases=120168,
        digest="6e45bd041036fdf4f5abf2f27f9c08296d18c7c60730efecec3b94d1a0050cd8"),
    # The designed failure is found, which is the expected verdict: exit 0.
    Job("pullback-phi", ("check", "pullback-phi"),
        exit=0, lines=28, cases=60000,
        digest="7a9cd2cb3096ed53c5ef0acec9d523f070d4c2902d7b7bd70cb873904ef622bc"),
    # 28 generators squared x 6 probes each.
    Job("lie-psi", ("check", "lie-psi"), exit=0, lines=3, cases=4704,
        digest="97c1cf7b8b6468bef60967df9eaab64bc05711b868fefbfefe19bffb8fc730ec"),
    Job("lie-phi", ("check", "lie-phi"), exit=0, lines=3, cases=4704,
        digest="97c1cf7b8b6468bef60967df9eaab64bc05711b868fefbfefe19bffb8fc730ec"),
)

INTEGER_JOBS = (
    # 14 keys^5 fundamental-identity cases, serial and on two workers.
    Job("fi", ("check", "fi", "--window", "-3..3"),
        exit=0, lines=3, cases=537824,
        digest="b1f5c8f1150f70f45d248af83f94ee97cea473bb6eee796481bd46fbd37d06af"),
    Job("fi-par2", ("check", "fi", "--window", "-3..3", "--parallelism", "2"),
        exit=0, lines=3, cases=537824,
        digest="b1f5c8f1150f70f45d248af83f94ee97cea473bb6eee796481bd46fbd37d06af"),
    # 68 generators squared x 34 basis probes on the widened window.
    Job("table", ("check", "table", "--window", "-8..8"),
        exit=0, lines=3, cases=157216,
        digest="6aa8f2e9a006e5f4fad68adc7e8bb3640d0e028d7ca89f1d70d23467bd3c51d7"),
)

JOBS = {"symbolic-modules": SYMBOLIC_JOBS, "integer-sweeps": INTEGER_JOBS}

# Each slot runs its own fixed list of jobs in order, the slots side by
# side, so the same jobs overlap in every pass.  The two symbolic slots hold
# about the same work.  integer-sweeps runs one job at a time: fi-par2 needs
# both CPUs, and parallel_efficiency compares it with fi on an otherwise
# idle machine.
SLOTS = {
    "symbolic-modules": (("module-t", "induced-psi", "pullback-phi",
                          "lie-psi", "lie-phi"),
                         ("induce-relations", "module-t-mu2")),
    "integer-sweeps": (("fi", "fi-par2", "table"),),
}


def relation_for(seed: int) -> tuple:
    """The kernel relation the induce-relations job uses for this seed.

    Every relation costs the same: the module gate dominates each call.
    """
    return random.Random(seed).choice(KERNEL_RELATIONS)


def judge_job(job: Job, result: dict) -> Optional[str]:
    """None when the job's result matches its expected verdict, else why."""
    if result.get("raised"):
        return f"raised {result['raised']}"
    if result.get("exit") != job.exit:
        return f"exit {result.get('exit')} != {job.exit}"
    if result.get("lines") != job.lines:
        return f"{result.get('lines')} stdout lines != {job.lines}"
    if result.get("digest") != job.digest:
        return "stdout digest differs from the pinned one"
    return None


# -- query-session request stream ---------------------------------------------

# Each pass of the stream has this fixed composition, so the cost of a pass
# does not depend on the seed; the seed picks parameters and order.  The
# mix is a chosen assumption, not observed usage: each well-formed kind gets
# about a quarter of a pass's service time, so no one kind's layers decide
# ``wall_s``.  The counts are inversely proportional to the mean service
# times measured for each kind in a warm process (Python 3.11.7, 2-CPU
# x86-64 box): bracket 2.9 ms, decompose 2.2 ms, weights 1.6 ms, orbit
# 6.3 ms.  The orbit count is a multiple of the eight orbit cases, and the
# malformed share holds each of the eleven malformed kinds five times
# (5.5% of the requests, about 2% of the service time).
PASS_MIX = (("bracket", 200), ("decompose", 273), ("weights", 376),
            ("orbit", 96), ("malformed", 55))
PASS_REQUESTS = sum(n for _, n in PASS_MIX)


@dataclass
class Request:
    """One argv list for ``cli.main`` plus how to judge its reply.

    ``kind`` is the ``PASS_MIX`` entry it belongs to.  ``expect_exit`` is
    the README contract's exit code.  ``check`` looks at the stdout of a
    reply that exited as expected and returns an error string or None.
    ``contract`` marks malformed or out-of-range inputs.
    """

    kind: str
    argv: list
    expect_exit: int
    check: Optional[Callable] = None
    contract: bool = False


_COEFFS = ("1", "-1", "2", "-3", "1/2", "-5/3", "lam", "mu", "a0",
           "(mu - 1)", "(lam + 2*a0)", "(mu^2 - mu)", "3*lam*mu", "(a0 - 1/3)")


def _elem(rng: random.Random, terms: int) -> str:
    keys = set()
    while len(keys) < terms:
        keys.add((rng.choice("LM"), rng.randint(-4, 4)))
    parts = [f"{rng.choice(_COEFFS)} {kind}[{index}]"
             for kind, index in sorted(keys)]
    return " + ".join(parts)


def _deriv(rng: random.Random, terms: int) -> str:
    # the grammar takes no signed coefficient inside a term, so the sign
    # goes on the joining operator
    text = ""
    for i in range(terms):
        coeff = rng.choice(("1", "2", "3", "(1/2)", "(3/4)", "5"))
        if rng.random() < 0.6:
            u = f"{rng.choice('LM')}[{rng.randint(-4, 4)}]"
            v = f"{rng.choice('LM')}[{rng.randint(-4, 4)}]"
            atom = f"ad({u},{v})"
        else:
            atom = f"{rng.choice('pqxz')}[{rng.randint(-4, 4)}]"
        sign = rng.choice(("+", "-"))
        term = f"{coeff} {atom}"
        if i == 0:
            text = f"-{term}" if sign == "-" else term
        else:
            text += f" {sign} {term}"
    return text


def _param(rng: random.Random) -> str:
    return rng.choice(("sym", "0", "1", "2", "-1", "1/2", "-7/3"))


def _machine_record(stdout: str) -> Optional[dict]:
    try:
        rec = json.loads(stdout)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def _check_bracket(stdout: str) -> Optional[str]:
    rec = _machine_record(stdout)
    if rec is None or rec.get("agree") is not True:
        return "bracket and determinant oracle disagree"
    return None


def _check_decompose(stdout: str) -> Optional[str]:
    rec = _machine_record(stdout)
    if rec is None or rec.get("verified") is not True:
        return "decomposition does not re-expand to the same action"
    return None


def _check_weights(stdout: str) -> Optional[str]:
    # weight of v[k] under (L[0], M[0]) is lam + alpha(k): seven keys on a
    # coset window give seven distinct weights, each of multiplicity one
    rows = [_machine_record(line) or {} for line in stdout.splitlines()]
    if (len(rows) != 7 or len({r.get("weight") for r in rows}) != 7
            or any(r.get("multiplicity") != 1 for r in rows)):
        return "expected seven distinct weights of multiplicity one"
    return None


def _orbit_check(classification: str, missed: tuple) -> Callable:
    def check(stdout: str) -> Optional[str]:
        rec = _machine_record(stdout)
        if rec is None or rec.get("classification") != classification:
            return f"orbit classification is not {classification}"
        if tuple(rec.get("missed", ())) != missed:
            return f"orbit missed set is not {list(missed)}"
        return None
    return check


# Orbit cases with hand-derived classifications on the default window -3..3.
# T: (L_r, M_s) scales v[k] by lam + alpha + (s - r) mu and shifts by s - r.
# psi: p[r] scales by lam + alpha - r mu; phi twists only the zero line.
_ORBITS = (
    # lam = 0, mu = 0: the zero-weight line is killed by every pair, so
    # nothing else on the window is reached
    (("T", "--lambda", "0", "--mu", "0", "--start", "0"), "trivial-line",
     ("v[-3]", "v[-2]", "v[-1]", "v[1]", "v[2]", "v[3]")),
    # lam = 3, mu = 0 at alpha = -3: every coefficient is zero again
    (("T", "--lambda", "3", "--mu", "0", "--start", "-3"), "trivial-line",
     ("v[-2]", "v[-1]", "v[0]", "v[1]", "v[2]", "v[3]")),
    # lam = 0, mu = 1: the coefficient k + (s - r) vanishes exactly when the
    # target is v[0], so v[0] is never reached from v[1]
    (("T", "--lambda", "0", "--mu", "1", "--start", "1"),
     "invariant-window-subspace", ("v[0]",)),
    # generic tag with lam = 1/2: coefficients are nonzero polynomials
    (("T", "--lambda", "1/2", "--mu", "0", "--start", "a0"),
     "transitive-on-window", ()),
    # phi reaches every line from v[0] but nothing returns to v[0]
    (("phi", "--start", "0"), "transitive-on-window", ()),
    (("phi", "--start", "1"), "invariant-window-subspace", ("v[0]",)),
    # psi with symbolic lam never produces a zero coefficient
    (("psi", "--mu", "2", "--start", "0"), "transitive-on-window", ()),
    (("psi", "--start", "a1"), "transitive-on-window", ()),
)


def _malformed(rng: random.Random) -> list:
    """Malformed or out-of-range inputs; the contract says exit 2 for each.

    The first four reproduce the ROADMAP item-5 defects at the commit that
    introduced this benchmark (tracebacks or a silently accepted index).
    The exponent overflow reaches 2^16 by one squaring of ``mu^256``, so it
    costs about as much as a small request; ``mu^70000`` would spend about
    0.4 s multiplying before the same error.
    """
    big = rng.randint(10 ** 13, 10 ** 14 - 1)
    t = rng.randint(1, 3)
    return [
        ["bracket", f"L[{big}]", f"L[{t}]", "M[0]"],
        ["bracket", f"L[{big}]", f"L[{t}]", "L[0]"],
        ["decompose", f"ad(L[{t}],M[2])", "--verify", "--window", "0..1"],
        ["bracket", "(mu^256)^256 L[1]", f"L[{t}]", "M[3]"],
        ["check", "fi", "--window", f"{t + 4}..{t}"],
        ["check", "fi", "--window", f"-{40 + t}..40"],
        ["weights", "T", "--mu", "abc"],
        ["orbit", "X"],
        ["bracket", f"L[{t}", "L[2]", "M[3]"],
        ["orbit", "T", "--start", "b7"],
        ["decompose", f"ad(L[{t}],M[2]", "--verify"],
    ]


def _requests_of(kind: str, rng: random.Random, count: int) -> list:
    out = []
    if kind == "malformed":
        pool = _malformed(rng)
        return [Request(kind, pool[i % len(pool)], 2, contract=True)
                for i in range(count)]
    for _ in range(count):
        if kind == "bracket":
            argv = ["bracket", _elem(rng, 2), _elem(rng, 2), _elem(rng, 3),
                    "--oracle", "--output", "machine"]
            out.append(Request(kind, argv, 0, _check_bracket))
        elif kind == "decompose":
            argv = ["decompose", _deriv(rng, rng.randint(2, 3)), "--verify",
                    "--output", "machine"]
            out.append(Request(kind, argv, 0, _check_decompose))
        elif kind == "weights":
            start = rng.choice(("a0", "a1", f"a2+{rng.randint(1, 5)}",
                                f"a0-{rng.randint(1, 5)}",
                                str(rng.randint(-5, 5)), "1/3"))
            argv = ["weights", "T", "--lambda", _param(rng), "--mu",
                    _param(rng), "--start", start, "--output", "machine"]
            out.append(Request(kind, argv, 0, _check_weights))
        else:
            # round robin, so every pass holds the same mix of orbit cases
            args, classification, missed = _ORBITS[len(out) % len(_ORBITS)]
            argv = ["orbit", *args, "--output", "machine"]
            out.append(Request(kind, argv, 0,
                               _orbit_check(classification, missed)))
    return out


def pass_requests(seed: int, index: int) -> list:
    """Requests of pass ``index`` of the seeded stream, in sending order."""
    rng = random.Random(f"{seed}:{index}")
    reqs = []
    for kind, count in PASS_MIX:
        reqs.extend(_requests_of(kind, rng, count))
    rng.shuffle(reqs)
    return reqs


def judge_reply(req: Request, reply: dict) -> Optional[str]:
    """None when a session reply matches the request's expectation."""
    if reply.get("raised"):
        return f"raised {reply['raised']}"
    if reply.get("exit") != req.expect_exit:
        return f"exit {reply.get('exit')} != {req.expect_exit}"
    if req.check is not None:
        return req.check(reply.get("stdout", ""))
    return None
