"""Command-line front end.

Subcommands: ``bracket``, ``check``, ``decompose``, ``orbit``, ``weights``.
Exit codes are a contract: 0 when the expected verdict holds, 1 when a
check lands on an unexpected verdict, 2 for usage, parse or configuration
errors (a check grid over ``CASE_BUDGET`` cases among them) and for inputs the
exact arithmetic refuses (index, exponent or window out of bounds), each
reported as one ``error:`` line on stderr by the one ``except`` in ``main``.
A reader that closes stdout early also exits 2 with one ``error:`` line:
``main`` flushes stdout itself, so the broken pipe shows there and not in
the interpreter's final flush.  So does a run that runs out of memory
(``CASE_BUDGET`` bounds cases, not memory); once the machine stream has
started, stdout holds a prefix of it.
Flag values are read by ``_read`` in ``parsing``'s grammar (``parse_int``
for windows and ``--parallelism``, ``parse_rational`` for ``--lambda`` and
``--mu``, ``parse_weight_key`` for ``--start`` and each ``--probes`` entry);
a refusal names the flag and echoes at most ``_ECHO_LIMIT`` characters of
the value, as do argparse's refusals of a choice or an unrecognized
argument.  A ``--probes`` list that names one line twice is refused.
Every flag is long, so a token with one leading dash other than ``-h`` is
an argument: a positional (``bracket "-L[1]" ...``) or a flag's value
(``--window -2..2``).

``_SUITES`` holds each suite's default window, its case-count formula,
checked against the budget before any sweep, and the optional flags it
reads; any other explicit flag exits 2.  ``_emit_check`` prints a report
with its verdict line and returns the exit code; it prints every machine
defect stream, ``induced-psi``'s gate refusal and ``pullback-phi`` included.

``check pullback-phi`` inverts the usual convention on purpose: that suite
documents a designed failure, so finding the nonzero defect is the expected
verdict and exits 0.  ``module-t`` exits with the library's module verdict
(``repmod._module_verdict``): a rational mu passes only when it is 0 or 1
and the window shows no defect, a symbolic mu when every defect is divisible
by mu^2 - mu.  ``induced-psi`` exits 0 only when the induced action matches
and the gated module's own axiom report is clean, so a symbolic run exits 1
even though the generator formulas agree.  The other suites exit 0 only on a
clean pass.

``--output machine`` prints one JSON record per defect (or per result row),
sorted and canonically formatted, so the byte stream is deterministic for a
fixed configuration.  ``--output text`` prints a human summary capped at 20
defect lines; the machine stream is never capped.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from .algebra import (DEFAULT_FI_WINDOW, bracket, bracket_det,
                      check_fundamental)
from .derivations import (DEFAULT_PAIR_WINDOW, check_pqxz_table, deriv_equal,
                          deriv_to_pqxz, pqxz_to_deriv)
from .errors import (ConfigError, ExponentOverflow, IndexOverflow, NotAModule,
                     NotEigenvector, ParseError, WindowTooSmall, ZeroDivisor)
from .parsing import (LITERAL_TOO_LONG, MAX_TERMS, parse_deriv, parse_elem,
                      parse_int, parse_rational, parse_weight_key,
                      product_terms)
from .reports import json_line
from .repmod import (DEFAULT_AXIOM_WINDOW, ModVec, _module_verdict,
                     _probe_keys, check_induced, check_lie_module,
                     check_tri_axiom2, counterexample_phi, orbit_probe,
                     pullback_candidate, shift_action, verify_module,
                     weight_action, weight_key, weight_report,
                     zero_twist_action)

_WINDOW_SPAN_LIMIT = 64

_EXPECTED_KEY = "expected a weight key a<k>, a<k>+m or a rational"

# Longest flag value a refusal repeats; a longer one is cut and ends in an
# ellipsis.
_ECHO_LIMIT = 80

# the value an argparse refusal echoes whole, found by the refusal's text
_WHOLE_ECHO = (r"(?<=^unrecognized arguments: ).*"
               r"|(?<=^ambiguous option: ).*(?= could match )"
               r"|(?<=ignored explicit argument ['\"]).*(?=['\"]\Z)")

# Refuse larger grids before any sweep starts: at the span cap, fi alone
# would ask for 130^5 cases.  The default windows stay under 10^6.
CASE_BUDGET = 10 ** 8

# machine lines per write: a write-through stdout makes a system call per
# write, and 256 lines raised module-t's machine-run peak RSS by 0.25 MB
_MACHINE_BATCH = 64

# suite -> (default window, report cases from window points n and probes p,
# the optional flags it reads, by dest); 5- and 4-tuple grids default to the
# small window, pairwise ones to the wide.  induced-psi's module gate sweeps
# a fixed window and is not counted.
_SUITES = {
    "fi": (DEFAULT_FI_WINDOW, lambda n, p: (2 * n) ** 5, ("parallelism",)),
    "table": (DEFAULT_PAIR_WINDOW, lambda n, p: (4 * n) ** 2 * 2 * n, ()),
    "module-t": (DEFAULT_AXIOM_WINDOW, lambda n, p: 2 * (2 * n) ** 4 * p,
                 ("lam", "mu", "probes")),
    "pullback-phi": (DEFAULT_AXIOM_WINDOW, lambda n, p: (2 * n) ** 4 * p,
                     ("mu", "probes")),
    "lie-psi": (DEFAULT_PAIR_WINDOW, lambda n, p: (4 * n) ** 2 * p,
                ("lam", "mu", "probes")),
    "lie-phi": (DEFAULT_PAIR_WINDOW, lambda n, p: (4 * n) ** 2 * p,
                ("mu", "probes")),
    "induced-psi": (DEFAULT_PAIR_WINDOW, lambda n, p: 4 * n * p,
                    ("lam", "mu", "probes")),
}

# dest -> option string of the flags some suites or families ignore
_OPTIONAL_FLAGS = {"lam": "--lambda", "mu": "--mu", "probes": "--probes",
                   "parallelism": "--parallelism"}


class RunConfig(NamedTuple):
    window: range
    lam: Optional[Fraction]
    mu: Optional[Fraction]
    probes: Optional[tuple]
    output: str
    parallelism: int


def _cut(text: str) -> str:
    """``text`` cut to ``_ECHO_LIMIT`` characters and an ellipsis."""
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "\u2026"


def _bad(what: str, text: str, detail: str) -> ConfigError:
    """The refusal of a flag value, echoing it through ``_cut``."""
    return ConfigError(f"bad {what} {_cut(text)!r}: {detail}")


def _read(what: str, text: str, parse, expected: str):
    """``parse(text)``, its ParseError refused through ``_bad``: naming the
    literal bound when that refused the value, else ``expected``."""
    try:
        return parse(text)
    except ParseError as exc:
        detail = exc.message if exc.message == LITERAL_TOO_LONG else expected
        raise _bad(what, text, detail) from None


def _parse_window(text: str) -> range:
    lo, hi = _read("window", text, lambda t: [
        parse_int(end) for end in t.partition("..")[::2]], "expected lo..hi")
    if lo > hi:
        raise _bad("window", text, "lo must not exceed hi")
    if hi - lo > _WINDOW_SPAN_LIMIT:
        raise _bad("window", text, f"span exceeds {_WINDOW_SPAN_LIMIT}")
    return range(lo, hi + 1)


def _parse_param(text: Optional[str], name: str) -> Optional[Fraction]:
    if text is None or text == "sym":
        return None
    return _read(name, text, parse_rational, "expected a rational p/q or 'sym'")


def _parse_probes(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    probes: dict = {}   # a dict keeps the order and finds a repeat at once
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise _bad("--probes", text, "empty entry")
        probe = _read("--probes entry", part, parse_weight_key, _EXPECTED_KEY)
        if probe in probes:
            raise _bad("--probes", text,
                       f"duplicate probe v[{_cut(str(probe))}]")
        probes[probe] = None
    return tuple(probes)


def _parse_parallelism(text: Optional[str]) -> int:
    if text is None:
        return 1
    expected = "expected an integer >= 1"
    value = _read("--parallelism", text, parse_int, expected)
    if value < 1:
        raise _bad("--parallelism", text, expected)
    return value


def _refuse_unread(args, name: str, reads) -> None:
    """Refuse explicit flags that ``name`` would silently ignore."""
    unread = [flag for dest, flag in _OPTIONAL_FLAGS.items()
              if dest not in reads and getattr(args, dest, None) is not None]
    if unread:
        raise ConfigError(f"{name} does not use {', '.join(unread)}")


def _build_config(args, default_window: range) -> RunConfig:
    window = default_window
    if getattr(args, "window", None) is not None:
        window = _parse_window(args.window)
    return RunConfig(
        window=window,
        lam=_parse_param(getattr(args, "lam", None), "--lambda"),
        mu=_parse_param(getattr(args, "mu", None), "--mu"),
        probes=_parse_probes(getattr(args, "probes", None)),
        output=getattr(args, "output", "text"),
        parallelism=_parse_parallelism(getattr(args, "parallelism", None)))


def _window_str(window: range) -> str:
    return f"{window[0]}..{window[-1]}"


def _emit_check(report, config, extra=(), ok=None) -> int:
    """Print a report and its verdict, ``ok`` or else a clean pass, and
    return the exit code."""
    if ok is None:
        ok = report.passed
    if config.output == "machine":
        # one write per batch of the lazy stream, so neither a list of its
        # lines nor one joined string of it is held
        lines = iter(report.machine_lines())
        while batch := "\n".join(islice(lines, _MACHINE_BATCH)):
            sys.stdout.write(batch + "\n")
    else:
        print(f"window: {_window_str(config.window)}")
        for line in report.text_lines():
            print(line)
        for line in extra:
            print(line)
        print("verdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


# -- subcommands -------------------------------------------------------------


def cmd_bracket(args) -> int:
    x = parse_elem(args.x)
    y = parse_elem(args.y)
    z = parse_elem(args.z)
    if product_terms(*(e._terms.values() for e in (x, y, z))) > MAX_TERMS:
        raise ConfigError(f"bracket coefficient products with more than "
                          f"{MAX_TERMS} terms")
    result = bracket(x, y, z)
    if not args.oracle:
        if args.output == "machine":
            print(json_line({"bracket": str(result)}))
        else:
            print(result)
        return 0
    oracle = bracket_det(x, y, z)
    agree = result == oracle
    if args.output == "machine":
        print(json_line({"bracket": str(result), "oracle": str(oracle),
                         "agree": agree}))
    else:
        print(f"bracket: {result}")
        print(f"oracle: {oracle}")
        print("agree:", "yes" if agree else "NO")
    return 0 if agree else 1


def cmd_check(args) -> int:
    suite = args.suite
    window, count, reads = _SUITES[suite]
    _refuse_unread(args, f"check {suite}", reads)
    config = _build_config(args, window)
    cases = count(len(config.window), len(_probe_keys(config.probes)))
    if cases > CASE_BUDGET:
        raise ConfigError(
            f"check {suite} on window {_window_str(config.window)} needs "
            f"{cases:,} cases, over the budget of {CASE_BUDGET:,}")

    if suite == "fi":
        return _emit_check(check_fundamental(
            config.window, parallelism=config.parallelism), config)

    if suite == "table":
        return _emit_check(check_pqxz_table(config.window), config)

    if suite == "module-t":
        report, ok = _module_verdict(weight_action(config.lam, config.mu),
                                     config.window, config.probes, "module-t")
        extra = []
        if config.mu is None:
            extra.append("all defects divisible by mu^2 - mu: "
                         + ("yes" if ok else "NO"))
        return _emit_check(report, config, extra, ok)

    if suite in ("lie-psi", "lie-phi"):
        action = (shift_action(config.lam, config.mu) if suite == "lie-psi"
                  else zero_twist_action(config.mu))
        return _emit_check(check_lie_module(action, config.window,
                                            config.probes), config)

    if suite == "induced-psi":
        tri = weight_action(config.lam, config.mu)
        lie = shift_action(config.lam, config.mu)
        try:
            report = check_induced(tri, lie, config.window, config.probes)
        except NotAModule as exc:
            if config.output == "machine":
                return _emit_check(exc.report, config, ok=False)
            print(f"not a module: {exc}")
            for line in exc.report.text_lines():
                print(line)
            print("verdict: FAIL")
            return 1
        ok = report.passed and verify_module(tri).passed
        extra = []
        if config.mu is None:
            extra.append("induction is gated on mu in {0, 1}; mu is symbolic")
        return _emit_check(report, config, extra, ok)

    if suite == "pullback-phi":
        candidate = pullback_candidate(zero_twist_action(config.mu))
        lhs, rhs, defect = counterexample_phi(config.mu)
        report = check_tri_axiom2(candidate, config.window, config.probes)
        expected = ModVec.term(weight_key(-4)) * (-4)
        # each class vector read once: a sign changes no rationality
        found = defect == expected and any(
            c.is_rational for cls in report.classes
            for _, c in cls.defect.items())
        if config.output == "machine":
            return _emit_check(report, config, ok=found)
        print(f"window: {_window_str(config.window)}")
        print("counterexample (L[4],L[3],M[2],M[1]) on v[0]:")
        print(f"  lhs: {lhs}")
        print(f"  rhs: {rhs}")
        print(f"  defect: {defect}")
        for line in report.text_lines():
            print(line)
        print("expected failure found:", "yes" if found else "NO")
        return 0 if found else 1

    raise ConfigError(f"unknown suite {suite!r}")


def cmd_decompose(args) -> int:
    config = _build_config(args, DEFAULT_PAIR_WINDOW)
    expr = parse_deriv(args.expr)
    coords = deriv_to_pqxz(expr)
    verified = None
    if args.verify:
        verified = deriv_equal(expr, pqxz_to_deriv(coords), config.window)
    if config.output == "machine":
        record = {"decomposition": str(coords)}
        if verified is not None:
            record["verified"] = verified
        print(json_line(record))
    else:
        print(coords)
        if verified is not None:
            print("verify:", "action-equal on "
                  + _window_str(config.window) if verified else "MISMATCH")
    return 0 if verified in (None, True) else 1


def cmd_orbit(args) -> int:
    _refuse_unread(args, f"orbit {args.family}",
                   ("mu",) if args.family == "phi" else ("lam", "mu"))
    config = _build_config(args, DEFAULT_PAIR_WINDOW)
    start = _read("--start", args.start, parse_weight_key, _EXPECTED_KEY)
    if args.family == "T":
        action = weight_action(config.lam, config.mu)
    elif args.family == "psi":
        action = shift_action(config.lam, config.mu)
    else:
        action = zero_twist_action(config.mu)
    report = orbit_probe(action, start, config.window)
    missed = [f"v[{k}]" for k in report.missed]
    reached = [f"v[{k}]" for k in report.reached]
    if report.classification == "trivial-line":
        label = "trivial line"
    elif report.classification == "transitive-on-window":
        label = "transitive on window"
    else:
        label = "invariant: misses " + ", ".join(missed)
    if config.output == "machine":
        print(json_line({"family": args.family, "start": f"v[{start}]",
                         "classification": report.classification,
                         "reached": reached, "missed": missed}))
    else:
        print(f"family: {args.family}")
        print(f"start: v[{start}]")
        print(f"classification: {label}")
        if report.classification == "trivial-line":
            print("annihilated by every windowed generator")
        print("reached:", " ".join(reached))
        print("missed:", " ".join(missed) if missed else "(none)")
    return 0


def cmd_weights(args) -> int:
    config = _build_config(args, DEFAULT_PAIR_WINDOW)
    start = _read("--start", args.start, parse_weight_key, _EXPECTED_KEY)
    action = weight_action(config.lam, config.mu)
    keys = [start.shift(m) for m in config.window]
    try:
        report = weight_report(action, keys)
    except NotEigenvector as exc:
        if config.output == "machine":
            print(json_line({"error": "not-eigenvector",
                             "detail": str(exc)}))
        else:
            print(f"failure: {exc}")
        return 1
    if config.output == "machine":
        for key, weight, mult in report.rows:
            print(json_line({"key": f"v[{key}]", "weight": str(weight),
                             "multiplicity": mult}))
    else:
        for key, weight, mult in report.rows:
            print(f"v[{key}]: weight {weight}, multiplicity {mult}")
        distinct = len({str(w) for _, w, _ in report.rows})
        print(f"distinct weights: {distinct} of {len(report.rows)}")
        print("all multiplicity one:",
              "yes" if report.all_multiplicity_one else "NO")
    return 0 if report.all_multiplicity_one else 1


# -- wiring ------------------------------------------------------------------


def _add_config_flags(sub, *, params=True, probes=False, parallelism=False):
    sub.add_argument("--output", choices=("text", "machine"), default="text")
    sub.add_argument("--window", metavar="LO..HI")
    if params:
        sub.add_argument("--lambda", dest="lam", metavar="P/Q|sym")
        sub.add_argument("--mu", metavar="P/Q|sym")
    if probes:
        sub.add_argument("--probes", metavar="K1,K2,...")
    if parallelism:
        sub.add_argument("--parallelism", metavar="N")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises its refusals as ConfigError, for ``main`` to print as one
    ``error:`` line; subparsers are built from the same class."""

    def error(self, message):
        # cut a value argparse echoes whole as _bad cuts a flag value
        message = re.sub(_WHOLE_ECHO, lambda m: _cut(m[0]), message,
                         count=1, flags=re.S)
        raise ConfigError(message.replace("\n", "\\n"))

    def _check_value(self, action, value):
        # argparse echoes a refused choice whole; cut it as _bad does
        if action.choices is not None and value not in action.choices:
            value = _cut(value)
        super()._check_value(action, value)

    def _parse_optional(self, arg):
        # every flag is long, so "-L[1]" or "-2..2" is an argument: a
        # positional or a flag's value
        if arg.startswith("-") and not arg.startswith("--") and arg != "-h":
            return None
        return super()._parse_optional(arg)

    def _get_values(self, action, arg_strings):
        # argparse before Python 3.13 drops a "--" given as a flag's value
        # ("--window=--") and stores []; the flag's reader refuses it instead
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def _print_message(self, message, file=None):
        # argparse drops an OSError here; let a closed stdout reach main
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nambu3",
        description="Exact checks for a ternary algebra on paired Laurent "
                    "modes, its inner derivations, and their weight modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bracket = sub.add_parser(
        "bracket", help="evaluate the ternary bracket of three elements")
    p_bracket.add_argument("x")
    p_bracket.add_argument("y")
    p_bracket.add_argument("z")
    p_bracket.add_argument("--oracle", action="store_true",
                           help="also run the determinant formula and compare")
    p_bracket.add_argument("--output", choices=("text", "machine"),
                           default="text")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=sorted(_SUITES))
    _add_config_flags(p_check, probes=True, parallelism=True)

    p_dec = sub.add_parser(
        "decompose", help="coordinates of a derivation in the p/q/x/z basis")
    p_dec.add_argument("expr")
    p_dec.add_argument("--verify", action="store_true",
                       help="re-expand and confirm action equality")
    _add_config_flags(p_dec, params=False)

    p_orbit = sub.add_parser(
        "orbit", help="reachability of weight lines under one action family")
    p_orbit.add_argument("family", choices=("T", "psi", "phi"))
    p_orbit.add_argument("--start", default="a0", metavar="KEY")
    _add_config_flags(p_orbit)

    p_weights = sub.add_parser(
        "weights", help="weight table of the pair action on a coset window")
    p_weights.add_argument("family", choices=("T",))
    p_weights.add_argument("--start", default="a0", metavar="KEY")
    _add_config_flags(p_weights)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # built on first use, not at import, and kept for the process
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
            # resolved per call, so a rebound cmd_* takes effect at once
            code = globals()[f"cmd_{args.command}"](args)
        except SystemExit:
            # only --help exits, after printing the help text
            code = 0
        sys.stdout.flush()
        return code
    except (ParseError, ConfigError, IndexOverflow, ExponentOverflow,
            WindowTooSmall, ZeroDivisor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_stdout()
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return 2
    except MemoryError:
        pass  # leaving the handler frees the failed call's frames
    print("error: out of memory", file=sys.stderr)
    return 2


def _discard_stdout() -> None:
    # Point a closed stdout's descriptor at devnull, so what is still
    # buffered goes nowhere at exit instead of failing again.  A stdout
    # without a descriptor (an in-process redirect) is left alone.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
