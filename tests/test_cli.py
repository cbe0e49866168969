"""Command line contract: pinned outputs, exit codes, machine format."""

import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import nambu3
from nambu3 import cli, repmod
from nambu3.cli import build_parser, main
from nambu3.reports import DefectReport
from nambu3.scalar import Scalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- bracket ----------------------------------------------------------------------


def test_bracket_pinned(capsys):
    code, out, _ = run(capsys, "bracket", "L[1]", "L[2]", "M[3]")
    assert code == 0
    assert out == "L[0]\n"


@pytest.mark.parametrize("argv, expected", [
    pytest.param(("bracket", "-L[1]", "L[2]", "M[3]"), "-1 L[0]\n",
                 id="bracket-first"),
    pytest.param(("bracket", "L[2]", "-L[1]", "M[3]", "--output", "text"),
                 "L[0]\n", id="bracket-second-before-a-flag"),
    pytest.param(("decompose", "-ad(L[1],M[2])"), "-1 p[-1] + 3/2 q[-1]\n",
                 id="decompose"),
    pytest.param(("decompose", "--verify", "-2 ad(L[1],M[2])", "--window",
                  "-3..3"),
                 "-2 p[-1] + 3 q[-1]\nverify: action-equal on -3..3\n",
                 id="decompose-verify"),
])
def test_positionals_may_start_with_a_dash(capsys, argv, expected):
    # read as an expression, as after "--", not as an unknown option
    assert run(capsys, *argv) == (0, expected, "")


def test_unknown_flags_are_still_refused_beside_a_dash_positional(capsys):
    code, out, err = run(capsys, "bracket", "-L[1]", "L[2]", "M[3]", "--bogus")
    assert (code, out) == (2, "")
    assert err == "error: unrecognized arguments: --bogus\n"
    # an explicit "--" is left as it is
    assert run(capsys, "bracket", "--", "-L[1]", "L[2]", "M[3]") == (
        0, "-1 L[0]\n", "")


_SUITE_CHOICES = ("(choose from 'fi', 'induced-psi', 'lie-phi', 'lie-psi', "
                  "'module-t', 'pullback-phi', 'table')")


@pytest.mark.parametrize("argv, code, err", [
    # a flag's value never starts with "--" or is "-h"
    pytest.param(("check", "fi", "--window", "--mu"), 2,
                 "error: argument --window: expected one argument\n",
                 id="window-value-is-a-flag"),
    pytest.param(("orbit", "T", "--start", "-h"), 2,
                 "error: argument --start: expected one argument\n",
                 id="start-value-is-help"),
    pytest.param(("check", "fi", "--window", "--"), 2,
                 "error: argument --window: expected one argument\n",
                 id="window-value-is-double-dash"),
    # any other token with one leading dash is an argument, never help
    pytest.param(("check", "-hx"), 2,
                 f"error: argument suite: invalid choice: '-hx' "
                 f"{_SUITE_CHOICES}\n", id="suite-dash-hx"),
    pytest.param(("check", "-"), 2,
                 f"error: argument suite: invalid choice: '-' "
                 f"{_SUITE_CHOICES}\n", id="suite-lone-dash"),
    pytest.param(("bracket", "-hx", "L[2]", "M[3]"), 2,
                 "error: unknown scalar symbol 'hx' at position 1 "
                 "(expected: lam, mu, a<k>)\n", id="scalar-dash-hx"),
    pytest.param(("bracket", "-", "L[2]", "M[3]"), 2,
                 "error: expected a scalar at position 1 "
                 "(expected: number, symbol, ()\n", id="scalar-lone-dash"),
    pytest.param(("check", "fi", "--window=-1..1"), 0, "",
                 id="window-joined-negative"),
])
def test_single_dash_tokens_are_arguments(capsys, argv, code, err):
    got_code, out, got_err = run(capsys, *argv)
    assert (got_code, got_err) == (code, err)
    if code == 2:
        assert out == ""
    else:
        assert out.startswith("window: -1..1\n")


_KEY_EXPECTED = "expected a weight key a<k>, a<k>+m or a rational"


@pytest.mark.parametrize("argv, err", [
    pytest.param(("check", "fi", "--window=--"),
                 "bad window '--': expected lo..hi", id="check-window"),
    pytest.param(("check", "module-t", "--probes=--", "--window", "0..0"),
                 f"bad --probes entry '--': {_KEY_EXPECTED}", id="probes"),
    pytest.param(("decompose", "ad(L[1],M[2])", "--window=--", "--verify"),
                 "bad window '--': expected lo..hi", id="decompose-window"),
    pytest.param(("check", "fi", "--output=--"),
                 "argument --output: invalid choice: "
                 "'--' (choose from 'text', 'machine')", id="output"),
    pytest.param(("weights", "T", "--mu=--"),
                 "bad --mu '--': expected a rational p/q or 'sym'", id="mu"),
    pytest.param(("weights", "T", "--lambda=--"),
                 "bad --lambda '--': expected a rational p/q or 'sym'",
                 id="lambda"),
    pytest.param(("check", "fi", "--parallelism=--"),
                 "bad --parallelism '--': expected an integer >= 1",
                 id="parallelism"),
])
def test_a_double_dash_value_reaches_the_flag_reader(capsys, argv, err):
    # argparse before Python 3.13 drops it and stores []
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv, err", [
    pytest.param(("orbit", "T", "--start", "b7"),
                 f"bad --start 'b7': {_KEY_EXPECTED}", id="orbit-start"),
    pytest.param(("weights", "T", "--start=1/0"),
                 f"bad --start '1/0': {_KEY_EXPECTED}", id="weights-start"),
    pytest.param(("check", "module-t", "--probes", "0,x", "--window", "0..0"),
                 f"bad --probes entry 'x': {_KEY_EXPECTED}", id="probes"),
])
def test_a_weight_key_refusal_names_the_flag(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_decompose_help_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "decompose", "--help") == (0, (
        "usage: nambu3 decompose [-h] [--verify] [--output {text,machine}]\n"
        "                        [--window LO..HI]\n"
        "                        expr\n"
        "\n"
        "positional arguments:\n"
        "  expr\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --verify              re-expand and confirm action equality\n"
        "  --output {text,machine}\n"
        "  --window LO..HI\n"), "")


def test_bracket_zero(capsys):
    code, out, _ = run(capsys, "bracket", "L[1]", "L[2]", "L[3]")
    assert code == 0
    assert out == "0\n"


def test_bracket_second_family(capsys):
    code, out, _ = run(capsys, "bracket", "L[1]", "M[2]", "M[4]")
    assert code == 0
    assert out == "2 M[5]\n"


def test_bracket_oracle_agreement(capsys):
    code, out, _ = run(capsys, "bracket", "L[1]", "L[2]", "M[3]", "--oracle")
    assert code == 0
    assert out == "bracket: L[0]\noracle: L[0]\nagree: yes\n"


def test_bracket_combination_inputs(capsys):
    code, out, _ = run(capsys, "bracket", "L[1] + M[1]", "2 L[2]", "M[3]")
    assert code == 0
    assert out == "2 L[0] - 4 M[2]\n"


# -- decompose --------------------------------------------------------------------


def test_decompose_pinned(capsys):
    code, out, _ = run(capsys, "decompose", "ad(L[3],L[1])")
    assert code == 0
    assert out == "2 x[4]\n"


def test_decompose_pinned_z(capsys):
    code, out, _ = run(capsys, "decompose", "ad(M[1],M[2])")
    assert code == 0
    assert out == "-1 z[-3]\n"


def test_decompose_mixed_pair(capsys):
    code, out, _ = run(capsys, "decompose", "ad(L[2],M[1])")
    assert code == 0
    assert out == "p[1] - 3/2 q[1]\n"


def test_decompose_verify(capsys):
    code, out, _ = run(capsys, "decompose", "ad(L[0],M[0])", "--verify")
    assert code == 0
    assert out.splitlines() == ["p[0]", "verify: action-equal on -3..3"]


def test_decompose_kernel_relation_is_zero(capsys):
    code, out, _ = run(capsys, "decompose",
                       "ad(L[2],M[1]) - 2 ad(L[1],M[0]) + ad(L[0],M[-1])")
    assert code == 0
    assert out == "0\n"


# -- check: expected-pass suites ------------------------------------------------------


def test_check_fi(capsys):
    code, out, _ = run(capsys, "check", "fi", "--window", "-1..1")
    assert code == 0
    assert "window: -1..1" in out
    assert "0 defects" in out
    assert out.rstrip().endswith("verdict: pass")


def test_check_fi_parallel(capsys):
    code, out, _ = run(capsys, "check", "fi", "--window", "-1..1",
                       "--parallelism", "2")
    assert code == 0
    assert "0 defects" in out


def test_check_table(capsys):
    code, out, _ = run(capsys, "check", "table", "--window", "-2..2")
    assert code == 0
    assert "0 defects" in out


def test_check_module_t_symbolic(capsys):
    code, out, _ = run(capsys, "check", "module-t", "--window", "-1..1")
    assert code == 0
    assert "all defects divisible by mu^2 - mu: yes" in out
    assert out.rstrip().endswith("verdict: pass")


@pytest.mark.parametrize("mu", ["0", "1"])
def test_check_module_t_module_values(capsys, mu):
    code, out, _ = run(capsys, "check", "module-t", "--mu", mu,
                       "--window", "-1..1")
    assert code == 0
    assert "0 defects" in out


def test_check_lie_suites(capsys):
    for suite in ("lie-psi", "lie-phi"):
        code, out, _ = run(capsys, "check", suite, "--window", "-2..2")
        assert code == 0
        assert out.rstrip().endswith("verdict: pass")


def test_check_induced_psi(capsys):
    code, out, _ = run(capsys, "check", "induced-psi", "--mu", "1",
                       "--window", "-1..1")
    assert code == 0
    assert out.rstrip().endswith("verdict: pass")


# -- check: expected-failure suites ----------------------------------------------------


def test_check_module_t_mu2_fails(capsys):
    code, out, _ = run(capsys, "check", "module-t", "--mu", "2",
                       "--window", "-1..1")
    assert code == 1
    assert "verdict: FAIL" in out


def test_check_module_t_mu2_machine_has_pinned_pattern(capsys):
    code, out, _ = run(capsys, "check", "module-t", "--mu", "2",
                       "--window", "-1..1", "--output", "machine")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["axiom"] == "tri-axiom-2" for r in records)
    pinned = [r for r in records
              if r["indices"] == ["L", "0", "L", "1", "M", "0", "M", "1"]]
    assert pinned
    for r in pinned:
        assert r["defect"].startswith("-2 v[")
        assert r["parameters"] == {"lam": "lam", "mu": "2"}


def test_check_induced_psi_mu2_fails(capsys):
    code, out, _ = run(capsys, "check", "induced-psi", "--mu", "2",
                       "--window", "-1..1")
    assert code == 1
    assert "verdict: FAIL" in out


def test_a_refused_induction_names_the_gate_window(capsys):
    # the gate sweeps its own window, whatever --window says
    code, out, _ = run(capsys, "check", "induced-psi", "--mu", "2",
                       "--window", "0..0")
    assert code == 1
    assert out.splitlines()[0] == (
        "not a module: cannot induce from T({'lam': 'lam', 'mu': '2'}): "
        "14400 module-axiom defects on the gate window -2..2")


def test_check_induced_psi_symbolic_fails(capsys):
    code, out, _ = run(capsys, "check", "induced-psi", "--window", "-1..1")
    assert code == 1


def test_check_pullback_phi_expected_failure(capsys):
    code, out, _ = run(capsys, "check", "pullback-phi", "--window", "-2..2")
    assert code == 0
    lines = out.splitlines()
    assert "counterexample (L[4],L[3],M[2],M[1]) on v[0]:" in lines
    assert "  lhs: (-4*mu + 16) v[-4]" in lines
    assert "  rhs: (-4*mu + 20) v[-4]" in lines
    assert "  defect: -4 v[-4]" in lines
    assert out.rstrip().endswith("expected failure found: yes")


@pytest.mark.parametrize("window, cases", [
    ("0..0", 96), ("-1..0", 1536), ("1..2", 1536)])
def test_check_pullback_phi_needs_a_defect_on_the_window(capsys, window,
                                                          cases):
    # the pinned witness alone is not enough: a window whose sweep finds no
    # rational defect has not shown the failure, so the suite exits 1
    code, out, _ = run(capsys, "check", "pullback-phi", "--window", window)
    assert code == 1
    assert f"tri-axiom-2: {cases} cases, 0 defects, pass" in out.splitlines()
    assert out.rstrip().endswith("expected failure found: NO")


# -- machine output determinism ----------------------------------------------------------


def test_machine_output_is_deterministic(capsys):
    argv = ("check", "module-t", "--mu", "2", "--window", "-1..1",
            "--output", "machine")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert first.count("\n") == len(first.splitlines())


def test_machine_records_are_compact_sorted_json(capsys):
    # every line, re-encoded by json.dumps outside the reports encoder
    for suite, extra in (("module-t", ()), ("module-t", ("--mu", "2")),
                         ("pullback-phi", ())):
        _, out, _ = run(capsys, "check", suite, *extra, "--window", "-1..1",
                        "--output", "machine")
        lines = out.splitlines()
        assert lines, (suite, extra)
        for line in lines:
            assert json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":")) == line


class _CountingSink(io.TextIOBase):
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("argv, lines", [
    (("check", "module-t", "--mu", "2", "--window", "-1..1"), 1296),
    (("check", "module-t", "--mu", "1", "--window", "-1..1"), 0),
    (("check", "fi", "--window", "-1..1"), 0),
], ids=["module-t-mu2", "module-t-mu1", "fi"])
def test_a_machine_stream_is_written_in_bounded_batches(argv, lines):
    # whole lines, at most one batch per write, so a long stream is never
    # one joined string; a clean report prints nothing at all
    sink = _CountingSink()
    with redirect_stdout(sink):
        code = main([*argv, "--output", "machine"])
    assert code == (1 if lines else 0)
    counts = [text.count("\n") for text in sink.writes]
    assert sum(counts) == lines
    assert all(text.endswith("\n") for text in sink.writes)
    assert all(n <= cli._MACHINE_BATCH for n in counts)
    # full batches but the last: 1,296 lines take 21 writes of 64
    assert len(sink.writes) == -(-lines // cli._MACHINE_BATCH)


def test_orbit_machine_output(capsys):
    code, out, _ = run(capsys, "orbit", "T", "--lambda", "1/2", "--mu", "0",
                       "--start", "a0", "--output", "machine")
    assert code == 0
    record = json.loads(out)
    assert record["classification"] == "transitive-on-window"
    assert record["start"] == "v[a0]"
    assert record["missed"] == []


# -- orbit and weights text -----------------------------------------------------------------


def test_orbit_trivial_line(capsys):
    code, out, _ = run(capsys, "orbit", "T", "--lambda", "0", "--mu", "0",
                       "--start", "0")
    assert code == 0
    assert "classification: trivial line" in out


def test_orbit_invariant(capsys):
    code, out, _ = run(capsys, "orbit", "T", "--lambda", "0", "--mu", "1",
                       "--start", "1")
    assert code == 0
    assert "classification: invariant: misses v[0]" in out


def test_orbit_transitive(capsys):
    code, out, _ = run(capsys, "orbit", "T", "--lambda", "1/2", "--mu", "0",
                       "--start", "a0")
    assert code == 0
    assert "classification: transitive on window" in out


def test_orbit_phi_one_way(capsys):
    code, out, _ = run(capsys, "orbit", "phi", "--start", "0")
    assert "classification: transitive on window" in out
    code, out, _ = run(capsys, "orbit", "phi", "--start", "1")
    assert "classification: invariant: misses v[0]" in out


def test_repeated_orbit_matches_cached_actions_by_identity(capsys,
                                                           monkeypatch):
    # the interned action makes every kernel cache hit an identity match;
    # an equal but distinct action compared 3,900 coefficients here.  The
    # cache starts empty: an entry left by an equal action that has since
    # left the bounded action memo is still matched by comparison.
    monkeypatch.setattr(repmod, "_tri_key_terms",
                        lru_cache(maxsize=repmod.KERNEL_CACHE_SIZE)(
                            repmod._tri_key_terms.__wrapped__))
    argv = ("orbit", "T", "--lambda", "1/2", "--mu", "0", "--start", "a0")
    first = run(capsys, *argv)
    compared = []
    scalar_eq = Scalar.__eq__

    def counted(self, other):
        compared.append(1)
        return scalar_eq(self, other)

    monkeypatch.setattr(Scalar, "__eq__", counted)
    assert run(capsys, *argv) == first
    assert len(compared) <= 4


def test_weights_symbolic(capsys):
    code, out, _ = run(capsys, "weights", "T", "--mu", "1")
    assert code == 0
    assert "v[a0]: weight lam + a0, multiplicity 1" in out
    assert "v[a0+3]: weight lam + a0 + 3, multiplicity 1" in out
    assert "distinct weights: 7 of 7" in out
    assert "all multiplicity one: yes" in out


def test_weights_zero_start(capsys):
    code, out, _ = run(capsys, "weights", "T", "--lambda", "0", "--mu", "0",
                       "--start", "0")
    assert code == 0
    assert "v[0]: weight 0, multiplicity 1" in out


# -- configuration errors ---------------------------------------------------------------------


@pytest.mark.parametrize("window", ["3..1", "0..99", "garbage", "1...3"])
def test_bad_window_is_config_error(capsys, window):
    code, _, err = run(capsys, "check", "fi", "--window", window)
    assert code == 2
    assert "error:" in err


def test_bad_mu_is_config_error(capsys):
    # decimals, exponents, underscores and a plus sign are outside [-]p[/q]
    for argv in (("check", "module-t", "--mu", "zebra", "--window", "-1..1"),
                 ("weights", "T", "--mu", "0.5"),
                 ("weights", "T", "--mu", "1e3"),
                 ("weights", "T", "--mu", "1_0"),
                 ("check", "module-t", "--mu", "+3", "--window", "0..0")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: bad --mu {argv[3]!r}: "
                       "expected a rational p/q or 'sym'\n")


@pytest.mark.parametrize("argv, flag, detail", [
    (("check", "fi", "--window", f"{'9' * 1500}..{'9' * 1500}"), "window",
     "integer literal longer than 1000 digits"),
    (("check", "fi", "--window", f"0..{'9' * 1500}"), "window",
     "integer literal longer than 1000 digits"),
    (("check", "fi", "--window", f"0..{'9' * 900}"), "window",
     "span exceeds 64"),
    (("check", "module-t", "--mu", "9" * 1500, "--window", "0..1"), "--mu",
     "integer literal longer than 1000 digits"),
    (("weights", "T", "--lambda", "-" + "9" * 1500), "--lambda",
     "integer literal longer than 1000 digits"),
    (("check", "fi", "--parallelism", "9" * 5000), "--parallelism",
     "integer literal longer than 1000 digits"),
    (("check", "fi", "--parallelism", "-" + "9" * 900), "--parallelism",
     "expected an integer >= 1"),
    (("check", "module-t", "--probes", ",".join(map(str, range(60))) + ",,",
      "--window", "0..0"), "--probes", "empty entry"),
    (("check", "module-t", "--probes", f"a0+{'9' * 900},a0+{'9' * 900}",
      "--window", "0..0"), "--probes",
     f"duplicate probe v[a0+{'9' * 77}\u2026]")])
def test_overlong_flag_values_are_cut_in_the_refusal(capsys, argv, flag,
                                                     detail):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    shown = argv[3][:80] + "\u2026"
    assert err == f"error: bad {flag} {shown!r}: {detail}\n"


_LONG = "x" * 5000
_SHOWN = repr(_LONG[:80] + "\u2026")


@pytest.mark.parametrize("argv, message", [
    pytest.param(("check", "fi", "--output", _LONG),
                 f"argument --output: invalid choice: {_SHOWN} "
                 "(choose from 'text', 'machine')", id="check-output"),
    pytest.param(("bracket", "L[1]", "L[2]", "M[3]", "--output", _LONG),
                 f"argument --output: invalid choice: {_SHOWN} "
                 "(choose from 'text', 'machine')", id="bracket-output"),
    pytest.param(("check", _LONG),
                 f"argument suite: invalid choice: {_SHOWN} (choose from "
                 "'fi', 'induced-psi', 'lie-phi', 'lie-psi', 'module-t', "
                 "'pullback-phi', 'table')", id="suite"),
    pytest.param(("orbit", _LONG),
                 f"argument family: invalid choice: {_SHOWN} "
                 "(choose from 'T', 'psi', 'phi')", id="family"),
    pytest.param((_LONG,),
                 f"argument command: invalid choice: {_SHOWN} (choose from "
                 "'bracket', 'check', 'decompose', 'orbit', 'weights')",
                 id="command"),
    pytest.param(("bracket", "L[1]", "L[2]", "M[3]", _LONG, "--bogus"),
                 f"unrecognized arguments: {_LONG[:80]}\u2026",
                 id="unrecognized"),
    pytest.param(("bracket", "L[1]", "L[2]", "M[3]", f"--oracle={_LONG}"),
                 f"argument --oracle: ignored explicit argument {_SHOWN}",
                 id="oracle"),
    pytest.param(("decompose", "ad(L[1],M[2])", f"--verify={_LONG}"),
                 f"argument --verify: ignored explicit argument {_SHOWN}",
                 id="verify"),
    pytest.param(("check", "fi", f"--p={_LONG}"),
                 f"ambiguous option: {f'--p={_LONG}'[:80]}\u2026 could match "
                 "--probes, --parallelism", id="ambiguous")])
def test_overlong_argparse_values_are_cut_in_the_refusal(capsys, argv,
                                                         message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, value", [
    ("1/2", Fraction(1, 2)), ("-7/3", Fraction(-7, 3)), ("2/4", Fraction(1, 2)),
    (" 0 ", Fraction(0)), ("sym", None), (None, None)])
def test_params_parse_as_before(text, value):
    got = cli._parse_param(text, "--lambda")
    assert got == value and type(got) is type(value)


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "bracket", "L[1", "L[2]", "M[3]")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    # index above the +/-2^40 cap, with a nonzero and a zero bracket
    ("bracket", "L[99999999999999]", "L[1]", "M[0]"),
    ("bracket", "L[99999999999999]", "L[1]", "L[0]"),
    # in-range inputs whose bracket index leaves the cap
    ("bracket", "L[1099511627776]", "L[1099511627775]", "M[-1099511627776]"),
    # exponent 2^16 from a one-term power
    ("bracket", "(mu^256)^256 L[1]", "L[1]", "M[3]"),
    # two points cannot decide action equality
    ("decompose", "ad(L[1],M[2])", "--verify", "--window", "0..1"),
    # window indices above the cap, for the Lie families' generators
    ("orbit", "psi", "--window", "99999999999999..99999999999999"),
    ("orbit", "phi", "--window", "99999999999999..99999999999999"),
    # argparse's own refusals
    ("check", "bogus"),
    ("check", "fi", "--window"),
    ("bracket", "L[1]"),
    ("check", "fi", "--bogus", "3"),
    ("orbit", "X"),
    ("check", "fi", "--window", "-1..1", "--parallelism", "x"),
    ("check", "fi", "--bo\ngus"),
    # literals over the 1,000-digit bound, refused before int() reads them
    ("bracket", f"L[{'9' * 5000}]", "L[2]", "M[3]"),
    ("orbit", "T", "--start", "9" * 5000),
    ("check", "fi", "--window", f"{'9' * 5000}..{'9' * 5000}"),
    ("check", "module-t", "--mu", "9" * 3000, "--window", "0..1",
     "--output", "machine"),
    # coefficients over the bound built from short literals
    ("bracket", "2^20000 L[1]", "L[2]", "M[3]"),
    ("bracket", "*".join(["9" * 1000] * 5) + " L[1]", "L[2]", "M[3]"),
    ("bracket", "1^100000000 L[1]", "L[2]", "M[3]"),
    ("bracket", f"1/{'9' * 999}7 L[1] + 1/{'9' * 999}1 L[4]", "L[3]", "M[0]"),
    # powers refused by their term count before any multiplication
    ("bracket", "(mu+1)^3000 L[1]", "L[2]", "M[3]"),
    ("bracket", "(lam+mu+a0+a1+1)^60 L[1]", "L[2]", "M[3]"),
    # products refused likewise: six 10-symbol factors (10^6 terms), and
    # three powers of 495 terms each that only the bracket multiplies
    ("bracket", "*".join("(" + "+".join(f"a{i}" for i in range(k, k + 10))
                         + ")" for k in range(0, 60, 10)) + " L[1]",
     "L[2]", "M[3]"),
    ("bracket", "(mu+lam+a0+a1+a2)^8 L[1]", "(a3+a4+a5+a6+a7)^8 L[2]",
     "(a8+a9+a10+a11+1)^8 M[3]"),
])
def test_library_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check", "fi", "--window", "1099511627774..1099511627776"),
    ("check", "fi", "--window", "1099511627774..1099511627776",
     "--parallelism", "2"),
    ("check", "table", "--window", "1099511627770..1099511627776"),
    ("check", "fi", "--window", "99999999999999..99999999999999"),
    ("check", "fi", "--window", "99999999999999..99999999999999",
     "--parallelism", "2"),
])
def test_index_cap_exits_2_through_the_sweeps(capsys, argv):
    # window keys above the cap, or in-range ones whose brackets or
    # generator actions leave it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: basis index ") and err.count("\n") == 1


# each sweep with the modules that look it up by name when ``check`` runs:
# the module verdict sweeps both axioms inside ``repmod``
_SWEEPS = {"check_fundamental": (cli,), "check_pqxz_table": (cli,),
           "check_tri_axiom1": (repmod,), "check_tri_axiom2": (cli, repmod),
           "check_lie_module": (cli,), "check_induced": (cli,)}


def _stub_sweeps(monkeypatch, sweep):
    for name, modules in _SWEEPS.items():
        for module in modules:
            monkeypatch.setattr(module, name, sweep)
    # a fresh gate cache, so no verdict built from stubs outlives the test
    monkeypatch.setattr(repmod, "_module_gate",
                        lru_cache(maxsize=64)(repmod._module_gate.__wrapped__))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)


def _no_pool(*args, **kwargs):
    pytest.fail("a worker pool was started")


def _no_sweep(*args, **kwargs):
    pytest.fail("a sweep was started")


@pytest.mark.parametrize("argv, cases", [
    pytest.param(("check", "fi", "--window", "-64..0"), "37,129,300,000",
                 id="fi"),
    pytest.param(("check", "fi", "--window", "-64..0", "--parallelism", "2"),
                 "37,129,300,000", id="fi-parallelism"),
    pytest.param(("check", "module-t", "--window", "-30..30"),
                 "2,658,401,472", id="module-t"),
    pytest.param(("check", "pullback-phi", "--window", "-32..32"),
                 "1,713,660,000", id="pullback-phi"),
])
def test_over_budget_grid_exits_2_before_any_sweep(capsys, monkeypatch,
                                                   argv, cases):
    _stub_sweeps(monkeypatch, _no_sweep)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: check {argv[1]} on window ")
    assert f"needs {cases} cases" in err
    assert f"{cli.CASE_BUDGET:,}" in err


@pytest.mark.parametrize("argv", [
    ("check", "fi", "--window", "-3..3"),
    ("check", "fi", "--window", "-3..3", "--parallelism", "2"),
    ("check", "fi"),
    ("check", "table", "--window", "-8..8"),
    ("check", "table"),
    ("check", "module-t", "--output", "machine"),
    ("check", "module-t", "--mu", "2", "--output", "machine"),
    ("check", "pullback-phi"),
    ("check", "induced-psi", "--mu", "1"),
    ("check", "lie-psi"),
    ("check", "lie-phi"),
])
def test_default_and_benchmark_windows_are_within_budget(capsys, monkeypatch,
                                                         argv):
    ran = []

    def empty(*args, **kwargs):
        ran.append(1)
        return DefectReport("stub", 0)

    _stub_sweeps(monkeypatch, empty)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1)
    assert err == ""
    assert ran


# --probes only for the suites that read it; the others refuse the flag
_FORMULA_CASES = [
    pytest.param(suite, window, points, probes, count,
                 id=f"{probes}-{count}-{window}-{points}-{suite}")
    for suite, (_, _, reads) in sorted(cli._SUITES.items())
    for window, points in (("-1..1", 3), ("-2..2", 5))
    for probes, count in ((None, 6), ("0,a0,1/2", 3))
    if probes is None or "probes" in reads]


@pytest.mark.parametrize("suite, window, points, probes, count",
                         _FORMULA_CASES)
def test_suite_case_formula_matches_the_sweep(capsys, suite, window, points,
                                              probes, count):
    argv = ["check", suite, "--window", window]
    if probes is not None:
        argv += ["--probes", probes]
    if suite == "induced-psi":
        argv += ["--mu", "1"]
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    printed = re.findall(r"^[\w-]+: (\d+) cases, ", out, re.M)
    assert [int(n) for n in printed] == [cli._SUITES[suite][1](points, count)]


@pytest.mark.parametrize("argv, unused", [
    (("check", "lie-phi", "--lambda", "5", "--window", "-1..1"), "--lambda"),
    (("check", "fi", "--probes", "0,a0", "--mu", "7", "--window", "-1..1"),
     "--mu, --probes"),
    (("check", "table", "--lambda", "3"), "--lambda"),
    (("check", "table", "--probes", "0", "--window", "-1..1"), "--probes"),
    (("check", "module-t", "--parallelism", "2", "--window", "-1..1"),
     "--parallelism"),
    (("check", "pullback-phi", "--lambda", "sym"), "--lambda"),
    (("check", "induced-psi", "--mu", "1", "--parallelism", "2"),
     "--parallelism"),
    (("orbit", "phi", "--lambda", "5", "--start", "1"), "--lambda"),
], ids=["lie-phi-lambda", "fi-mu-probes", "table-lambda", "table-probes",
        "module-t-parallelism", "pullback-phi-lambda",
        "induced-psi-parallelism", "orbit-lambda"])
def test_flags_a_suite_ignores_exit_2(capsys, monkeypatch, argv, unused):
    _stub_sweeps(monkeypatch, _no_sweep)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[0]} {argv[1]} does not use {unused}\n"


@pytest.mark.parametrize("window", ["0..0", "-1..1"])
@pytest.mark.parametrize("mu", ["sym", "0", "1", "2", "1/2"])
def test_module_t_exits_with_the_library_verdict(capsys, mu, window):
    lo, hi = (int(end) for end in window.rsplit("..", 1))
    action = repmod.weight_action(None, None if mu == "sym" else Fraction(mu))
    _, accepted = repmod._module_verdict(action, range(lo, hi + 1))
    assert accepted == (mu in ("sym", "0", "1"))
    code, _, _ = run(capsys, "check", "module-t", "--mu", mu,
                     "--window", window)
    assert code == (0 if accepted else 1)


def test_module_t_leaves_the_gate_cache_alone(capsys):
    before = repmod._module_gate.cache_info()
    run(capsys, "check", "module-t", "--mu", "1", "--window", "-1..0")
    after = repmod._module_gate.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "check", "nonsense")
    assert code == 2


def test_bad_parallelism_is_config_error(capsys):
    # the grammar of every other number flag: no underscores, no plus sign,
    # no decimals and only ASCII digits; and no auto mode, so 0 is refused
    for text in ("1_0", "+2", "0.5", "1e3", "\u0661", "", "x", "-3", "0"):
        code, out, err = run(capsys, "check", "fi", "--window", "0..0",
                             "--parallelism", text)
        assert (code, out) == (2, "")
        assert err == (f"error: bad --parallelism {text!r}: "
                       "expected an integer >= 1\n")


def test_negative_parallelism_is_config_error(capsys):
    code, _, err = run(capsys, "check", "fi", "--window", "-1..1",
                       "--parallelism", "-3")
    assert code == 2


def test_probes_flag(capsys):
    code, out, _ = run(capsys, "check", "module-t", "--mu", "2",
                       "--window", "-1..1", "--probes", "a0,0")
    assert code == 1
    assert "probe v[a0]" in out


def test_bad_probe_is_config_error(capsys):
    code, _, err = run(capsys, "check", "module-t", "--window", "-1..1",
                       "--probes", "v0")
    assert code == 2


@pytest.mark.parametrize("probes, key", [("a0,a0", "a0"), ("1,2/2", "1"),
                                         ("0,a1-1, a1 - 1", "a1-1")])
def test_repeated_probe_is_refused(capsys, probes, key):
    # probes are compared after normalization: 2/2 is the line v[1]
    code, out, err = run(capsys, "check", "module-t", "--window", "0..1",
                         "--probes", probes)
    assert (code, out) == (2, "")
    assert err == (f"error: bad --probes {probes!r}: "
                   f"duplicate probe v[{key}]\n")


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader closes the pipe before the program writes, so the first
    # write (or main's own flush) meets a broken pipe
    src = os.path.dirname(os.path.dirname(nambu3.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["bracket", "L[1]", "L[2]", "M[3]"],
                 ["check", "module-t", "--probes", "0,a0,1/2",
                  "--window", "0..1"],
                 ["--help"], ["check", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "nambu3", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == (b"error: stdout was closed before the output "
                               b"was written\n")


def test_out_of_memory_exits_2_with_one_error_line():
    # an address-space limit on the child alone: the interpreter starts in
    # about half of it, and the -5..5 sweep (about 94 MB resident without
    # the limit) exhausts it before the first stdout byte
    src = os.path.dirname(os.path.dirname(nambu3.__file__))
    limit = 40_000 * 1024

    def lower_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "nambu3", "check", "module-t",
         "--window=-5..5", "--output", "machine"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lower_limit, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: out of memory\n"


def test_import_loads_no_process_pool_or_dataclasses():
    # a fresh interpreter without site, so only nambu3.cli's imports count
    src = os.path.dirname(os.path.dirname(nambu3.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, nambu3.cli; print(' '.join(sys.modules))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "nambu3.cli" in loaded
    assert loaded.isdisjoint({"concurrent.futures", "multiprocessing",
                              "dataclasses", "inspect"})


# -- one parser per process -------------------------------------------------------


def test_parser_is_built_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert run(capsys, "check", "fi", "--window", "-1..1")[0] == 0
    assert run(capsys, "bracket", "L[1]", "L[2]", "M[3]")[0] == 0
    assert run(capsys, "check", "nonsense")[0] == 2
    assert run(capsys, "weights", "T")[0] == 0
    assert built == [1]


def test_consecutive_calls_share_no_state(capsys):
    code, out, _ = run(capsys, "check", "fi", "--window", "-1..1",
                       "--output", "machine")
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "check", "fi")
    assert code == 0
    assert "window: -2..2" in out
    code, out, _ = run(capsys, "bracket", "L[1]", "L[2]", "M[3]", "--oracle")
    assert "oracle:" in out
    code, out, _ = run(capsys, "bracket", "L[1]", "L[2]", "M[3]")
    assert (code, out) == (0, "L[0]\n")


def test_subcommands_resolve_at_call_time(capsys, monkeypatch):
    # the cached parser must not pin the cmd_* functions it was built with
    main(["bracket", "L[1]", "L[2]", "M[3]"])
    monkeypatch.setattr(cli, "cmd_bracket", lambda args: 7)
    assert main(["bracket", "L[1]", "L[2]", "M[3]"]) == 7


# -- the exit contract under random argv ------------------------------------------

_FUZZ_VALUES = st.one_of(
    # windows of at most three points, some reversed
    st.builds("{}..{}".format, st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda w: int(w.rsplit("..", 1)[1]) - int(w.split("..")[0]) <= 2),
    st.sampled_from([
        "", "0", "1", "-1", "2", "1/2", "-7/3", "1/0", "sym", "a0", "a0+1",
        "a1-2", "0,a0", "0.5", "1e3", "1_0", "+3", "2^3", "mu^2", "2^20000",
        "1^100000000", "(mu+1)^3", "L[1]", "2 L[1] - M[0]", "ad(L[1],M[2])",
        "p[3]", "L[1", "x", "-", "--", "1..", "..1", "machine", "text",
        "9" * 5000, "9" * 5000 + ".." + "9" * 5000, f"L[{'9' * 5000}]",
        "*".join(["9" * 1000] * 5), "a\nb"]),
    st.text(alphabet="0123456789-+./^()[]aLMmu ,", max_size=8))
_FUZZ_FLAGS = st.sampled_from([
    "--window", "--lambda", "--mu", "--probes", "--start", "--output",
    "--oracle", "--verify", "--bogus", "-x", "--help"])


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(
        ["bracket", "check", "decompose", "orbit", "weights", "bogus"]))
    argv = [command]
    if command == "check":
        argv.append(draw(st.sampled_from(sorted(cli._SUITES) + ["bogus"])))
    elif command in ("orbit", "weights"):
        argv.append(draw(st.sampled_from(["T", "psi", "phi", "X"])))
    argv += draw(st.lists(_FUZZ_VALUES, max_size=3 if command == "bracket"
                          else 1))
    for _ in range(draw(st.integers(0, 3))):
        flag, value = draw(_FUZZ_FLAGS), draw(_FUZZ_VALUES)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        # never more than one worker: no process pool starts
        argv += ["--parallelism", draw(st.sampled_from(["1", "-1", "x", ""]))]
    return argv


# induced-psi gates every new parameter pair on the default axiom window,
# about half a second each, hence few examples and no deadline
@given(_fuzz_argv())
@settings(max_examples=60, deadline=None)
def test_random_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
