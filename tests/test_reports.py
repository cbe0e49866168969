"""The machine stream of a defect report.

``DefectReport.machine_lines`` encodes each shared value once and joins the
lines from those pieces; ``json_line(e.record())`` per entry is the
reference route it must match byte for byte.
"""
import pytest

import nambu3.repmod as repmod
from nambu3.derivations import P, PqxzElem, pqxz_key_bracket
from nambu3.linear import LinComb
from nambu3.reports import DefectEntry, DefectReport, json_line, sweep_report
from nambu3.repmod import (DEFAULT_AXIOM_WINDOW, ModVec, _module_verdict,
                           check_lie_module, check_tri_axiom2,
                           pullback_candidate, shift_action, weight_action,
                           weight_key, zero_twist_action)


def _assert_matches_reference(report: DefectReport) -> list:
    lines = report.machine_lines()
    assert type(lines) is list
    assert lines == [json_line(e.record()) for e in report.entries]
    return lines


@pytest.mark.parametrize("mu", [None, 2], ids=["sym", "mu2"])
def test_module_t_stream_matches_the_reference_route(mu):
    report, _ = _module_verdict(weight_action(None, mu), DEFAULT_AXIOM_WINDOW,
                                label="module-t")
    assert len(_assert_matches_reference(report)) == 14400


def test_pullback_phi_stream_matches_the_reference_route():
    report = check_tri_axiom2(pullback_candidate(zero_twist_action()))
    assert _assert_matches_reference(report)


def test_skewed_lie_psi_stream_matches_the_reference_route(monkeypatch):
    # one table entry off by p[1]: [p[1], p[0]] = 2 p[1] instead of p[1]
    def skewed(k1, k2):
        out = pqxz_key_bracket(k1, k2)
        return out + PqxzElem.term(P(1)) if (k1, k2) == (P(1), P(0)) else out

    monkeypatch.setattr(repmod, "pqxz_key_bracket", skewed)
    report = check_lie_module(shift_action(), range(-2, 3))
    assert _assert_matches_reference(report)


def test_empty_report_has_an_empty_stream():
    assert _assert_matches_reference(DefectReport("empty", 0)) == []


def test_escaped_fields_match_the_reference_route():
    # quotes, backslashes and non-ASCII text in every string field, and
    # one defect vector shared by entries with different contexts
    vec = ModVec.term(weight_key(-1)) * 3 - ModVec.term(weight_key("a0"))
    params = (("lam", 'say "\\hi\\"'), ("mu", "µé"))
    entries = [
        DefectEntry("ax", ("L", 0, "M", -1), vec, 'v["\\ü"]',
                    'fam "\\ ψ', params),
        DefectEntry("ax", ("L", 0, "M", -1), vec, "", 'fam "\\ ψ',
                    params),
        DefectEntry("ax", ("L", 0, "M", -1), vec, 'v["\\ü"]', "other",
                    params),
        DefectEntry("bx", ("L", 0, "M", -1), vec, 'v["\\ü"]',
                    'fam "\\ ψ', params),
        DefectEntry('a"x\\', ("p", "ä"), 'text "\\ æ', "v[0]",
                    "", ()),
    ]
    lines = _assert_matches_reference(DefectReport("escapes", 5, entries))
    assert len(set(lines)) == 5


def test_merged_halves_with_other_axiom_and_parameters():
    vec = ModVec.term(weight_key(0)) * 2
    first = sweep_report(
        "one", 4, [((("L", 1), ("M", 0)), weight_key(0), vec),
                   ((("M", 0), ("L", 1)), None, vec)],
        axiom="tri-axiom-2", family="T", parameters=(("lam", "1"),))
    second = sweep_report(
        "two", 4, [((("L", 1), ("M", 0)), weight_key(0), vec)],
        axiom="tri-axiom-1", family="T",
        parameters=(("lam", "2"), ("mu", "0")))
    # the same axiom, family and probe as the first half, other parameters
    third = sweep_report(
        "three", 4, [((("L", 1), ("M", 0)), weight_key(0), vec)],
        axiom="tri-axiom-2", family="T", parameters=(("lam", "3"),))
    merged = first.merged_with(second, "both").merged_with(third, "all")
    lines = _assert_matches_reference(merged)
    assert merged.entries == sorted(
        merged.entries, key=lambda e: (e.axiom, e.indices, e.probe))
    assert [e.axiom for e in merged.entries] == [
        "tri-axiom-1", "tri-axiom-2", "tri-axiom-2", "tri-axiom-2"]
    assert len(set(lines)) == 4


def test_each_defect_vector_is_formatted_once(monkeypatch):
    report, _ = _module_verdict(weight_action(), DEFAULT_AXIOM_WINDOW,
                                label="module-t")
    vectors = len({id(e.defect) for e in report.entries})
    assert (len(report.entries), vectors) == (14400, 4800)
    calls = []
    plain = LinComb.__str__

    def counted(self):
        calls.append(id(self))
        return plain(self)

    monkeypatch.setattr(LinComb, "__str__", counted)
    report.machine_lines()
    assert len(calls) == vectors
