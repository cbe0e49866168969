"""Defect reports: class records, their expansion and the machine stream.

A report keeps one record per defect class, with one defect vector, and
expands it only for output, where each ordering's sign is applied.
``DefectReport.machine_lines`` is a stream sized by the defect count that
sorts the case orderings once and joins each line, as it is read, from
pieces encoded once; ``json_line(e.record())`` per entry of the
expanded, sorted ``entries`` is the reference route it must match byte for
byte, and ``text_lines`` must show the first 20 of those entries.
"""
from itertools import chain
from operator import attrgetter

import pytest

import nambu3.algebra as algebra
import nambu3.derivations as derivations
import nambu3.repmod as repmod
from nambu3.derivations import P, PqxzElem, pqxz_key_bracket
from nambu3.linear import LinComb
from nambu3.reports import (DefectEntry, DefectReport, json_line,
                            signed_orderings, sweep_report)
from nambu3.repmod import (DEFAULT_AXIOM_WINDOW, ModVec, _module_verdict,
                           check_lie_module, check_tri_axiom2,
                           pullback_candidate, shift_action, weight_action,
                           weight_key, zero_twist_action)


def _reference_text(report: DefectReport) -> list:
    entries = report.entries
    verdict = "fail" if entries else "pass"
    lines = [f"{report.label}: {report.cases} cases, {len(entries)} defects, "
             f"{verdict}"] + ["  " + e.line() for e in entries[:20]]
    if len(entries) > 20:
        lines.append(f"  ... and {len(entries) - 20} more defects")
    return lines


def _expanded(report: DefectReport) -> list:
    # each class at each of its orderings, in class order, sorted stably
    entries = [DefectEntry(c.axiom,
                           tuple(chain.from_iterable(c.case[i] for i in perm)),
                           c.defect if sign > 0 else -c.defect, c.probe,
                           c.family, c.parameters)
               for c in report.classes for perm, sign in c.orderings]
    return sorted(entries, key=attrgetter("axiom", "indices", "probe"))


def _assert_matches_reference(report: DefectReport) -> list:
    assert report.entries == _expanded(report)
    stream = report.machine_lines()
    assert len(stream) == report.defect_count
    lines = list(stream)
    assert lines == [json_line(e.record()) for e in report.entries]
    assert report.text_lines() == _reference_text(report)
    assert report.passed == (not report.entries)
    return lines


@pytest.mark.parametrize("mu", [None, 2], ids=["sym", "mu2"])
def test_module_t_stream_matches_the_reference_route(mu):
    report, _ = _module_verdict(weight_action(None, mu), DEFAULT_AXIOM_WINDOW,
                                label="module-t")
    assert len(_assert_matches_reference(report)) == 14400


def test_pullback_phi_stream_matches_the_reference_route():
    report = check_tri_axiom2(pullback_candidate(zero_twist_action()))
    assert _assert_matches_reference(report)
    # every entry tied with its copy, which follows it
    twice = _assert_matches_reference(report.merged_with(report, "twice"))
    assert twice[::2] == twice[1::2] == list(report.machine_lines())


def test_skewed_lie_psi_stream_matches_the_reference_route(monkeypatch):
    # one table entry off by p[1]: [p[0], p[1]] = 0 instead of -p[1]
    def skewed(k1, k2):
        out = pqxz_key_bracket(k1, k2)
        return out + PqxzElem.term(P(1)) if (k1, k2) == (P(0), P(1)) else out

    monkeypatch.setattr(derivations, "pqxz_key_bracket", skewed)
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
    vec, identity = ModVec.term(weight_key(0)) * 2, signed_orderings(1, 1)
    first = sweep_report(
        "one", 4, [((("L", 1), ("M", 0)), weight_key(0), vec),
                   ((("M", 0), ("L", 1)), None, vec)],
        axiom="tri-axiom-2", family="T", parameters=(("lam", "1"),),
        orderings=identity)
    second = sweep_report(
        "two", 4, [((("L", 1), ("M", 0)), weight_key(0), vec)],
        axiom="tri-axiom-1", family="T",
        parameters=(("lam", "2"), ("mu", "0")), orderings=identity)
    # the same axiom, family and probe as the first half, other parameters
    third = sweep_report(
        "three", 4, [((("L", 1), ("M", 0)), weight_key(0), vec)],
        axiom="tri-axiom-2", family="T", parameters=(("lam", "3"),),
        orderings=identity)
    merged = first.merged_with(second, "both").merged_with(third, "all")
    lines = _assert_matches_reference(merged)
    assert merged.entries == sorted(
        merged.entries, key=lambda e: (e.axiom, e.indices, e.probe))
    assert [e.axiom for e in merged.entries] == [
        "tri-axiom-1", "tri-axiom-2", "tri-axiom-2", "tri-axiom-2"]
    assert len(set(lines)) == 4


def _counted_str(monkeypatch) -> list:
    # the ids of the combinations LinComb.__str__ formats from now on
    calls = []
    plain = LinComb.__str__

    def counted(self):
        calls.append(id(self))
        return plain(self)

    monkeypatch.setattr(LinComb, "__str__", counted)
    return calls


def test_each_defect_vector_is_formatted_once(monkeypatch):
    # each class vector once, and each negated text once: 278 distinct
    # texts among the class vectors, every one also read at sign -1
    report, _ = _module_verdict(weight_action(), DEFAULT_AXIOM_WINDOW,
                                label="module-t")
    vectors = len({id(c.defect) for c in report.classes})
    assert (report.defect_count, vectors) == (14400, 2400)
    texts = len({str(c.defect) for c in report.classes})
    assert texts == 278
    calls = _counted_str(monkeypatch)
    list(report.machine_lines())
    assert len(calls) == vectors + texts


def test_machine_stream_formats_only_what_is_read(monkeypatch):
    # sized without expanding a class, and the first line formats one
    # vector: nothing else is formatted ahead of the reader
    report, _ = _module_verdict(weight_action(), DEFAULT_AXIOM_WINDOW,
                                label="module-t")
    calls = _counted_str(monkeypatch)
    stream = report.machine_lines()
    assert len(stream) == 14400 and calls == []
    next(iter(stream))
    assert len(calls) == 1


def test_merging_class_reports_sorts_as_merging_their_entries():
    # two class reports of one axiom whose entries interleave
    first = check_tri_axiom2(weight_action(None, 2), range(-1, 2))
    second = check_tri_axiom2(pullback_candidate(zero_twist_action()),
                              range(-1, 2))
    merged = first.merged_with(second, "both")
    assert merged.classes == first.classes + second.classes
    want = DefectReport("both", first.cases + second.cases,
                        first.entries + second.entries)
    assert merged.entries != first.entries + second.entries
    assert ([e.record() for e in merged.entries]
            == [e.record() for e in want.entries])
    assert merged == want
    assert (_assert_matches_reference(merged)
            == list(want.machine_lines()))


# the signed orderings as they were written out by hand
_FI_LITERAL = tuple(
    (p12 + p345, s12 * s345) for p12, s12 in (((0, 1), 1), ((1, 0), -1))
    for p345, s345 in (((2, 3, 4), 1), ((3, 4, 2), 1), ((4, 2, 3), 1),
                       ((3, 2, 4), -1), ((2, 4, 3), -1), ((4, 3, 2), -1)))
_AXIOM1_LITERAL = (((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1),
                   ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1))
_AXIOM2_LITERAL = (((0, 1, 2, 3), 1), ((1, 2, 0, 3), 1), ((2, 0, 1, 3), 1),
                   ((1, 0, 2, 3), -1), ((0, 2, 1, 3), -1), ((2, 1, 0, 3), -1))


@pytest.mark.parametrize("module, name, literal", [
    (algebra, "_FI_ORDERINGS", _FI_LITERAL),
    (repmod, "_AXIOM1_ORDERINGS", _AXIOM1_LITERAL),
    (repmod, "_AXIOM2_ORDERINGS", _AXIOM2_LITERAL),
], ids=["fi", "axiom1", "axiom2"])
def test_derived_orderings_are_the_hand_written_tables(module, name,
                                                       literal):
    derived = getattr(module, name)
    assert len(derived) == len(set(derived)) == len(literal)
    assert set(derived) == set(literal)
    identity = tuple(range(len(literal[0][0])))
    assert derived[0] == literal[0] == (identity, 1)


def test_signed_orderings_sign_is_the_parity():
    # S4 as one block: 12 even and 12 odd orderings, transpositions odd
    table = signed_orderings(4)
    assert len(table) == 24 and sum(sign for _, sign in table) == 0
    assert dict(table)[(1, 0, 2, 3)] == dict(table)[(0, 1, 3, 2)] == -1
    assert dict(table)[(1, 2, 3, 0)] == -1 and dict(table)[(1, 0, 3, 2)] == 1
    assert signed_orderings(1, 1) == (((0, 1), 1),)
