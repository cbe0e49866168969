"""Inner derivations: expansion, decomposition, and the commutator table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu3.algebra import (AlgElem, BasisKey, L, M, basis_elem, bracket,
                            window_keys)
from nambu3.derivations import (P, Q, X, Z, DerivExpr, ad, ad_apply,
                                check_pqxz_table, deriv_equal, deriv_to_pqxz,
                                pair_to_pqxz, pqxz_apply, pqxz_bracket,
                                pqxz_elem_apply, pqxz_key_apply,
                                pqxz_key_bracket, pqxz_to_deriv,
                                window_generators)
from nambu3.errors import WindowTooSmall
from nambu3.linear import accumulate
from nambu3.reports import sweep_report

E = basis_elem

all_keys = [L(i) for i in range(-3, 4)] + [M(i) for i in range(-3, 4)]
key_st = st.sampled_from(all_keys)
idx = st.integers(-3, 3)


# -- pair derivations ---------------------------------------------------------


def test_ad_apply_pinned():
    assert ad_apply(ad(L(2), M(2)), E(L(5))) == E(L(5)) * -3
    assert ad_apply(ad(L(3), L(1)), E(M(2))) == E(L(2)) * -2
    assert ad_apply(ad(L(0), M(0)), E(L(4))) == E(L(4)) * -4
    assert ad_apply(ad(L(0), M(0)), E(M(4))) == E(M(4)) * 4


def test_ad_is_antisymmetric_and_kills_diagonal():
    assert ad(L(1), L(1)).is_zero
    assert ad(M(2), L(1)) == -ad(L(1), M(2))


@given(key_st, key_st, key_st)
@settings(max_examples=100)
def test_ad_matches_bracket(u, v, w):
    assert ad_apply(ad(u, v), E(w)) == bracket(E(u), E(v), E(w))


@given(key_st, key_st, key_st, key_st, key_st)
@settings(max_examples=80)
def test_inner_derivations_are_bracket_derivations(u, v, a, b, c):
    d = ad(u, v)
    lhs = ad_apply(d, bracket(E(a), E(b), E(c)))
    rhs = (bracket(ad_apply(d, E(a)), E(b), E(c))
           + bracket(E(a), ad_apply(d, E(b)), E(c))
           + bracket(E(a), E(b), ad_apply(d, E(c))))
    assert lhs == rhs


# -- generator expansion and closed-form action ---------------------------------


@given(st.sampled_from("pqxz"), idx, key_st)
@settings(max_examples=200)
def test_closed_form_matches_expansion(fam, r, probe):
    gen = {"p": P, "q": Q, "x": X, "z": Z}[fam](r)
    via_table = pqxz_apply(gen, E(probe))
    via_expansion = ad_apply(pqxz_to_deriv(gen), E(probe))
    assert via_table == via_expansion


def test_generator_actions_pinned():
    # p shifts L up and M down, weighted by the half-index offset
    assert pqxz_key_apply(P(2), L(3)) == (Fraction(-2), L(5))
    assert pqxz_key_apply(P(2), M(3)) == (Fraction(4), M(1))
    assert pqxz_key_apply(P(4), L(2)) is None
    assert pqxz_key_apply(Q(1), L(0)) == (Fraction(-1), L(1))
    assert pqxz_key_apply(Q(1), M(0)) == (Fraction(1), M(-1))
    assert pqxz_key_apply(X(2), L(5)) is None
    assert pqxz_key_apply(X(2), M(5)) == (Fraction(-1), L(-3))
    assert pqxz_key_apply(Z(2), L(5)) == (Fraction(-1), M(-7))
    assert pqxz_key_apply(Z(2), M(5)) is None


# -- decomposition ---------------------------------------------------------------


def test_decompose_pinned():
    assert str(deriv_to_pqxz(ad(L(3), L(1)))) == "2 x[4]"
    assert str(deriv_to_pqxz(ad(L(0), M(0)))) == "p[0]"
    assert str(deriv_to_pqxz(ad(M(1), M(2)))) == "-1 z[-3]"
    assert str(deriv_to_pqxz(ad(L(2), M(2)))) == "p[0] - 2 q[0]"
    assert str(deriv_to_pqxz(ad(L(2), M(1)))) == "p[1] - 3/2 q[1]"


def test_equal_index_pair_decomposes_through_q0():
    # same-index pairs hit the q[0] special case for every index
    for r in range(-3, 4):
        coords = deriv_to_pqxz(ad(L(r), M(r)))
        assert coords.coeff(P(0)) == 1
        assert coords.coeff(Q(0)) == -r
        assert deriv_equal(ad(L(r), M(r)), pqxz_to_deriv(coords))


@given(key_st, key_st)
@settings(max_examples=150)
def test_decomposition_round_trip_is_action_equal(u, v):
    d = ad(u, v)
    back = pqxz_to_deriv(deriv_to_pqxz(d))
    assert deriv_equal(d, back)


@given(key_st, key_st)
@settings(max_examples=60)
def test_pair_to_pqxz_matches_deriv_to_pqxz(u, v):
    assert pair_to_pqxz(u, v) == deriv_to_pqxz(ad(u, v))


def test_decompose_rejects_symbolic_coefficients():
    from nambu3.scalar import LAMBDA, Scalar

    d = ad(L(1), M(0)) * Scalar(LAMBDA)
    with pytest.raises(ValueError):
        deriv_to_pqxz(d)


def test_kernel_relation_decomposes_to_zero():
    rel = ad(L(2), M(1)) - ad(L(1), M(0)) * 2 + ad(L(0), M(-1))
    assert deriv_to_pqxz(rel).is_zero
    assert deriv_equal(rel, DerivExpr.zero())


# -- generator bracket table -------------------------------------------------------


def test_bracket_table_pinned():
    assert str(pqxz_key_bracket(P(1), P(2))) == "-1 p[3]"
    assert str(pqxz_key_bracket(P(2), Q(3))) == "-3 q[5]"
    assert str(pqxz_key_bracket(P(2), X(3))) == "-3 x[5]"
    assert str(pqxz_key_bracket(P(2), Z(3))) == "-3 z[5]"
    assert str(pqxz_key_bracket(Q(1), X(2))) == "-2 x[3]"
    assert str(pqxz_key_bracket(Q(1), Z(2))) == "2 z[3]"
    assert str(pqxz_key_bracket(Z(1), X(2))) == "q[3]"
    assert str(pqxz_key_bracket(X(1), Z(2))) == "-1 q[3]"
    assert pqxz_key_bracket(Q(1), Q(2)).is_zero
    assert pqxz_key_bracket(X(1), X(2)).is_zero
    assert pqxz_key_bracket(Z(1), Z(2)).is_zero


@given(st.sampled_from("pqxz"), idx, st.sampled_from("pqxz"), idx)
@settings(max_examples=60)
def test_table_bracket_is_antisymmetric(f1, r, f2, s):
    g1 = {"p": P, "q": Q, "x": X, "z": Z}[f1](r)
    g2 = {"p": P, "q": Q, "x": X, "z": Z}[f2](s)
    assert pqxz_key_bracket(g1, g2) == -pqxz_key_bracket(g2, g1)


def test_table_check_passes():
    report = check_pqxz_table(range(-3, 4))
    assert report.passed
    assert report.cases == 28 * 28 * 14


def test_table_check_detects_injected_fault():
    def corrupted(k1, k2):
        table = pqxz_key_bracket(k1, k2)
        if k1.family == "q" and k2.family == "x":
            return table * -1
        if k1.family == "x" and k2.family == "q":
            return table * -1
        return table

    report = check_pqxz_table(range(-2, 3), key_bracket=corrupted)
    assert not report.passed
    assert all(e.axiom == "generator-commutator" for e in report.entries)
    assert any(e.indices[0] == "q" and e.indices[2] == "x"
               for e in report.entries)


def test_generator_action_coefficients_are_int_unless_halved():
    for r in range(-4, 5):
        for gen in (P(r), Q(r), X(r), Z(r)):
            for t in range(-4, 5):
                for probe in (L(t), M(t)):
                    hit = pqxz_key_apply(gen, probe)
                    if hit is None:
                        continue
                    coeff = hit[0]
                    if gen.family == "p" and r % 2:
                        assert type(coeff) is Fraction
                        assert coeff.denominator == 2
                    else:
                        assert type(coeff) is int


def test_wide_table_check_and_injected_fault():
    report = check_pqxz_table(range(-8, 9))
    assert report.passed
    assert report.cases == 68 * 68 * 34 == 157216

    def skewed(k1, k2):
        out = pqxz_key_bracket(k1, k2)
        if (k1.family, k2.family) == ("q", "x"):
            return -out
        return out

    caught = check_pqxz_table(range(-8, 9), key_bracket=skewed)
    assert not caught.passed
    assert {e.indices[0] + e.indices[2] for e in caught.entries} == {"qx"}


def _counting(calls: list):
    def key_apply(k, b):
        calls.append((k, b))
        return pqxz_key_apply(k, b)

    return key_apply


def test_table_check_applies_each_generator_once_per_key():
    calls, reference = [], []
    report = check_pqxz_table(range(-2, 3), key_apply=_counting(calls))
    assert report.passed
    assert calls and len(calls) == len(set(calls))
    # and to exactly the keys evaluating each case on its own reaches
    _reference_table_records(range(-2, 3), _counting(reference))
    assert set(calls) == set(reference)


def _reference_table_records(window, key_apply,
                             key_bracket=pqxz_key_bracket) -> list:
    # reference route: each case on its own, with no shared rows
    gens = window_generators(window)
    found = []
    for ka in gens:
        for kb in gens:
            for probe in window_keys(window):
                acc: dict = {}
                hit = key_apply(kb, probe)
                if hit is not None:
                    back = key_apply(ka, hit[1])
                    if back is not None:
                        accumulate(acc, back[1], hit[0] * back[0])
                hit = key_apply(ka, probe)
                if hit is not None:
                    back = key_apply(kb, hit[1])
                    if back is not None:
                        accumulate(acc, back[1], -hit[0] * back[0])
                for kt, ct in key_bracket(ka, kb).items():
                    hit = key_apply(kt, probe)
                    if hit is not None:
                        accumulate(acc, hit[1], -ct * hit[0])
                if acc:
                    found.append(((ka, kb, probe), None,
                                  AlgElem(list(acc.items()))))
    report = sweep_report("generator-commutator-table",
                          len(gens) ** 2 * 2 * len(window), found,
                          axiom="generator-commutator", family="derivations")
    return [e.record() for e in report.entries]


def _randomly_skewed_action(seed):
    # a seeded corruption of the generator action at some families, probe
    # kinds and index residues: a shifted image or a spurious one
    rng = random.Random(seed)
    picked = {(f, kind, r) for f in "pqxz" for kind in "LM" for r in range(3)
              if rng.random() < 0.2}

    def key_apply(k, b):
        hit = pqxz_key_apply(k, b)
        if (k.family, b.kind, (k.index - b.index) % 3) not in picked:
            return hit
        if hit is None:
            return 1, b
        c, key = hit
        return c, BasisKey(key.kind, key.index + 1)

    return key_apply


@pytest.mark.parametrize("window", [range(-1, 2), range(-2, 3)])
def test_table_sweep_matches_reference_route(window):
    key_apply = _randomly_skewed_action(3)
    expected = _reference_table_records(window, key_apply)
    assert expected
    report = check_pqxz_table(window, key_apply=key_apply)
    assert [e.record() for e in report.entries] == expected


def test_elem_bracket_is_bilinear():
    a = pqxz_key_bracket(P(1), P(0))  # p[1]
    combo = deriv_to_pqxz(ad(L(2), M(2)))  # p[0] - 2 q[0]
    got = pqxz_bracket(combo, a)
    expected = (pqxz_key_bracket(P(0), P(1))
                + pqxz_key_bracket(Q(0), P(1)) * -2)
    assert got == expected


# -- action equality ------------------------------------------------------------


def test_deriv_equal_distinguishes():
    assert not deriv_equal(ad(L(1), M(0)), ad(L(0), M(-1)))
    assert deriv_equal(ad(L(1), M(0)), ad(L(1), M(0)))


def test_deriv_equal_needs_three_points():
    with pytest.raises(WindowTooSmall):
        deriv_equal(ad(L(1), M(0)), ad(L(1), M(0)), window=(0, 1))


def test_pqxz_elem_apply_is_linear():
    combo = deriv_to_pqxz(ad(L(2), M(0)))
    probe = E(L(1)) + E(M(-2)) * 3
    got = pqxz_elem_apply(combo, probe)
    assert got == ad_apply(ad(L(2), M(0)), probe)
