"""Input grammar round trips and rejection diagnostics."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nambu3.algebra import AlgElem, L, M, basis_elem
from nambu3.derivations import P, Q, X, Z, ad, deriv_to_pqxz, pqxz_to_deriv
from nambu3.errors import ExponentOverflow, ParseError
from nambu3.parsing import (MAX_LITERAL_DIGITS, MAX_TERMS, _power_terms,
                            parse_deriv, parse_elem, parse_int,
                            parse_rational, parse_scalar, parse_weight_key,
                            product_terms)
from nambu3.repmod import weight_key
from nambu3.scalar import LAMBDA, MU, Scalar, weight_tag


def test_parse_elem_basics():
    assert parse_elem("L[3]") == basis_elem(L(3))
    assert parse_elem("M[-2]") == basis_elem(M(-2))
    assert parse_elem("0") == AlgElem.zero()
    assert parse_elem("2 L[1] - M[0]") == (basis_elem(L(1)) * 2
                                           - basis_elem(M(0)))
    assert parse_elem("-L[1]") == -basis_elem(L(1))


def test_parse_elem_scalar_coefficients():
    lam = Scalar(LAMBDA)
    got = parse_elem("(lam + 1) L[0]")
    assert got == basis_elem(L(0)) * (lam + 1)
    assert parse_elem("3/2 M[4]") == basis_elem(M(4)) * Fraction(3, 2)
    assert parse_elem("lam L[2]") == basis_elem(L(2)) * lam


def test_parse_elem_round_trip():
    for text in ("L[0]", "3 M[6]", "-1 M[-3]", "L[1] - 2 M[2]",
                 "(lam + 1) L[0]", "lam L[0]", "0"):
        assert str(parse_elem(text)) == text


@given(st.lists(st.tuples(st.sampled_from("LM"),
                          st.integers(-9, 9),
                          st.integers(-5, 5).filter(bool)),
                min_size=1, max_size=4))
def test_parse_elem_round_trips_random_elements(parts):
    e = AlgElem.zero()
    for kind, idx, coeff in parts:
        key = L(idx) if kind == "L" else M(idx)
        e = e + basis_elem(key) * coeff
    assert parse_elem(str(e)) == e


def test_parse_scalar():
    lam, mu = Scalar(LAMBDA), Scalar(MU)
    assert parse_scalar("mu^2 - mu") == mu * mu - mu
    assert parse_scalar("-4*mu + 16") == mu * -4 + 16
    assert parse_scalar("lam + 2*mu + a0") == lam + mu * 2 + Scalar(weight_tag(0))
    assert parse_scalar("3/4") == Scalar(Fraction(3, 4))
    assert parse_scalar("(lam + 1)*(lam - 1)") == lam * lam - 1
    assert parse_scalar("2^10") == Scalar(1024)


def test_parse_scalar_round_trip():
    lam, mu = Scalar(LAMBDA), Scalar(MU)
    for s in (mu * mu - mu, lam + mu * 2 + Scalar(weight_tag(0)),
              Scalar(Fraction(-3, 2)), lam * lam * lam - lam * 6 + 1):
        assert parse_scalar(str(s)) == s


def test_parse_deriv():
    assert parse_deriv("ad(L[1],L[2])") == ad(L(1), L(2))
    assert parse_deriv("ad(L[0],M[0]) - ad(L[1],M[1])") == (
        ad(L(0), M(0)) - ad(L(1), M(1)))
    assert parse_deriv("2 ad(M[1],M[2])") == ad(M(1), M(2)) * 2
    assert parse_deriv("-1/2 ad(L[1],M[0])") == ad(L(1), M(0)) * Fraction(-1, 2)


def test_parse_deriv_accepts_generator_names():
    from nambu3.derivations import PqxzElem

    assert deriv_to_pqxz(parse_deriv("p[3]")) == PqxzElem.term(P(3))
    assert deriv_to_pqxz(parse_deriv("q[0]")) == PqxzElem.term(Q(0))
    assert deriv_to_pqxz(parse_deriv("x[-2] + 2 z[1]")) == (
        PqxzElem.term(X(-2)) + PqxzElem.term(Z(1)) * 2)
    assert parse_deriv("p[1]") == pqxz_to_deriv(P(1))


def test_parse_deriv_round_trip():
    # negative unit coefficients keep their magnitude, as in "-1 z[-3]"
    for text in ("ad(L[1],L[2])", "ad(L[0],M[0]) - 1 ad(L[1],M[1])",
                 "2 ad(M[1],M[2])", "-1 ad(L[2],M[0])"):
        assert str(parse_deriv(text)) == text


def test_parse_weight_key():
    assert parse_weight_key("a0") == weight_key("a0")
    assert parse_weight_key("a0+2") == weight_key("a0", 2)
    assert parse_weight_key("a0-3") == weight_key("a0", -3)
    assert parse_weight_key("-3/2") == weight_key(Fraction(-3, 2))
    assert parse_weight_key("4") == weight_key(4)
    assert parse_weight_key("a7") == weight_key("a7")


def test_parse_weight_key_round_trip():
    for key in (weight_key("a0", 2), weight_key("a0", -1),
                weight_key(Fraction(-3, 2)), weight_key(0)):
        assert parse_weight_key(str(key)) == key


def test_parse_error_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_elem("L[1] +")
    assert exc.value.pos == 6
    with pytest.raises(ParseError) as exc:
        parse_elem("K[1]")
    assert "K" in str(exc.value)
    assert exc.value.pos == 0


def test_parse_error_trailing_input():
    with pytest.raises(ParseError) as exc:
        parse_elem("L[1] L[2]")
    assert exc.value.pos == 5


def test_parse_error_bad_exponent():
    with pytest.raises(ParseError):
        parse_scalar("mu^mu")
    with pytest.raises(ParseError):
        parse_scalar("mu^-1")
    # exponents stop at the 16-bit bound monomials have
    assert parse_scalar("mu^65535") == Scalar(MU) ** 65535
    with pytest.raises(ParseError, match="exponent 65536 exceeds") as exc:
        parse_scalar("1^65536")
    assert exc.value.pos == 2


def test_power_term_bound_is_checked_before_multiplying():
    assert _power_terms(parse_scalar("mu + 1"), 999) == MAX_TERMS
    assert _power_terms(parse_scalar("mu^2 + 1"), 10) == 11
    assert _power_terms(parse_scalar("lam + mu + 1"), 43) == 990
    assert len(parse_scalar("(lam + mu + 1)^43")) == 990
    for text in ("(mu+1)^3000", "(lam+mu+a0+a1+1)^60", "(mu + lam)^65535",
                 "2*(1 + (mu+1)^1000)"):
        with pytest.raises(ParseError, match="power with more than 1000 "
                                             "terms") as exc:
            parse_scalar(text)
        assert text[exc.value.pos] == "("
    # one-term and constant bases build one term, whatever the exponent
    with pytest.raises(ExponentOverflow):
        parse_scalar("(mu^256)^256")
    assert parse_scalar("(2*mu)^3") == parse_scalar("8*mu^3")
    assert parse_scalar("0^0") == Scalar(1)


def _symbol_sum(lo, hi):
    return "(" + "+".join(f"a{i}" for i in range(lo, hi)) + ")"


def test_product_term_bound_is_checked_before_multiplying():
    ten = parse_scalar(_symbol_sum(0, 10))
    assert product_terms([ten], [ten], [ten]) == 1000
    # a symbol's degrees add up, so (mu+1)*(mu+1) has at most 3 terms
    one = parse_scalar("mu + 1")
    assert product_terms([one], [one]) == 3
    # one factor from each group: the longest, and the top degree per symbol
    assert product_terms([one, parse_scalar("mu^5")], [ten]) == 20
    assert product_terms([], [one]) == 0
    assert len(parse_scalar("*".join(_symbol_sum(k, k + 10)
                                     for k in (0, 10, 20)))) == 1000
    text = "2*" + "*".join(_symbol_sum(k, k + 10) for k in range(0, 60, 10))
    with pytest.raises(ParseError, match="product with more than 1000 "
                                         "terms") as exc:
        parse_scalar(text)
    assert exc.value.pos == 0
    # the position is that of the term's first factor
    with pytest.raises(ParseError, match="product with more than 1000 "
                                         "terms") as exc:
        parse_scalar("lam + (mu+1)^30 * (a0+1)^30 * (a1+1)^2")
    assert exc.value.pos == 6
    # the bound reads the running product: 961 terms, then 61 by degree
    assert len(parse_scalar("(mu+1)^30 * (a0+1)^30")) == 961
    assert len(parse_scalar("(mu+1)^30 * (mu+2)^30 * (a0+1)^2")) == 183


def test_parse_error_zero_denominator():
    with pytest.raises(ParseError):
        parse_scalar("1/0")


def test_parse_error_unknown_symbol():
    with pytest.raises(ParseError):
        parse_scalar("theta + 1")
    with pytest.raises(ParseError):
        parse_elem("L[a]")


def test_parse_error_unbalanced():
    with pytest.raises(ParseError):
        parse_deriv("ad(L[1],L[2]")
    with pytest.raises(ParseError):
        parse_scalar("(lam + 1")


def test_parse_error_index_outside_cap():
    assert parse_elem("L[1099511627776]") == basis_elem(L(1 << 40))
    for text, parse in (("L[-1099511627777]", parse_elem),
                        ("ad(L[1],M[99999999999999])", parse_deriv),
                        ("p[1099511627777]", parse_deriv)):
        with pytest.raises(ParseError, match="outside"):
            parse(text)


def test_whitespace_is_insignificant():
    assert parse_elem("  L[ 1 ]  +  2  M[ -2 ]  ") == (
        basis_elem(L(1)) + basis_elem(M(-2)) * 2)
    assert parse_deriv(" ad( L[1] , M[0] ) ") == ad(L(1), M(0))


def test_parse_int_and_rational():
    assert parse_int("-12") == -12
    assert parse_int(" 7 ") == 7
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert type(parse_rational("3")) is Fraction
    for text in ("", "-", "1.5", "1e3", "1_0", "+1", "--1", "a0"):
        with pytest.raises(ParseError):
            parse_int(text)
        with pytest.raises(ParseError):
            parse_rational(text)
    with pytest.raises(ParseError, match="zero denominator at position 2"):
        parse_rational("1/0")


def test_digits_are_ascii():
    # other Unicode decimal digits (Arabic-Indic, fullwidth) are refused
    for text in ("\u0661", "1\u0660", "\uff11"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_int(text)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_elem("L[\u0661]")


def test_every_sum_takes_one_optional_sign():
    assert parse_scalar("+mu - 1") == parse_scalar("mu - 1")
    assert parse_scalar("-mu^2") == -(Scalar(MU) * Scalar(MU))
    assert parse_elem("+L[1] - M[0]") == parse_elem("L[1] - M[0]")
    assert parse_deriv("+ad(L[1],M[0])") == ad(L(1), M(0))
    assert parse_deriv("-ad(L[1],M[0]) + 2 p[1]") == (
        parse_deriv("2 p[1]") - ad(L(1), M(0)))
    for text, parse in (("--L[1]", parse_elem), ("L[1] + + L[2]", parse_elem),
                        ("+-ad(L[1],M[0])", parse_deriv)):
        with pytest.raises(ParseError):
            parse(text)


def test_literal_bound_is_checked_before_int():
    edge = "9" * MAX_LITERAL_DIGITS
    assert parse_int(edge) == 10 ** MAX_LITERAL_DIGITS - 1
    assert parse_rational(f"-{edge}/{edge[1:]}7") == Fraction(
        -int(edge), int(edge[1:] + "7"))
    # 5,000 digits would raise ValueError inside int() itself
    long = "9" * 5000
    for text, parse, pos in ((long, parse_int, 0), (f"1/{long}", parse_scalar, 2),
                             (f"L[-{long}]", parse_elem, 3),
                             (f"a0+{long}", parse_weight_key, 3),
                             (f"mu^{long}", parse_scalar, 3),
                             (f"({long}) p[1]", parse_deriv, 1)):
        with pytest.raises(ParseError, match="integer literal longer") as exc:
            parse(text)
        assert exc.value.pos == pos


def test_coefficient_bound_over_a_common_denominator():
    edge = "9" * MAX_LITERAL_DIGITS
    assert parse_scalar(f"{edge}/{edge[1:]}7 * mu")
    assert parse_scalar("(1/2)^3000")
    assert parse_elem(f"{edge} L[1] + {edge} M[2]")
    for text, parse in (("2^20000", parse_scalar),
                        ("(mu + 2)^4000", parse_scalar),
                        ("(2*mu + 1)^4000", parse_scalar),
                        ("(1/2)^3400", parse_scalar),
                        (f"{edge} * {edge}", parse_scalar),
                        (f"({edge} + 1) L[1]", parse_elem),
                        (f"1/{edge} L[1] + 1/{edge[1:]}7 L[2]", parse_elem),
                        (f"1/{edge} p[1]", parse_deriv)):
        with pytest.raises(ParseError, match="coefficients longer"):
            parse(text)
