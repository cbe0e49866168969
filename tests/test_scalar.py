"""Polynomial scalar ring: arithmetic laws, division, formatting."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nambu3.errors import ExponentOverflow, ZeroDivisor
from nambu3.scalar import (EXPONENT_LIMIT, LAMBDA, MONO_MEMO_SIZE, MU,
                           Indeterminate, Scalar, _mono_mul, divides,
                           exact_quotient, weight_tag)

lam = Scalar(LAMBDA)
mu = Scalar(MU)
a0 = Scalar(weight_tag(0))


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=8)


@st.composite
def scalars(draw):
    gens = [Scalar(1), lam, mu, a0]
    acc = Scalar(draw(rationals()))
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(gens))
        c = draw(rationals())
        op = draw(st.sampled_from(["add", "mul"]))
        acc = acc + g * c if op == "add" else acc * (g + c)
    return acc


@given(scalars(), scalars(), scalars())
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == Scalar(0)
    assert a * 0 == Scalar(0)


@given(scalars(), scalars(), rationals(), rationals(), rationals())
@settings(max_examples=60)
def test_substitution_is_a_homomorphism(a, b, vl, vm, va):
    env = {"lam": vl, "mu": vm, "a0": va}
    assert (a + b).substitute(env) == a.substitute(env) + b.substitute(env)
    assert (a * b).substitute(env) == a.substitute(env) * b.substitute(env)


@given(scalars(), scalars())
@settings(max_examples=60)
def test_exact_quotient_round_trip(a, d):
    if d.is_zero:
        with pytest.raises(ZeroDivisor):
            exact_quotient(a, d)
        return
    q = exact_quotient(a * d, d)
    assert q is not None
    assert q * d == a * d
    assert divides(d, a * d)


def test_divides_negative_case():
    assert not divides(mu, lam)
    assert not divides(mu * mu - mu, mu + 1)
    assert divides(mu * mu - mu, (mu * mu - mu) * (lam + 3))
    assert divides(Scalar(2), Scalar(4))
    assert not divides(lam, Scalar(1))


def test_zero_is_divisible_by_anything_nonzero():
    assert divides(lam + 1, Scalar(0))
    assert exact_quotient(Scalar(0), mu) == Scalar(0)


def test_rational_helpers():
    s = Scalar(Fraction(3, 2))
    assert s.is_rational
    assert s.as_rational == Fraction(3, 2)
    assert not (lam + 1).is_rational
    with pytest.raises(ValueError):
        (lam + 1).as_rational


def test_substitute_partial_and_validation():
    s = lam + mu * 2
    assert s.substitute({"lam": 1, "mu": Fraction(1, 2)}) == Scalar(2)
    with pytest.raises(ValueError):
        s.substitute({"bogus": 1})


def test_power():
    assert (mu + 1) ** 0 == Scalar(1)
    assert (mu + 1) ** 2 == mu * mu + mu * 2 + 1
    with pytest.raises(ValueError):
        (mu + 1) ** -1
    # a one-term base is raised directly, not by 65,535 products
    assert Scalar(1) ** (EXPONENT_LIMIT - 1) == Scalar(1)
    assert Scalar(-1) ** (EXPONENT_LIMIT - 1) == Scalar(-1)
    assert str(mu ** (EXPONENT_LIMIT - 1)) == f"mu^{EXPONENT_LIMIT - 1}"
    cube = lam * lam * lam * mu * mu * mu * Fraction(-8, 27)
    assert (lam * mu * Fraction(-2, 3)) ** 3 == cube


@given(scalars(), st.integers(0, 9))
@settings(max_examples=40)
def test_power_matches_repeated_products(s, exp):
    acc = Scalar(1)
    for _ in range(exp):
        acc = acc * s
    assert s ** exp == acc


def test_exponent_overflow_guard():
    big = mu ** 60000
    with pytest.raises(ExponentOverflow):
        big * (mu ** 60000)
    with pytest.raises(ExponentOverflow):
        (mu ** 256) ** 256
    # a multi-term power is refused before its first product
    with pytest.raises(ExponentOverflow, match="exponent 90000 of mu"):
        (mu ** 30000 + lam) ** 3


def test_monomial_memo_keeps_products_exact():
    _mono_mul.cache_clear()
    assert (mu ** 3) * (mu ** 2) == mu ** 5
    assert _mono_mul.cache_info().currsize > 0
    assert (mu ** 3) * (mu ** 2) == mu ** 5
    assert _mono_mul.cache_info().hits > 0


def test_monomial_memo_never_caches_an_overflow():
    top = Scalar._make({(("mu", EXPONENT_LIMIT - 1),): 1})
    _mono_mul.cache_clear()
    with pytest.raises(ExponentOverflow):
        top * mu
    # warm the memo with other products of both operands, then overflow again
    assert top * Scalar(1) == top
    assert mu * mu == Scalar._make({(("mu", 2),): 1})
    with pytest.raises(ExponentOverflow):
        top * mu
    # only the two products that passed the exponent check are cached
    assert _mono_mul.cache_info().currsize == 2


def test_monomial_memo_is_bounded():
    _mono_mul.cache_clear()
    tags = [Scalar(weight_tag(k)) for k in range(200)]
    for a in tags:
        for b in tags[:30]:
            assert (a * b) * mu == a * (b * mu)
    info = _mono_mul.cache_info()
    assert info.maxsize == MONO_MEMO_SIZE
    assert info.misses > MONO_MEMO_SIZE
    assert info.currsize == MONO_MEMO_SIZE


def test_indeterminate_names():
    with pytest.raises(ValueError):
        Indeterminate("q7")
    with pytest.raises(ValueError):
        Indeterminate("a01")
    assert weight_tag(3).name == "a3"
    assert not LAMBDA.is_weight_tag
    assert weight_tag(0).is_weight_tag


def test_str_descending_graded_lex():
    assert str(mu * (-4) + 16) == "-4*mu + 16"
    assert str(lam + mu * 2 + a0) == "lam + 2*mu + a0"
    assert str(mu * mu - mu) == "mu^2 - mu"
    assert str(Scalar(0)) == "0"
    assert str(Scalar(Fraction(-1, 2))) == "-1/2"
    assert str(lam * mu - 1) == "lam*mu - 1"
    assert str((lam + 1) * (lam - 1)) == "lam^2 - 1"


def test_equality_coercion_and_hash():
    assert Scalar(2) == 2
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert lam == LAMBDA
    assert lam != mu
    assert hash(lam + 1) == hash(Scalar(LAMBDA) + 1)


def test_scalars_and_symbols_survive_pickling_and_copying():
    for value in (Scalar(0), Scalar(Fraction(-2, 3)),
                  lam * mu - a0 * Fraction(1, 3), LAMBDA, weight_tag(3)):
        for out in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                    copy.deepcopy(value)):
            assert type(out) is type(value)
            assert out == value and hash(out) == hash(value)
            assert str(out) == str(value)


def test_an_unpickled_symbol_hashes_as_this_process_does():
    # pickled by a process with its own string hash seed: the hash a
    # symbol stores is made again, not carried over
    code = ("import pickle, sys\n"
            "from nambu3.scalar import LAMBDA, Scalar\n"
            "out = pickle.dumps((LAMBDA, Scalar(LAMBDA) + 1))\n"
            "sys.stdout.buffer.write(out)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True).stdout
    symbol, poly = pickle.loads(out)
    assert hash(symbol) == hash(LAMBDA)
    assert {LAMBDA: 1}[symbol] == 1
    assert hash(poly) == hash(lam + 1) and poly == lam + 1


# -- coefficient representation ------------------------------------------------


def _coeff_types(s):
    return {type(c) for c in s._terms.values()}


@given(st.lists(st.tuples(st.sampled_from(["add", "mul"]), st.integers(0, 3),
                          st.integers(-30, 30)), max_size=5))
@settings(max_examples=60)
def test_int_built_scalar_equals_fraction_built(program):
    gens = [Scalar(1), lam, mu, a0]
    by_int, by_frac = Scalar(1), Scalar(Fraction(1))
    for op, g, c in program:
        if op == "add":
            by_int = by_int + gens[g] * c
            by_frac = by_frac + gens[g] * Fraction(c)
        else:
            by_int = by_int * (gens[g] + c)
            by_frac = by_frac * (gens[g] + Fraction(c))
    assert by_int == by_frac
    assert hash(by_int) == hash(by_frac)
    assert str(by_int) == str(by_frac)
    assert _coeff_types(by_frac) <= {int}


@given(scalars(), scalars())
@settings(max_examples=60)
def test_coefficients_are_canonical_and_never_float(a, d):
    values = [a, d, a + d, a - d, a * d, a.substitute({"mu": Fraction(1, 3)})]
    if not d.is_zero:
        values.append(exact_quotient(a * d, d))
    for s in values:
        for c in s._terms.values():
            assert type(c) in (int, Fraction)
            assert type(c) is int or c.denominator != 1


def test_symbols_and_quotients_keep_exact_coefficients():
    assert _coeff_types(lam + mu) == {int}
    assert exact_quotient(mu, mu * 2) == Scalar(Fraction(1, 2))
    assert _coeff_types(exact_quotient(mu * 4, mu * 2)) == {int}
    assert type(Scalar(3).as_rational) is Fraction
