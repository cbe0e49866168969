"""Linear combinations: the trusted constructor, the one linear extension
``extend`` with ``combine`` built on it, and the coefficient text memo."""

import copy
import pickle
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu3.algebra import AlgElem, L, M, assoc_mul, bracket, bracket_det
from nambu3.derivations import (P, Q, X, Z, DerivExpr, PqxzElem, ad_apply,
                                pqxz_apply, pqxz_bracket, pqxz_elem_apply,
                                pqxz_to_deriv)
from nambu3.linear import COEFF_TEXT_MEMO_SIZE, _coeff_text, extend
from nambu3.repmod import (ModVec, lie_apply, lie_elem_apply,
                           pullback_candidate, shift_action, tri_apply,
                           tri_apply_elem, weight_action, weight_key,
                           zero_twist_action)
from nambu3.scalar import LAMBDA, MU, Scalar, weight_tag

_SYMBOLS = (Scalar(LAMBDA), Scalar(MU), Scalar(weight_tag(0)),
            Scalar(weight_tag(3)))


def _reference_str(vec) -> str:
    # the formatter as it stood before the text memo, kept as the oracle
    if not vec._terms:
        return "0"
    parts = []
    for i, (key, c) in enumerate(vec.items()):
        kstr = vec._format_key(key)
        if c.is_rational:
            q = c.as_rational
            neg = q < 0
            mag = -q if neg else q
            body = kstr if (mag == 1 and not neg) else f"{mag} {kstr}"
        elif len(c) == 1:
            ((mono, q),) = c._terms.items()
            neg = q < 0
            mag = Scalar._make({mono: -q if neg else q})
            body = f"{mag} {kstr}"
        else:
            neg = False
            body = f"({c}) {kstr}"
        if i == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)


_rationals = st.sampled_from([1, -1, 2, -3]) | st.fractions(
    min_value=-9, max_value=9, max_denominator=4)


@st.composite
def _monomials(draw):
    mono = Scalar(1)
    for sym in draw(st.lists(st.sampled_from(_SYMBOLS), max_size=3)):
        mono = mono * sym
    return mono


@st.composite
def _scalars(draw):
    """Rational, one-term and multi-term coefficients alike."""
    acc = Scalar(0)
    for _ in range(draw(st.integers(1, 3))):
        acc = acc + draw(_monomials()) * draw(_rationals)
    return acc


@st.composite
def _vectors(draw):
    keys = draw(st.lists(st.sampled_from(
        [weight_key(m) for m in (-2, 0, 1)]
        + [weight_key(Fraction(1, 3)), weight_key("a0", -1),
           weight_key("a1")]), unique=True, max_size=4))
    return ModVec({key: draw(_scalars()) for key in keys})


@given(_vectors())
@settings(max_examples=200)
def test_format_matches_the_reference(vec):
    assert str(vec) == _reference_str(vec)
    # a second pass reads the memo
    assert str(vec) == _reference_str(vec)
    assert str(-vec) == _reference_str(-vec)


def test_format_of_each_coefficient_shape():
    a0 = Scalar(weight_tag(0))
    mu = Scalar(MU)
    key = weight_key(0)
    cases = {1: "v[0]", -1: "-1 v[0]", Fraction(-3, 2): "-3/2 v[0]",
             mu * -2: "-2*mu v[0]", a0 * mu: "mu*a0 v[0]",
             mu - mu * mu: "(-mu^2 + mu) v[0]"}
    for coeff, text in cases.items():
        assert str(ModVec.term(key, coeff)) == text


def test_coefficient_text_memo_is_bounded():
    _coeff_text.cache_clear()
    a0 = Scalar(weight_tag(0))
    for k in range(COEFF_TEXT_MEMO_SIZE + 50):
        vec = ModVec.term(weight_key(0), a0 + k)
        assert str(vec) == (f"(a0 + {k}) v[0]" if k else "a0 v[0]")
    info = _coeff_text.cache_info()
    assert info.maxsize == COEFF_TEXT_MEMO_SIZE
    assert info.misses == COEFF_TEXT_MEMO_SIZE + 50
    assert info.currsize == COEFF_TEXT_MEMO_SIZE


def test_trusted_constructor_keeps_the_dict_and_the_type():
    terms = {L(1): Scalar(2), M(0): Scalar(-1)}
    elem = AlgElem._of(terms)
    assert type(elem) is AlgElem and elem._terms is terms
    assert elem == AlgElem(terms)
    # the arithmetic that builds through it keeps the concrete type
    for out in (elem + elem, elem - elem, -elem, elem * 3, 2 * elem):
        assert type(out) is AlgElem
    assert (elem - elem).is_zero and (elem * 0).is_zero
    assert -elem == AlgElem({L(1): -2, M(0): 1})


def test_combinations_survive_pickling_and_copying():
    a0 = weight_key("a0")
    for value in (AlgElem({L(1): Scalar(LAMBDA), M(-2): 3}), AlgElem(),
                  ModVec({a0: Scalar(MU) - 1, a0.shift(2): Fraction(1, 2)}),
                  PqxzElem({P(1): 2, Z(0): Scalar(LAMBDA)}),
                  pqxz_to_deriv(X(1))):
        for out in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                    copy.deepcopy(value)):
            assert type(out) is type(value)
            assert out == value and str(out) == str(value)


def test_constructor_accepts_any_mapping():
    terms = {L(1): 2, M(0): Scalar(MU)}
    assert AlgElem(types.MappingProxyType(terms)) == AlgElem(terms)
    assert AlgElem(types.MappingProxyType({L(1): 0})).is_zero


# -- kernels that build their results through ``_of`` ------------------------

# few keys and few coefficients that cancel, so merges drop keys
_BASIS = st.sampled_from([k(r) for k in (L, M) for r in range(-1, 3)])
_GENERATORS = st.sampled_from([g(r) for g in (P, Q, X, Z)
                               for r in range(-2, 3)])
_CANCELLING = st.sampled_from([Scalar(1), Scalar(-1), Scalar(2),
                               Scalar(-2), Scalar(LAMBDA), -Scalar(LAMBDA),
                               Scalar(Fraction(1, 2))])
_TRI_ACTIONS = st.sampled_from([
    weight_action(), weight_action(Fraction(1, 2), 0), weight_action(1, 1),
    pullback_candidate(shift_action()),
    pullback_candidate(zero_twist_action(2))])
_LIE_ACTIONS = st.sampled_from([shift_action(), shift_action(1, 0),
                                zero_twist_action(), zero_twist_action(2)])


def _elems():
    return st.dictionaries(_BASIS, _CANCELLING, min_size=1,
                           max_size=5).map(AlgElem)


def _derivs():
    pairs = st.tuples(_BASIS, _BASIS).filter(lambda p: p[0] < p[1])
    return st.dictionaries(pairs, _CANCELLING, max_size=3).map(DerivExpr)


def _module_vectors():
    keys = st.sampled_from([weight_key(m) for m in range(-3, 4)]
                           + [weight_key("a0", m) for m in (-1, 0, 2)])
    return st.dictionaries(keys, _CANCELLING, max_size=4).map(ModVec)


def _generator_elems():
    return st.dictionaries(_GENERATORS, _CANCELLING, max_size=3).map(PqxzElem)


_KERNELS = {
    "assoc_mul": lambda d: assoc_mul(d.draw(_elems()), d.draw(_elems())),
    "bracket": lambda d: bracket(d.draw(_elems()), d.draw(_elems()),
                                 d.draw(_elems())),
    "ad_apply": lambda d: ad_apply(d.draw(_derivs()), d.draw(_elems())),
    "pqxz_apply": lambda d: pqxz_apply(d.draw(_GENERATORS),
                                       d.draw(_elems())),
    "tri_apply": lambda d: tri_apply(d.draw(_TRI_ACTIONS), d.draw(_BASIS),
                                     d.draw(_BASIS),
                                     d.draw(_module_vectors())),
    "lie_apply": lambda d: lie_apply(d.draw(_LIE_ACTIONS),
                                     d.draw(_GENERATORS),
                                     d.draw(_module_vectors())),
    "bracket_det": lambda d: bracket_det(d.draw(_elems()), d.draw(_elems()),
                                         d.draw(_elems())),
    "pqxz_to_deriv": lambda d: pqxz_to_deriv(d.draw(_generator_elems())),
    "pqxz_elem_apply": lambda d: pqxz_elem_apply(d.draw(_generator_elems()),
                                                 d.draw(_elems())),
    "pqxz_bracket": lambda d: pqxz_bracket(d.draw(_generator_elems()),
                                           d.draw(_generator_elems())),
    "tri_apply_elem": lambda d: tri_apply_elem(
        d.draw(_TRI_ACTIONS), d.draw(_elems()), d.draw(_elems()),
        d.draw(_module_vectors())),
    "lie_elem_apply": lambda d: lie_elem_apply(
        d.draw(_LIE_ACTIONS), d.draw(_generator_elems()),
        d.draw(_module_vectors())),
    "scale": lambda d: d.draw(_module_vectors()) * d.draw(_CANCELLING),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_results_are_normalized(kernel, data):
    out = _KERNELS[kernel](data)
    # what the checking constructor would have built from the same terms
    assert out == type(out)(dict(out._terms))
    for key, c in out._terms.items():
        assert isinstance(c, Scalar) and not c.is_zero
        type(out)._check_key(key)


# -- combine against the term-by-term sum it replaced ------------------------

# every coefficient type a piece may carry, zero among them
_WEIGHTS = _CANCELLING | st.sampled_from(
    [0, Scalar(0), 1, -1, Fraction(-1, 2), LAMBDA, MU])


def _sum_by_parts(cls, pieces):
    # the route combine replaced, kept as the oracle: rebuild the running sum
    # once per scaled piece
    out = cls.zero()
    for piece, c in pieces:
        out = out + piece * c
    return out


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_combine_matches_the_sum_by_parts(data):
    cls, vectors = data.draw(st.sampled_from(
        [(AlgElem, _elems()), (ModVec, _module_vectors())]))
    pieces = data.draw(st.lists(st.tuples(vectors, _WEIGHTS), max_size=5))
    # a negated copy of some of the pieces, so whole pieces cancel
    undo = data.draw(st.integers(0, len(pieces)))
    everything = undo == len(pieces)
    pieces += [(v, -Scalar.coerce(c)) for v, c in pieces[:undo]]
    got = cls.combine(pieces)
    want = _sum_by_parts(cls, pieces)
    assert type(got) is cls
    assert got == want
    # the same keys in the same order, so any unsorted walk sees no change
    assert list(got._terms) == list(want._terms)
    for c in got._terms.values():
        assert isinstance(c, Scalar) and not c.is_zero
    if everything:
        assert got.is_zero


# -- extend, the one linear extension of a kernel ----------------------------


def test_extend_of_no_pieces_is_empty():
    assert extend([]) == {}


def test_extend_drops_the_keys_that_cancel():
    v0, v1 = weight_key(0), weight_key(1)
    got = extend([(((v0, Scalar(2)), (v1, Scalar(LAMBDA))), 1),
                  (((v0, Scalar(1)),), -2)])
    assert got == {v1: Scalar(LAMBDA)}


def test_extend_returns_a_new_dict():
    terms = {weight_key(0): Scalar(3)}
    got = extend([(terms.items(), 1)])
    assert got == terms and got is not terms
    got[weight_key(1)] = Scalar(1)
    assert terms == {weight_key(0): Scalar(3)}


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_extend_matches_combine(data):
    pieces = data.draw(st.lists(st.tuples(_module_vectors(), _WEIGHTS),
                                max_size=5))
    got = ModVec._of(extend((v._terms.items(), c) for v, c in pieces))
    assert got == ModVec.combine(pieces) == _sum_by_parts(ModVec, pieces)
