"""Exact scalar coefficients: rationals and sparse polynomials in named symbols.

Every coefficient in the package is a Scalar: a finitely supported map from
monomials to rationals with no zero entries stored, so structural equality is
mathematical equality.  Integral coefficients are stored as ``int`` and only
those with a denominator as ``Fraction`` (``_q`` normalizes each coefficient
as it is made), so integer arithmetic skips Fraction's gcd-normalizing
constructor.  Every sum of terms goes through ``_add_term``, which normalizes
it and drops a zero.  ``3 == Fraction(3)`` with equal hash and ``str``, so
equality, hashing and formatting are those of an all-Fraction store.
Monomials are tuples of (symbol, exponent) pairs kept in a fixed symbol
order, and terms are ranked graded-lexicographically (total degree first,
then the symbol order).  That single canonical order drives formatting,
hashing, and leading-term division.

Symbols are restricted to the two reserved parameters ``lam`` and ``mu`` plus
the weight tags ``a0``, ``a1``, ...; a symbol, like a module action, is a
``Frozen`` value, hashed once.  Exponents are capped at 16 bits; blowing the
cap is a hard error rather than silent wraparound.  Monomial products are
memoized in a bounded LRU cache, since the module checks multiply under
twenty distinct monomial pairs tens of thousands of times.  Only a product
that passed the exponent check is ever cached.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

from .errors import ExponentOverflow, ZeroDivisor

EXPONENT_LIMIT = 1 << 16

# bound of the monomial product memo
MONO_MEMO_SIZE = 4096

_NAME_RE = re.compile(r"\A(?:lam|mu|a(?:0|[1-9][0-9]*))\Z")


class Frozen:
    """Base of the small immutable value classes: slots ``_fields`` set once,
    equal only within one class, hashed once, at construction."""

    __slots__ = ("_values", "_hash")
    _fields: tuple = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, which hashes in the new process
        return type(self), self._values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values!r}"


class Indeterminate(Frozen):
    """A named symbol: ``lam``, ``mu``, or a weight tag ``a<k>``."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid symbol name {name!r}; "
                             "use 'lam', 'mu', or a weight tag like 'a0'")
        super().__init__(name)

    @property
    def is_weight_tag(self) -> bool:
        return self.name.startswith("a")

    def __str__(self) -> str:
        return self.name


LAMBDA = Indeterminate("lam")
MU = Indeterminate("mu")


def weight_tag(k: int) -> Indeterminate:
    """The k-th weight-coset tag symbol."""
    return Indeterminate(f"a{k}")


def _symbol_rank(name: str) -> tuple:
    # lam < mu < a0 < a1 < ... fixes the graded-lex symbol order.
    if name == "lam":
        return (0, 0)
    if name == "mu":
        return (1, 0)
    return (2, int(name[1:]))


# A monomial is a tuple of (symbol name, exponent) pairs, exponent > 0,
# sorted by _symbol_rank.  The empty tuple is the constant monomial.
Mono = tuple


@lru_cache(maxsize=MONO_MEMO_SIZE)
def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for name, exp in m2:
        total = merged.get(name, 0) + exp
        if total >= EXPONENT_LIMIT:
            raise ExponentOverflow(
                f"exponent {total} of {name} exceeds the 16-bit bound")
        merged[name] = total
    return tuple(sorted(merged.items(), key=lambda it: _symbol_rank(it[0])))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_rank_desc(m: Mono) -> tuple:
    # Ascending sort under this key lists monomials in descending graded-lex
    # order; min() under it picks the leading monomial.
    return (-_mono_degree(m), tuple((_symbol_rank(n), -e) for n, e in m))


def _mono_str(m: Mono) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


ScalarLike = Union["Scalar", Indeterminate, Fraction, int]


def _q(c):
    """A rational as an ``int`` when integral, else as the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _add_term(acc: dict, mono: Mono, c) -> None:
    """Add the rational c into acc[mono] through ``_q``, dropping a zero."""
    tot = acc.get(mono, 0) + c
    if tot:
        acc[mono] = _q(tot)
    else:
        acc.pop(mono, None)


class Scalar:
    """Sparse polynomial over the rationals in lam, mu, and weight tags."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, value: ScalarLike = 0):
        if isinstance(value, Scalar):
            terms = dict(value._terms)
        elif isinstance(value, Indeterminate):
            terms = {((value.name, 1),): 1}
        elif isinstance(value, (int, Fraction)):
            q = _q(value)
            terms = {(): q} if q else {}
        else:
            raise TypeError(f"cannot build a Scalar from {type(value).__name__}")
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, terms: dict) -> "Scalar":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", terms)
        object.__setattr__(obj, "_hash", None)
        return obj

    @classmethod
    def coerce(cls, value: ScalarLike) -> "Scalar":
        return value if isinstance(value, Scalar) else cls(value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # rebuilt from its terms; the hash is made again on first use
        return Scalar._make, (self._terms,)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {()}

    @property
    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {()}:
            return Fraction(self._terms[()])
        raise ValueError(f"{self} is not a rational constant")

    def terms(self) -> list:
        """(monomial, coefficient) pairs in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda it: _mono_rank_desc(it[0]))

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction, Indeterminate)):
                return NotImplemented
            other = Scalar(other)
        merged = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(merged, m, c)
        return Scalar._make(merged)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction, Indeterminate)):
                return NotImplemented
            other = Scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                q = _q(other)
                if not q:
                    return Scalar._make({})
                return Scalar._make({m: _q(c * q)
                                     for m, c in self._terms.items()})
            if not isinstance(other, Indeterminate):
                return NotImplemented
            other = Scalar(other)
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _add_term(out, _mono_mul(m1, m2), c1 * c2)
        return Scalar._make(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("scalar exponent must be a nonnegative integer")
        # square and multiply: the squares are self^(2^k) with 2^k <= exp,
        # so none leaves the exponent bound unless the result does
        acc, base = Scalar(1), self
        while exp:
            if exp & 1:
                acc = acc * base
            exp >>= 1
            if exp:
                base = base * base
        return acc

    # -- evaluation ---------------------------------------------------------

    def substitute(self, assignment: Mapping) -> "Scalar":
        """Evaluate rational values for a subset of symbols; the rest remain."""
        values = {}
        for key, val in assignment.items():
            name = key.name if isinstance(key, Indeterminate) else str(key)
            if not _NAME_RE.match(name):
                raise ValueError(f"unknown symbol {name!r} in assignment")
            if not isinstance(val, (int, Fraction)):
                raise TypeError("assignment values must be rational")
            values[name] = _q(val)
        out: dict = {}
        for mono, coeff in self._terms.items():
            c = coeff
            rest = []
            for name, exp in mono:
                if name in values:
                    c *= values[name] ** exp
                else:
                    rest.append((name, exp))
            _add_term(out, tuple(rest), c)
        return Scalar._make(out)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction, Indeterminate)):
                return NotImplemented
            other = Scalar(other)
        return self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.terms()):
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = _mono_str(mono)
            else:
                body = f"{mag}*{_mono_str(mono)}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- leading-term helpers for division -----------------------------------

    def _leading(self):
        mono = min(self._terms, key=_mono_rank_desc)
        return mono, self._terms[mono]


def _mono_quotient(m: Mono, d: Mono) -> Optional[Mono]:
    exps = dict(m)
    for name, exp in d:
        have = exps.get(name, 0)
        if have < exp:
            return None
        if have == exp:
            del exps[name]
        else:
            exps[name] = have - exp
    return tuple(sorted(exps.items(), key=lambda it: _symbol_rank(it[0])))


def exact_quotient(a: ScalarLike, d: ScalarLike) -> Optional[Scalar]:
    """The scalar q with a = d*q, or None when d does not divide a.

    Leading-term division in the graded-lex order: exactness forces every
    intermediate leading monomial to be divisible, so a single reduction
    chain decides the question.
    """
    a = Scalar.coerce(a)
    d = Scalar.coerce(d)
    if d.is_zero:
        raise ZeroDivisor("zero scalar cannot divide anything")
    if a.is_zero:
        return Scalar(0)
    d_mono, d_coeff = d._leading()
    rem = dict(a._terms)
    quot: dict = {}
    while rem:
        r_mono = min(rem, key=_mono_rank_desc)
        r_coeff = rem[r_mono]
        q_mono = _mono_quotient(r_mono, d_mono)
        if q_mono is None:
            return None
        q_coeff = _q(Fraction(r_coeff, 1) / d_coeff)
        _add_term(quot, q_mono, q_coeff)
        for m, c in d._terms.items():
            _add_term(rem, _mono_mul(m, q_mono), -c * q_coeff)
    return Scalar._make(quot)


def divides(d: ScalarLike, a: ScalarLike) -> bool:
    """True iff some scalar q satisfies a = d*q."""
    return exact_quotient(a, d) is not None
