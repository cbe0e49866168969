"""Expression parsing for the CLI and tests.

One tokenizer feeds small recursive-descent entry points:

* ``parse_scalar``: rationals, the symbols lam/mu/a0/a1/..., ``+ - *``,
  ``^`` with a nonnegative integer exponent below 2^16, parentheses.
* ``parse_elem``: linear combinations of ``L[r]``/``M[r]`` with scalar
  coefficients; the single literal ``0`` denotes the zero element.
* ``parse_deriv``: sums of ``ad(K[r],K[s])`` pair terms and ``p/q/x/z[r]``
  generators with rational coefficients, returned as a pair-basis
  expression (generators are expanded).
* ``parse_weight_key``: a rational, a generic tag ``aK``, or ``aK+m``.
* ``parse_int`` and ``parse_rational``: ``[-]n`` and ``[-]p[/q]``, the
  numbers the CLI reads from its flags.

Digits are the ASCII ``0``-``9``; other Unicode decimal digits are refused.

The three sums share one rule, an optional sign and then terms joined by
``+``/``-``, and every integer is read by one reader.  That reader refuses a
literal longer than ``MAX_LITERAL_DIGITS`` digits before ``int()`` sees it.
A parsed sum or product is held to the same bound: written over the least
common denominator of its coefficients, neither that denominator nor any
numerator may be longer.  A power is refused before it is taken when its
leading or trailing coefficient alone would break the bound, or when it may
build more than ``MAX_TERMS`` terms (``_power_terms``); a product is
refused before each ``*`` when it may build more (``product_terms``).  A
bracket is trilinear in its parsed arguments: a product of three bounded
values stays under Python's 4,300-digit limit for printing an int, and the
CLI holds the bracket's coefficient products to the same term bound.

Every syntax failure raises ParseError carrying the offset and what was
expected there.  The grammars accept everything the formatters emit, so
parse/format round-trips are identities.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm

from .algebra import AlgElem, BasisKey, _check_index, basis_elem
from .derivations import DerivExpr, PQXZ_FAMILIES, PqxzKey, ad, pqxz_to_deriv
from .errors import IndexOverflow, ParseError
from .repmod import WeightKey, weight_key
from .scalar import EXPONENT_LIMIT, Indeterminate, Scalar, _NAME_RE

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()\[\],])")

# Longest integer literal, and longest numerator or common denominator of a
# parsed value, in decimal digits.
MAX_LITERAL_DIGITS = 1000
LITERAL_TOO_LONG = f"integer literal longer than {MAX_LITERAL_DIGITS} digits"
# Most terms a parsed power or product may build; a product costs the
# product of its factors' terms, so the bound also caps the time it takes.
MAX_TERMS = 1000
_COEFF_LIMIT = 10 ** MAX_LITERAL_DIGITS
# 2^_COEFF_BITS > _COEFF_LIMIT: an int of b bits raised to e is at least
# 2^((b - 1) e), so (b - 1) e >= _COEFF_BITS proves the power too long.
_COEFF_BITS = _COEFF_LIMIT.bit_length()

_KIND_NAMES = ("L", "M")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _top_degrees(scalars) -> dict:
    """Each symbol's highest exponent in any of ``scalars``."""
    top: dict = {}
    for s in scalars:
        for mono in s._terms:
            for name, e in mono:
                top[name] = max(top.get(name, 0), e)
    return top


def _power_terms(base: Scalar, exp: int) -> int:
    """An upper bound on the number of terms of ``base ** exp``.

    Each term is a product of ``exp`` terms of ``base`` taken with
    repetition, and each symbol's degree in it is at most ``exp`` times its
    degree in ``base``.
    """
    if len(base) < 2:
        return 1
    by_degree = 1
    for d in _top_degrees([base]).values():
        by_degree *= exp * d + 1
    return min(by_degree, comb(len(base) + exp - 1, exp))


def product_terms(*groups) -> int:
    """An upper bound on the number of terms of a product of one Scalar from
    each group.

    It has at most the product of the factors' term counts, and each
    symbol's degree in it is at most the sum of its degrees in the factors.
    """
    by_count, degrees = 1, {}
    for group in groups:
        group = list(group)
        by_count *= max((len(s) for s in group), default=0)
        for name, e in _top_degrees(group).items():
            degrees[name] = degrees.get(name, 0) + e
    by_degree = 1
    for d in degrees.values():
        by_degree *= d + 1
    return min(by_count, by_degree)


def _too_long(pos: int):
    return ParseError(f"coefficients longer than {MAX_LITERAL_DIGITS} digits "
                      "over a common denominator", pos)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset: int = 0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, value: str):
        if not self.at(value):
            raise ParseError(f"expected {value!r}", self.peek()[2],
                             expected=(value,))
        return self.next()

    def at(self, value: str) -> bool:
        # the end token's text is empty, so no value matches it
        return self.tokens[self.i][1] == value

    def skip(self, value: str) -> bool:
        """Consume ``value`` if it comes next."""
        found = self.at(value)
        self.i += found
        return found

    def done(self) -> bool:
        return self.peek()[0] == "end"

    def fail(self, what: str, expected=()):
        raise ParseError(f"expected {what}", self.peek()[2], expected=expected)

    # shared pieces ------------------------------------------------------

    def integer(self, what: str) -> int:
        """One unsigned integer literal; ``what`` names it in the error."""
        kind, text, pos = self.peek()
        if kind != "int":
            self.fail(what, expected=("integer",))
        if len(text) > MAX_LITERAL_DIGITS:
            raise ParseError(LITERAL_TOO_LONG, pos)
        self.next()
        return int(text)

    def signed_int(self) -> int:
        sign = -1 if self.skip("-") else 1
        return sign * self.integer("an integer")

    def index_suffix(self) -> int:
        self.expect("[")
        pos = self.peek()[2]
        value = self.signed_int()
        self.expect("]")
        try:
            return _check_index(value)
        except IndexOverflow as exc:
            raise ParseError(str(exc), pos) from None

    def rational(self) -> Fraction:
        num = self.integer("a number")
        if not self.skip("/"):
            return Fraction(num)
        pos = self.peek()[2]
        den = self.integer("a denominator")
        if den == 0:
            raise ParseError("zero denominator", pos)
        return Fraction(num, den)

    def signed_rational(self) -> Fraction:
        return -self.rational() if self.skip("-") else self.rational()

    def signed_sum(self, term):
        """``[+|-] term {(+|-) term}``; ``term(sign)`` reads one term and
        applies the sign."""
        start = self.i
        op = self.next()[1] if self.at("+") or self.at("-") else "+"
        acc = term(-1 if op == "-" else 1)
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            acc = acc + term(-1 if op == "-" else 1)
        return self.bounded(acc, start)

    def bounded(self, value, start: int):
        """``value``, a Scalar or a combination of them, refused when its
        coefficients over their least common denominator are too long;
        ``start`` is the token it was read from."""
        scalars = ([value] if isinstance(value, Scalar)
                   else value._terms.values())
        coeffs = [c for s in scalars for c in s._terms.values()]
        den = lcm(*[c.denominator for c in coeffs])
        if den >= _COEFF_LIMIT or any(
                abs(c.numerator) * (den // c.denominator) >= _COEFF_LIMIT
                for c in coeffs):
            raise _too_long(self.tokens[start][2])
        return value

    # scalar grammar -----------------------------------------------------

    def scalar_expr(self) -> Scalar:
        return self.signed_sum(
            lambda sign: -self.scalar_term() if sign < 0 else self.scalar_term())

    def scalar_term(self) -> Scalar:
        start = self.i
        acc = self.scalar_factor()
        while self.skip("*"):
            factor = self.scalar_factor()
            if product_terms([acc], [factor]) > MAX_TERMS:
                raise ParseError(f"product with more than {MAX_TERMS} terms",
                                 self.tokens[start][2])
            acc = self.bounded(acc * factor, start)
        return acc

    def scalar_factor(self) -> Scalar:
        start = self.i
        base = self.scalar_atom()
        if not self.skip("^"):
            return base
        exp_pos = self.peek()[2]
        exp = self.integer("a nonnegative integer exponent")
        if exp >= EXPONENT_LIMIT:
            raise ParseError(f"exponent {exp} exceeds the 16-bit bound",
                             exp_pos)
        # the leading and trailing terms of base^exp are those of base to
        # the power exp
        terms = base.terms()
        for _, c in terms[:1] + terms[-1:]:
            for n in (abs(c.numerator), c.denominator):
                if (n.bit_length() - 1) * exp >= _COEFF_BITS:
                    raise _too_long(self.tokens[start][2])
        if _power_terms(base, exp) > MAX_TERMS:
            raise ParseError(f"power with more than {MAX_TERMS} terms",
                             self.tokens[start][2])
        return self.bounded(base ** exp, start)

    def scalar_atom(self) -> Scalar:
        kind, text, pos = self.peek()
        if kind == "int":
            return Scalar(self.rational())
        if kind == "name":
            if not _NAME_RE.match(text):
                raise ParseError(
                    f"unknown scalar symbol {text!r}", pos,
                    expected=("lam", "mu", "a<k>"))
            self.next()
            return Scalar(Indeterminate(text))
        if self.skip("("):
            inner = self.scalar_expr()
            self.expect(")")
            return inner
        if self.skip("-"):
            return -self.scalar_atom()
        self.fail("a scalar", expected=("number", "symbol", "("))

    # element grammar ----------------------------------------------------

    def basis_key(self) -> BasisKey:
        kind, text, pos = self.peek()
        if kind != "name" or text not in _KIND_NAMES:
            self.fail("a basis kind L or M", expected=_KIND_NAMES)
        self.next()
        return BasisKey(text, self.index_suffix())

    def elem_expr(self) -> AlgElem:
        # lone "0" is the zero element
        if self.peek()[1] == "0" and self.peek(1)[0] == "end":
            self.next()
            return AlgElem.zero()
        return self.signed_sum(self.elem_term)

    def elem_term(self, sign: int) -> AlgElem:
        kind, text, _ = self.peek()
        if kind == "name" and text in _KIND_NAMES:
            return basis_elem(self.basis_key()) * sign
        coeff = self.scalar_term()
        self.skip("*")
        key = self.basis_key()
        return AlgElem.term(key, coeff * sign)

    # derivation grammar -------------------------------------------------

    def deriv_expr(self) -> DerivExpr:
        return self.signed_sum(self.deriv_term)

    def deriv_term(self, sign: int) -> DerivExpr:
        coeff = Fraction(sign)
        kind, text, _ = self.peek()
        if kind == "int" or text == "(":
            if self.skip("("):
                coeff = coeff * self.rational()
                self.expect(")")
            else:
                coeff = coeff * self.rational()
            self.skip("*")
        return self.deriv_atom() * coeff

    def deriv_atom(self) -> DerivExpr:
        kind, text, pos = self.peek()
        if kind != "name":
            self.fail("a derivation term",
                      expected=("ad",) + PQXZ_FAMILIES)
        if text == "ad":
            self.next()
            self.expect("(")
            first = self.basis_key()
            self.expect(",")
            second = self.basis_key()
            self.expect(")")
            return ad(first, second)
        if text in PQXZ_FAMILIES:
            self.next()
            return pqxz_to_deriv(PqxzKey(text, self.index_suffix()))
        raise ParseError(f"unknown derivation name {text!r}", pos,
                         expected=("ad",) + PQXZ_FAMILIES)

    # weight keys --------------------------------------------------------

    def weight_key_expr(self) -> WeightKey:
        kind, text, pos = self.peek()
        if kind != "name":
            return weight_key(self.signed_rational())
        if not _NAME_RE.match(text) or not Indeterminate(text).is_weight_tag:
            raise ParseError(f"unknown weight tag {text!r}", pos,
                             expected=("a<k>", "rational"))
        self.next()
        offset = 0
        if self.at("+") or self.at("-"):
            sign = -1 if self.next()[1] == "-" else 1
            offset = sign * self.integer("an integer offset")
        return weight_key(text, offset)


def _run(text: str, method: str):
    parser = _Parser(text)
    result = getattr(parser, method)()
    if not parser.done():
        kind, tok, pos = parser.peek()
        raise ParseError(f"trailing input {tok!r}", pos)
    return result


def parse_scalar(text: str) -> Scalar:
    return _run(text, "scalar_expr")


def parse_elem(text: str) -> AlgElem:
    return _run(text, "elem_expr")


def parse_deriv(text: str) -> DerivExpr:
    return _run(text, "deriv_expr")


def parse_weight_key(text: str) -> WeightKey:
    return _run(text, "weight_key_expr")


def parse_int(text: str) -> int:
    return _run(text, "signed_int")


def parse_rational(text: str) -> Fraction:
    return _run(text, "signed_rational")
