"""Expression parsing for the CLI and tests.

One tokenizer feeds four small recursive-descent entry points:

* ``parse_scalar``: rationals, the symbols lam/mu/a0/a1/..., ``+ - *``,
  ``^`` with a nonnegative integer exponent, parentheses.
* ``parse_elem``: linear combinations of ``L[r]``/``M[r]`` with scalar
  coefficients; the single literal ``0`` denotes the zero element.
* ``parse_deriv``: sums of ``ad(K[r],K[s])`` pair terms and ``p/q/x/z[r]``
  generators with rational coefficients, returned as a pair-basis
  expression (generators are expanded).
* ``parse_weight_key``: a rational, a generic tag ``aK``, or ``aK+m``.

Every syntax failure raises ParseError carrying the offset and what was
expected there.  The grammars accept everything the formatters emit, so
parse/format round-trips are identities.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgElem, BasisKey, _check_index, basis_elem
from .derivations import DerivExpr, PQXZ_FAMILIES, PqxzKey, ad, pqxz_to_deriv
from .errors import IndexOverflow, ParseError
from .repmod import WeightKey, weight_key
from .scalar import Indeterminate, Scalar, _NAME_RE

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()\[\],])")

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
        kind, text, pos = self.peek()
        if text != value or kind == "end":
            raise ParseError(f"expected {value!r}", pos, expected=(value,))
        return self.next()

    def at(self, value: str) -> bool:
        kind, text, _ = self.peek()
        return kind != "end" and text == value

    def done(self) -> bool:
        return self.peek()[0] == "end"

    def fail(self, what: str, expected=()):
        raise ParseError(f"expected {what}", self.peek()[2], expected=expected)

    # shared pieces ------------------------------------------------------

    def signed_int(self) -> int:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        kind, text, pos = self.peek()
        if kind != "int":
            self.fail("an integer", expected=("integer",))
        self.next()
        return sign * int(text)

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
        kind, text, pos = self.peek()
        if kind != "int":
            self.fail("a number", expected=("integer",))
        self.next()
        num = int(text)
        if self.at("/"):
            self.next()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a denominator", pos,
                                 expected=("integer",))
            self.next()
            den = int(text)
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    # scalar grammar -----------------------------------------------------

    def scalar_expr(self) -> Scalar:
        negate = False
        if self.at("-"):
            self.next()
            negate = True
        elif self.at("+"):
            self.next()
        acc = self.scalar_term()
        if negate:
            acc = -acc
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            term = self.scalar_term()
            acc = acc - term if op == "-" else acc + term
        return acc

    def scalar_term(self) -> Scalar:
        acc = self.scalar_factor()
        while self.at("*"):
            self.next()
            acc = acc * self.scalar_factor()
        return acc

    def scalar_factor(self) -> Scalar:
        base = self.scalar_atom()
        if self.at("^"):
            self.next()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a nonnegative integer exponent",
                                 pos, expected=("integer",))
            self.next()
            return base ** int(text)
        return base

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
        if text == "(":
            self.next()
            inner = self.scalar_expr()
            self.expect(")")
            return inner
        if text == "-":
            self.next()
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
        acc = AlgElem.zero()
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        acc = acc + self.elem_term(sign)
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            acc = acc + self.elem_term(-1 if op == "-" else 1)
        return acc

    def elem_term(self, sign: int) -> AlgElem:
        kind, text, _ = self.peek()
        if kind == "name" and text in _KIND_NAMES:
            return basis_elem(self.basis_key()) * sign
        coeff = self.scalar_term()
        if self.at("*"):
            self.next()
        key = self.basis_key()
        return AlgElem.term(key, coeff * sign)

    # derivation grammar -------------------------------------------------

    def deriv_expr(self) -> DerivExpr:
        acc = DerivExpr.zero()
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        acc = acc + self.deriv_term(sign)
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            acc = acc + self.deriv_term(-1 if op == "-" else 1)
        return acc

    def deriv_term(self, sign: int) -> DerivExpr:
        coeff = Fraction(sign)
        kind, text, _ = self.peek()
        if kind == "int" or text == "(":
            if text == "(":
                self.next()
                coeff = coeff * self.rational()
                self.expect(")")
            else:
                coeff = coeff * self.rational()
            if self.at("*"):
                self.next()
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
        if kind == "name":
            if not _NAME_RE.match(text) or not Indeterminate(text).is_weight_tag:
                raise ParseError(f"unknown weight tag {text!r}", pos,
                                 expected=("a<k>", "rational"))
            self.next()
            offset = 0
            if self.at("+") or self.at("-"):
                op = self.next()[1]
                ktok, itext, ipos = self.peek()
                if ktok != "int":
                    raise ParseError("expected an integer offset", ipos,
                                     expected=("integer",))
                self.next()
                offset = int(itext) if op == "+" else -int(itext)
            return weight_key(text, offset)
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        return weight_key(sign * self.rational())


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
