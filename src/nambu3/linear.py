"""Finitely supported linear combinations with Scalar coefficients.

Base class for algebra elements, module vectors, derivation expressions, and
generator combinations.  Terms live in a dict keyed by the combination's key
type; zero coefficients are dropped on construction so equality is plain dict
equality.  Addition is only defined between combinations of the same concrete
type, which catches category mixups early.

Every sum is built in one dict through ``accumulate``; ``LinComb.combine``
sums weighted pieces without copying the running sum once per piece.

Formatting reads each coefficient's sign and text from a bounded memo keyed
by the coefficient (``_coeff_text``): a defect report repeats a few distinct
coefficients over thousands of lines.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .scalar import Indeterminate, Scalar, ScalarLike

# bound of the coefficient text memo: a defect report repeats few distinct
# coefficients (18 in 14,400 defects), and every entry keeps its coefficient
# alive for the life of the process
COEFF_TEXT_MEMO_SIZE = 64


def accumulate(acc: dict, key, coeff) -> None:
    """Add coeff into acc[key], dropping the key when the sum is zero."""
    tot = acc.get(key)
    tot = coeff if tot is None else tot + coeff
    if tot:
        acc[key] = tot
    else:
        acc.pop(key, None)


@lru_cache(maxsize=COEFF_TEXT_MEMO_SIZE)
def _coeff_text(c: Scalar) -> tuple:
    """(negative, text before the key) of a nonzero coefficient: nothing for
    1, the magnitude of a rational or of a one-term polynomial, or the whole
    polynomial in parentheses, each followed by a space."""
    if c.is_rational:
        q = c.as_rational
        neg = q < 0
        mag = -q if neg else q
        return neg, "" if (mag == 1 and not neg) else f"{mag} "
    if len(c) == 1:
        ((mono, q),) = c._terms.items()
        neg = q < 0
        return neg, f"{Scalar._make({mono: -q if neg else q})} "
    return False, f"({c}) "


class LinComb:
    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for key, coeff in items:
            self._check_key(key)
            accumulate(acc, key, Scalar.coerce(coeff))
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._of, (self._terms,)

    # subclass hooks ---------------------------------------------------------

    @staticmethod
    def _check_key(key) -> None:
        pass

    @staticmethod
    def _key_sort(key):
        return key

    @staticmethod
    def _format_key(key) -> str:
        return str(key)

    # construction -----------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict):
        """A combination holding ``terms`` itself, trusted as given: keys of
        the right type and nonzero Scalar coefficients."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    @classmethod
    def combine(cls, pieces):
        """The sum of ``piece * c`` over the ``(piece, c)`` pairs, built in
        one dict."""
        acc: dict = {}
        for piece, c in pieces:
            for key, pc in piece._terms.items():
                accumulate(acc, key, pc * c)
        return cls._of(acc)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def term(cls, key, coeff: ScalarLike = 1):
        return cls([(key, coeff)])

    # inspection --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coeff(self, key) -> Scalar:
        return self._terms.get(key, Scalar(0))

    def support(self) -> tuple:
        return tuple(sorted(self._terms, key=self._key_sort))

    def items(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: self._key_sort(kv[0]))

    # arithmetic ---------------------------------------------------------------

    def _merged(self, other, sign: int):
        acc = dict(self._terms)
        for key, c in other._terms.items():
            accumulate(acc, key, c if sign > 0 else -c)
        return self._of(acc)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._merged(other, +1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._merged(other, -1)

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()})

    def __mul__(self, factor):
        if not isinstance(factor, (Scalar, Indeterminate, Fraction, int)):
            return NotImplemented
        f = Scalar.coerce(factor)
        if f.is_zero:
            return type(self)()
        # a product of nonzero polynomials over Q is never zero
        return self._of({key: c * f for key, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # formatting -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (key, c) in enumerate(self.items()):
            neg, text = _coeff_text(c)
            body = text + self._format_key(key)
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"
