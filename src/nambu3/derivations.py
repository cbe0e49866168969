"""Inner ternary derivations and their four-family generator basis.

``ad(u, v)`` is the formal pair derivation x -> [u, v, x].  Finite Scalar
combinations of such pairs form DerivExpr; applying one to an algebra
element is ``ad_apply``.

Every pair derivation is a rational combination of four generator families,
kept as PqxzElem over keys p[r], q[r], x[r], z[r]:

* expansion (``pqxz_to_deriv``): each generator is a pinned combination of
  ad pairs, with dedicated combinations at index 0;
* decomposition (``deriv_to_pqxz``): closed forms
  ad(L_r, M_s) = p[r-s] - ((r+s)/2) q[r-s],
  ad(L_r, L_s) = (r-s) x[r+s],
  ad(M_r, M_s) = (r-s) z[-(r+s)].

The closed forms, including the uniform r = s case ad(L_r, M_r) =
p[0] - r q[0], are not trusted on their own: the test suite validates them
against the ad_apply oracle over the full pair window before anything else
relies on them.  ``pqxz_apply`` carries the per-generator closed-form action
used by the module layer; it is validated against expansion + ad_apply the
same way.

``pqxz_bracket`` tabulates the commutator of generators as operators.  The
bracket is a map on g∧g: ``_bracket_terms``, its one reader, reads the
global ``pqxz_key_bracket`` at the ``algebra.wedge`` order of a pair only,
so [b, a] = -[a, b] and [a, a] = 0 by construction.  ``check_pqxz_table``
replays each entry against composing the global ``pqxz_key_apply``
(``_commutator_scan``, which uses ``algebra._SweepTables`` and also checks
``repmod``'s Lie modules and first module axiom); it and the Lie-module
check evaluate each pair a < b once and report it at both orders.  ``deriv_equal`` decides
action equality on a window: each generator action coefficient is affine in
the probe index within a fixed shift pattern, so two probe points per
pattern already decide equality and three give margin, hence the >= 3 point
requirement.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .algebra import (AlgElem, BasisKey, L, M, _check_index, _SweepTables,
                      bracket_keys, wedge, window_keys)
from .errors import WindowTooSmall
from .linear import LinComb, accumulate, extend
from .reports import DefectReport, signed_orderings, sweep_report
from .scalar import Scalar, _q

DEFAULT_PAIR_WINDOW = range(-3, 4)

PQXZ_FAMILIES = ("p", "q", "x", "z")


class PqxzKey(NamedTuple):
    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}[{self.index}]"


def P(r: int) -> PqxzKey:
    return PqxzKey("p", _check_index(r))


def Q(r: int) -> PqxzKey:
    return PqxzKey("q", _check_index(r))


def X(r: int) -> PqxzKey:
    return PqxzKey("x", _check_index(r))


def Z(r: int) -> PqxzKey:
    return PqxzKey("z", _check_index(r))


def window_generators(window: Iterable[int]) -> tuple:
    """Cap-checked p, q, x, then z keys at the window's sorted indices."""
    points = sorted(set(window))
    return tuple(gen(r) for gen in (P, Q, X, Z) for r in points)


class PqxzElem(LinComb):
    """Scalar combination of p/q/x/z generator keys."""

    @staticmethod
    def _check_key(key) -> None:
        if not (isinstance(key, PqxzKey) and key.family in PQXZ_FAMILIES):
            raise TypeError(f"PqxzElem keys must be p/q/x/z keys, got {key!r}")


class DerivExpr(LinComb):
    """Scalar combination of ordered ad pairs; keys are (BasisKey, BasisKey).

    Pairs are stored in ``wedge`` order, the smaller key first (L before M,
    then by index); the sign of a swapped pair is absorbed into the
    coefficient, and equal pairs vanish.  Build terms through ``ad`` so that
    normalization holds.
    """

    @staticmethod
    def _check_key(key) -> None:
        ok = (isinstance(key, tuple) and len(key) == 2
              and all(isinstance(k, BasisKey) for k in key)
              and key[0] < key[1])
        if not ok:
            raise TypeError(f"DerivExpr keys must be ordered BasisKey pairs, got {key!r}")

    @staticmethod
    def _format_key(key) -> str:
        return f"ad({key[0]},{key[1]})"


def ad(u: BasisKey, v: BasisKey, coeff=1) -> DerivExpr:
    """The pair derivation x -> [u, v, x] as a DerivExpr on its ``wedge``."""
    return DerivExpr(wedge(u, v, Scalar.coerce(coeff)))


def ad_apply(d: DerivExpr, x: AlgElem) -> AlgElem:
    acc: dict = {}
    for (u, v), c in d._terms.items():
        for key, ck in x._terms.items():
            hit = bracket_keys(u, v, key)
            if hit is None:
                continue
            coeff, out_key = hit
            accumulate(acc, out_key, c * ck * coeff)
    return AlgElem._of(acc)


# -- generator expansion and decomposition ------------------------------------


def _ad_pairs(family: str, r: int) -> tuple:
    """The ad pairs ``(u, v, factor)`` one generator expands into."""
    if family == "p":
        if r:
            return ((L(0), M(-r), Fraction(1, 2)),
                    (L(r), M(0), Fraction(1, 2)))
        return ((L(0), M(0), 1),)
    if family == "q":
        if r:
            return ((L(0), M(-r), Fraction(1, r)),
                    (L(r), M(0), Fraction(-1, r)))
        return ((L(0), M(0), 1), (L(1), M(1), -1))
    if family == "x":
        return ((L(r), L(0), Fraction(1, r)) if r
                else (L(1), L(-1), Fraction(1, 2)),)
    return ((M(-r), M(0), Fraction(-1, r)) if r
            else (M(1), M(-1), Fraction(1, 2)),)


def pqxz_to_deriv(b) -> DerivExpr:
    """Expand generators into ad pairs.  Accepts a key or a PqxzElem."""
    if isinstance(b, PqxzKey):
        b = PqxzElem.term(b)
    return DerivExpr.combine((ad(u, v, factor), c)
                             for (family, r), c in b.items()
                             for u, v, factor in _ad_pairs(family, r))


def deriv_to_pqxz(d: DerivExpr) -> PqxzElem:
    """Decompose a rational-coefficient DerivExpr over the generator basis."""
    acc: dict = {}
    for (u, v), coeff in d._terms.items():
        if not coeff.is_rational:
            raise ValueError(
                f"decomposition needs rational coefficients, got {coeff} "
                f"on ad({u},{v})")
        c = coeff.as_rational
        r, s = u.index, v.index
        if u.kind == "L" and v.kind == "L":
            accumulate(acc, X(r + s), c * (r - s))
        elif u.kind == "M" and v.kind == "M":
            accumulate(acc, Z(-(r + s)), c * (r - s))
        else:
            accumulate(acc, P(r - s), c)
            accumulate(acc, Q(r - s), -c * Fraction(r + s, 2))
    return PqxzElem(list(acc.items()))


@lru_cache(maxsize=4096)
def pair_to_pqxz(u: BasisKey, v: BasisKey) -> PqxzElem:
    """Cached decomposition of a single ad pair (sign handled)."""
    return deriv_to_pqxz(ad(u, v))


# -- closed-form generator action ----------------------------------------------


def pqxz_key_apply(k: PqxzKey, b: BasisKey):
    """Action of one generator on one basis key: (coefficient, key) or None.

    The coefficient is an ``int`` unless it is halved: only p[r] with odd r
    gives a ``Fraction``.
    """
    family, r = k
    kind, t = b
    if family == "p":
        half = Fraction(r, 2) if r % 2 else r // 2
        if kind == "L":
            coeff = half - t
            return (coeff, L(t + r)) if coeff else None
        coeff = t + half
        return (coeff, M(t - r)) if coeff else None
    if family == "q":
        if kind == "L":
            return (-1, L(t + r))
        return (1, M(t - r))
    if family == "x":
        if kind == "L":
            return None
        return (-1, L(r - t))
    if kind == "L":
        return (-1, M(-r - t))
    return None


def _generator_terms(k: PqxzKey, b: BasisKey) -> tuple:
    """``pqxz_key_apply(k, b)`` as terms ``(key, coefficient)``."""
    hit = pqxz_key_apply(k, b)
    return () if hit is None else ((hit[1], hit[0]),)


def pqxz_apply(k: PqxzKey, x: AlgElem) -> AlgElem:
    """Closed-form generator action, extended linearly."""
    return AlgElem._of(extend((_generator_terms(k, key), c)
                              for key, c in x._terms.items()))


def pqxz_elem_apply(e: PqxzElem, x: AlgElem) -> AlgElem:
    return AlgElem.combine((pqxz_apply(key, x), c)
                           for key, c in e._terms.items())


# -- generator commutators -------------------------------------------------------


def pqxz_key_bracket(k1: PqxzKey, k2: PqxzKey) -> PqxzElem:
    """Commutator of two generators, straight from the closed table."""
    f1, r = k1
    f2, s = k2
    if f1 > f2:  # the family letters sort p < q < x < z
        return -pqxz_key_bracket(k2, k1)
    pair = f1 + f2
    if pair == "pp":
        return PqxzElem.term(P(r + s), r - s)
    if pair == "pq":
        return PqxzElem.term(Q(r + s), -s)
    if pair == "px":
        return PqxzElem.term(X(r + s), -s)
    if pair == "pz":
        return PqxzElem.term(Z(r + s), -s)
    if pair == "qx":
        return PqxzElem.term(X(r + s), -2)
    if pair == "qz":
        return PqxzElem.term(Z(r + s), 2)
    if pair == "xz":
        return PqxzElem.term(Q(r + s), -1)
    return PqxzElem.zero()


def pqxz_bracket(a: PqxzElem, b: PqxzElem) -> PqxzElem:
    """[a, b], each pair of generators read through ``_bracket_terms``."""
    return PqxzElem._of(extend((_bracket_terms(ka, kb), ca * cb)
                               for ka, ca in a._terms.items()
                               for kb, cb in b._terms.items()))


# -- action equality and the table check ------------------------------------------


def deriv_equal(d1: DerivExpr, d2: DerivExpr,
                window: Iterable[int] = DEFAULT_PAIR_WINDOW) -> bool:
    """Decide whether two derivation expressions act identically.

    Probes L[t] and M[t] for t in the window; needs at least three distinct
    points (two decide each affine coefficient pattern, three add margin).
    """
    points = sorted(set(window))
    if len(points) < 3:
        raise WindowTooSmall(
            f"action-equality window needs >= 3 points, got {len(points)}")
    diff = d1 - d2
    if diff.is_zero:
        return True
    for t in points:
        for key in (L(t), M(t)):
            if not ad_apply(diff, AlgElem.term(key)).is_zero:
                return False
    return True


def _commutator_scan(gens: tuple, tables: _SweepTables,
                     orders: Callable) -> list:
    """Defects of a(b v) - b(a v) = [a, b] v over generators a, b in ``gens``
    and the probes v of ``tables``, the ``algebra._SweepTables`` of a
    generator's terms on a key, as ``(ka, kb, probe, acc, sign)``: the
    defect is ``tables.coeffs(acc, sign)``.  For a before b in ``gens``,
    ``orders(a, b)`` lists the pair's orders that are distinct cases as
    ``(x, y, sign, terms)``, ``terms`` the ``(generator, rational)`` pairs of
    [x, y] and ``sign`` +1 for (a, b), -1 for (b, a).  Every order of a pair
    shares a(b v) - b(a v); (a, b) subtracts [a, b] v from it, and (b, a)
    adds [b, a] v and is negated."""
    rows, scaled = tables.rows, tables.scaled
    found = []
    for j, ka in enumerate(gens):
        ra = rows[ka,]
        for kb in gens[j:]:
            cases = tuple(((x, y, sign), [(rows[kt,], scaled(-sign * ct), 1)
                                          for kt, ct in terms])
                          for x, y, sign, terms in orders(ka, kb))
            if cases:
                rb = rows[kb,]
                tables.scan_case(found, ((ra, rb.seq, 1), (rb, ra.seq, -1)),
                                 cases)
    return [(x, y, probe, acc, sign) for (x, y, sign), probe, acc in found]


def _bracket_terms(a: PqxzKey, b: PqxzKey) -> list:
    """[a, b] as ``(generator, rational)`` pairs, the one reader of the
    generator bracket.  The bracket is a map on g∧g: the global
    ``pqxz_key_bracket`` is read at the ``wedge`` order of the pair only,
    so [b, a] is the negation of [a, b] and [a, a] has no terms."""
    return [(k, s * _q(c.as_rational)) for pair, s in wedge(a, b, 1)
            for k, c in pqxz_key_bracket(*pair)._terms.items()]


def _wedge_orders(a: PqxzKey, b: PqxzKey) -> tuple:
    """The orders ``_commutator_scan`` evaluates of generators a <= b: on
    g∧g, (b, a) is the negation of (a, b) and (a, a) is zero, so (a, b)
    alone when a < b, and none when a == b."""
    return ((a, b, 1, _bracket_terms(a, b)),) if a != b else ()


def check_pqxz_table(window: Iterable[int] = DEFAULT_PAIR_WINDOW
                     ) -> DefectReport:
    """Replay the commutator table against operator composition.

    For every generator pair and every basis probe in the window, compares
    apply(a, apply(b, probe)) - apply(b, apply(a, probe)) with the table
    bracket applied to the probe (``_commutator_scan``).  A fault is
    injected into the module global ``pqxz_key_apply`` or ``pqxz_key_bracket``.
    """
    gens, probes = window_generators(window), window_keys(window)
    tables = _SweepTables(_generator_terms, probes)
    found = [((ka, kb, probe), None, AlgElem(tables.coeffs(acc, sign)))
             for ka, kb, probe, acc, sign in _commutator_scan(
                 gens, tables, _wedge_orders)]
    return sweep_report("generator-commutator-table",
                        len(gens) ** 2 * len(probes), found,
                        axiom="generator-commutator", family="derivations",
                        orderings=signed_orderings(2, 1))
