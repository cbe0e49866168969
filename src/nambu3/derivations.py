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

``pqxz_bracket`` tabulates the commutator of generators as operators;
``check_pqxz_table`` replays every table entry against actual operator
composition on basis probes.  ``deriv_equal`` decides action equality on a
window: each generator action coefficient is affine in the probe index
within a fixed shift pattern, so two probe points per pattern already decide
equality and three give margin, hence the >= 3 point requirement.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .algebra import (AlgElem, BasisKey, L, M, _check_index, _SweepTable,
                      bracket_keys, window_keys)
from .errors import WindowTooSmall
from .linear import LinComb, accumulate
from .reports import DefectReport, sweep_report
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

    Pairs are stored with the smaller key first (L before M, then by index);
    the sign of a swapped pair is absorbed into the coefficient, and equal
    pairs vanish.  Build terms through ``ad`` so that normalization holds.
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
    """The pair derivation x -> [u, v, x] as a one-term DerivExpr."""
    if u == v:
        return DerivExpr.zero()
    if u > v:
        u, v = v, u
        coeff = Scalar.coerce(coeff) * -1
    return DerivExpr.term((u, v), coeff)


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


def pqxz_apply(k: PqxzKey, x: AlgElem) -> AlgElem:
    """Closed-form generator action, extended linearly."""
    acc: dict = {}
    for key, c in x._terms.items():
        hit = pqxz_key_apply(k, key)
        if hit is None:
            continue
        coeff, out_key = hit
        accumulate(acc, out_key, c * coeff)
    return AlgElem._of(acc)


def pqxz_elem_apply(e: PqxzElem, x: AlgElem) -> AlgElem:
    return AlgElem.combine((pqxz_apply(key, x), c)
                           for key, c in e._terms.items())


# -- generator commutators -------------------------------------------------------


_FAMILY_ORDER = {"p": 0, "q": 1, "x": 2, "z": 3}


def pqxz_key_bracket(k1: PqxzKey, k2: PqxzKey) -> PqxzElem:
    """Commutator of two generators, straight from the closed table."""
    f1, r = k1
    f2, s = k2
    if _FAMILY_ORDER[f1] > _FAMILY_ORDER[f2]:
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
    return PqxzElem.combine((pqxz_key_bracket(ka, kb), ca * cb)
                            for ka, ca in a._terms.items()
                            for kb, cb in b._terms.items())


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


def check_pqxz_table(window: Iterable[int] = DEFAULT_PAIR_WINDOW,
                     key_apply: Callable = pqxz_key_apply,
                     key_bracket: Callable = pqxz_key_bracket) -> DefectReport:
    """Replay the commutator table against operator composition.

    For every generator pair and every basis probe in the window, compares
    apply(a, apply(b, probe)) - apply(b, apply(a, probe)) with the table
    bracket applied to the probe.  ``key_apply``/``key_bracket`` are
    injectable so a deliberately corrupted table is detectable.
    """
    gens = window_generators(window)
    probes = window_keys(window)
    # one row per generator: its action on each key, one key_apply call per
    # distinct (generator, key) in this sweep
    rows = _SweepTable(key_apply, probes)
    found = []
    for ka in gens:
        ra = rows[ka,]
        for kb in gens:
            rb = rows[kb,]
            # negated table coefficients, converted once per generator pair
            table = [(rows[kt,].seq, -_q(ct.as_rational))
                     for kt, ct in key_bracket(ka, kb)._terms.items()]
            for i, probe in enumerate(probes):
                acc: dict = {}
                hit = rb.seq[i]
                if hit is not None:
                    back = ra[hit[1]]
                    if back is not None:
                        accumulate(acc, back[1], hit[0] * back[0])
                hit = ra.seq[i]
                if hit is not None:
                    back = rb[hit[1]]
                    if back is not None:
                        accumulate(acc, back[1], -hit[0] * back[0])
                for seq, ct in table:
                    hit = seq[i]
                    if hit is not None:
                        accumulate(acc, hit[1], ct * hit[0])
                if acc:
                    found.append(((ka, kb, probe), None,
                                  AlgElem(list(acc.items()))))
    return sweep_report("generator-commutator-table",
                        len(gens) ** 2 * len(probes), found,
                        axiom="generator-commutator", family="derivations")
