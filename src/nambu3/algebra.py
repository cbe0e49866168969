"""The ternary algebra on the paired mode basis L[r], M[r] (r an integer).

Three structure maps generate everything here: the commutative product
(L[r]L[s] = L[r+s], M[r]M[s] = M[r+s], cross products vanish), the degree
map delta (delta L[r] = r L[r], likewise on M), and the kind-swapping
involution omega (omega L[r] = M[-r] and back).

The ternary bracket comes in two deliberately independent routes:

* ``bracket`` applies the closed structure-constant table
  [L_r, L_s, M_t] = (s-r) L_{r+s-t} and [L_r, M_s, M_t] = (t-s) M_{s+t-r},
  extended totally antisymmetrically, with all-L and all-M triples zero.
* ``bracket_det`` expands the 3x3 determinant whose rows are the omega
  images, the arguments themselves, and the delta images, using only the
  commutative product.

The two must agree everywhere; keeping both gives a structural oracle for
the table.  ``check_fundamental`` sweeps the ternary Jacobi identity over a
finite index window, as lookups in a table local to the sweep that makes
each distinct bracket once (``_SweepTable``, the one table type of every
sweep: the commutator table and the module axioms use it too).  Indices are
Laurent-mode integers capped at +/-2^40; a window index (sweeps take their
keys from ``window_keys``) or index arithmetic that leaves the cap raises
IndexOverflow.  The bracket lowers no degree bound and shifts indices by at
most the sum of its inputs, so a window check exercises every structure
constant whose indices fit: coefficients are affine in each index and the
identity is index-translation covariant, which is why small windows are
conclusive for the table.
"""
from __future__ import annotations

import os
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import IndexOverflow
from .linear import LinComb, accumulate
from .reports import DefectReport, sweep_report

INDEX_LIMIT = 1 << 40

DEFAULT_FI_WINDOW = range(-2, 3)


class BasisKey(NamedTuple):
    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}[{self.index}]"


def _check_index(r: int) -> int:
    if r > INDEX_LIMIT or r < -INDEX_LIMIT:
        raise IndexOverflow(f"basis index {r} outside +/-2^40")
    return r


def L(r: int) -> BasisKey:
    return BasisKey("L", _check_index(r))


def M(r: int) -> BasisKey:
    return BasisKey("M", _check_index(r))


class AlgElem(LinComb):
    """Finite Scalar-linear combination of basis keys."""

    @staticmethod
    def _check_key(key) -> None:
        if not (isinstance(key, BasisKey) and key.kind in ("L", "M")):
            raise TypeError(f"AlgElem keys must be L/M BasisKey, got {key!r}")


def basis_elem(key: BasisKey) -> AlgElem:
    return AlgElem.term(key)


# -- structure maps ----------------------------------------------------------


def assoc_mul(x: AlgElem, y: AlgElem) -> AlgElem:
    """Commutative product; modes add within a kind, cross terms vanish."""
    acc: dict = {}
    for kx, cx in x._terms.items():
        for ky, cy in y._terms.items():
            if kx.kind != ky.kind:
                continue
            key = BasisKey(kx.kind, _check_index(kx.index + ky.index))
            accumulate(acc, key, cx * cy)
    return AlgElem._of(acc)


def delta(x: AlgElem) -> AlgElem:
    """Degree map: scales each basis term by its index."""
    return AlgElem([(k, c * k.index) for k, c in x._terms.items()])


def omega(x: AlgElem) -> AlgElem:
    """Kind-swapping involution, negating the index."""
    swap = {"L": "M", "M": "L"}
    return AlgElem([(BasisKey(swap[k.kind], -k.index), c)
                    for k, c in x._terms.items()])


# -- ternary bracket: structure-constant route -------------------------------


def bracket_keys(k1: BasisKey, k2: BasisKey, k3: BasisKey):
    """Bracket of three basis keys as (integer coefficient, key), or None.

    Sorts the arguments into canonical order while tracking permutation
    parity, so total antisymmetry is built in.
    """
    a, b, c = k1, k2, k3
    sign = 1
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    if a == b or b == c:
        return None
    pattern = a.kind + b.kind + c.kind
    if pattern == "LLM":
        coeff = b.index - a.index
        key = BasisKey("L", _check_index(a.index + b.index - c.index))
    elif pattern == "LMM":
        coeff = c.index - b.index
        key = BasisKey("M", _check_index(b.index + c.index - a.index))
    else:
        return None
    if not coeff:
        return None
    return sign * coeff, key


def bracket(x: AlgElem, y: AlgElem, z: AlgElem) -> AlgElem:
    """The key-level table extended to elements by trilinearity."""
    acc: dict = {}
    for kx, cx in x._terms.items():
        for ky, cy in y._terms.items():
            cxy = cx * cy
            for kz, cz in z._terms.items():
                hit = bracket_keys(kx, ky, kz)
                if hit is None:
                    continue
                coeff, key = hit
                accumulate(acc, key, cxy * cz * coeff)
    return AlgElem._of(acc)


# -- ternary bracket: determinant route ---------------------------------------


def bracket_det(x: AlgElem, y: AlgElem, z: AlgElem) -> AlgElem:
    """Determinant with rows (omega row, identity row, delta row).

    Cofactor expansion along the omega row, multiplied out with assoc_mul.
    Kept free of any structure-constant knowledge so it can referee
    ``bracket``.
    """
    top = (omega(x), omega(y), omega(z))
    mid = (x, y, z)
    bot = (delta(x), delta(y), delta(z))

    def minor(j: int) -> AlgElem:
        a, b = [i for i in (0, 1, 2) if i != j]
        return assoc_mul(mid[a], bot[b]) - assoc_mul(mid[b], bot[a])

    return AlgElem.combine((assoc_mul(top[j], minor(j)), parity)
                           for j, parity in ((0, 1), (1, -1), (2, 1)))


# -- fundamental identity sweep ------------------------------------------------


def window_keys(window: Iterable[int]) -> tuple:
    """Cap-checked L keys, then M keys, at the window's sorted indices."""
    idx = sorted(set(window))
    return tuple([L(i) for i in idx] + [M(i) for i in idx])


class _TableRow(dict):
    """One row of a sweep-local table: ``c -> fn(*head, c)``, filled on a
    miss.

    ``seq`` holds the row at the table's keys, in their order.  Each value
    is replaced by the first equal one in ``hits``, so a sweep keeps one copy
    of each distinct hit.  A row holds no reference to its table.
    """

    __slots__ = ("fn", "head", "hits", "seq")

    def __init__(self, fn: Callable, head: tuple, hits: dict):
        super().__init__()
        self.fn, self.head, self.hits = fn, head, hits

    def __missing__(self, c):
        hit = self.fn(*self.head, c)
        hit = self[c] = self.hits.setdefault(hit, hit)
        return hit


class _SweepTable(dict):
    """``head -> _TableRow`` for one sweep call, each row made on first use
    together with its values at ``keys``; freed when the sweep returns.

    ``fn`` is called once per distinct argument tuple, with the arguments
    in the order the sweep asks for them.  A ``fn`` that needs more state is
    a ``functools.partial`` over a module function: a bound method of an
    object holding the table would make a reference cycle.
    """

    __slots__ = ("fn", "keys", "hits")

    def __init__(self, fn: Callable, keys: tuple):
        super().__init__()
        self.fn, self.keys, self.hits = fn, keys, {}

    def __missing__(self, head: tuple) -> _TableRow:
        row = self[head] = _TableRow(self.fn, head, self.hits)
        row.seq = [row[k] for k in self.keys]
        return row


def _fi_scan(first_keys: tuple, keys: tuple, kb: Optional[Callable]) -> list:
    """Defects of [x1,x2,[x3,x4,x5]] = [[x1,x2,x3],x4,x5]
    + [x3,[x1,x2,x4],x5] + [x3,x4,[x1,x2,x5]] for x1 in ``first_keys``,
    as ``sweep_report`` triples.

    Every bracket is a lookup in one table local to the scan, keyed by its
    first two arguments: the row (x1, x2) is ad(x1, x2), the row (x3, x4)
    holds the inner brackets and the third outer one, and the rows
    (image, x4) and (x3, image) the other two outer brackets, where
    ``image`` is a key ad(x1, x2) lands on.  So ``kb`` is called once per
    distinct argument triple (14,504 times at -3..3), with the argument
    order of evaluating each case on its own, and an injected table that is
    not antisymmetric finds the same defects.
    """
    if kb is None:
        kb = bracket_keys
    table = _SweepTable(kb, keys)
    nones = [None] * len(keys)
    found = []
    for x1 in first_keys:
        for x2 in keys:
            ad = table[x1, x2]
            for x3, first in zip(keys, ad.seq):
                for x4, second in zip(keys, ad.seq):
                    inners = table[x3, x4]
                    outer1 = (nones if first is None
                              else table[first[1], x4].seq)
                    outer2 = (nones if second is None
                              else table[x3, second[1]].seq)
                    for x5, inner, third, hit1, hit2 in zip(
                            keys, inners.seq, ad.seq, outer1, outer2):
                        acc: dict = {}
                        if inner is not None:
                            hit = ad[inner[1]]
                            if hit is not None:
                                acc[hit[1]] = inner[0] * hit[0]
                        if hit1 is not None:
                            k = hit1[1]
                            acc[k] = acc.get(k, 0) - first[0] * hit1[0]
                        if hit2 is not None:
                            k = hit2[1]
                            acc[k] = acc.get(k, 0) - second[0] * hit2[0]
                        if third is not None:
                            hit = inners[third[1]]
                            if hit is not None:
                                k = hit[1]
                                acc[k] = acc.get(k, 0) - third[0] * hit[0]
                        if any(acc.values()):
                            found.append(((x1, x2, x3, x4, x5), None,
                                          AlgElem(list(acc.items()))))
    return found


# Smallest grid that auto parallelism fans out.  `check fi` in fresh
# processes on a 2-CPU x86-64 box, alternating sides, pool start-up
# included: two workers lost 10 of 10 pairs against one at 10^5 cases
# (-2..2, median 0.15 s serial) and at 12^5 (-3..2, 0.37 s), and won 14 of
# 20 at 14^5 (-3..3, 0.63 -> 0.52 s) and 10 of 10 at 18^5 (-4..4,
# 1.69 -> 1.22 s).
AUTO_PARALLEL_CASES = 400000


def _resolve_parallelism(parallelism: int, grid: int, chunks: int) -> int:
    # never more workers than CPUs or non-empty chunks; 0 means auto
    if parallelism == 1:
        return 1
    if parallelism == 0:
        if grid < AUTO_PARALLEL_CASES:
            return 1
        parallelism = 8
    return max(1, min(parallelism, os.cpu_count() or 1, chunks))


def check_fundamental(window: Iterable[int] = DEFAULT_FI_WINDOW,
                      key_bracket: Optional[Callable] = None,
                      parallelism: int = 1) -> DefectReport:
    """Sweep the ternary Jacobi identity over all key 5-tuples in the window.

    With the default table the grid may be fanned out across processes;
    a custom ``key_bracket`` (fault injection) always runs serially.
    Entries are sorted either way, so the report is deterministic.
    """
    keys = window_keys(window)
    cases = len(keys) ** 5
    workers = _resolve_parallelism(parallelism, cases, len(keys))
    if key_bracket is not None or workers <= 1:
        found = _fi_scan(keys, keys, key_bracket)
    else:
        # imported here: a process that never fans out never loads it
        from concurrent.futures import ProcessPoolExecutor
        chunks = [keys[i::workers] for i in range(workers)]
        found = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_fi_scan, chunk, keys, None)
                       for chunk in chunks]
            for fut in futures:
                found.extend(fut.result())
    return sweep_report("fundamental-identity", cases, found,
                        axiom="fundamental-identity", family="algebra")
