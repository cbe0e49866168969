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
sweep), one case per antisymmetry class of the table.  The sweep reads
``bracket_keys`` as a module global, which is where a fault is injected; an
injected table must stay totally antisymmetric, as ``bracket_keys`` is.
``_fan_out`` runs the sweep on several processes: it forks a child per
share of the first keys but one, scans that share itself and reads each
child's pickled defects from a pipe; only a fan-out imports ``pickle``.
``_SweepTables`` adds int-interned keys and coefficients and the one probe
loop of the commutator scan and both module axioms.  Indices are Laurent-mode
integers capped at +/-2^40; a window index (sweeps take their keys from
``window_keys``) or index arithmetic that leaves the cap raises
IndexOverflow.  The bracket lowers no degree bound and shifts indices by at
most the sum of its inputs, so a window check exercises every structure
constant whose indices fit: coefficients are affine in each index and the
identity is index-translation covariant, which is why small windows give
window evidence for the table, not a proof.
"""
from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterable, NamedTuple

from .errors import IndexOverflow, WorkerLost
from .linear import LinComb, accumulate
from .reports import DefectReport, signed_orderings, sweep_report

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


def _id(ids: dict, values: list, x) -> int:
    """The index of ``x`` in ``values``, added on first sight."""
    i = ids.setdefault(x, len(values))
    if i == len(values):
        values.append(x)
    return i


def _intern(ids: dict, values: list, c) -> int:
    """The id of ``c``; every zero, ``int`` or Scalar, is id 0."""
    return _id(ids, values, c) if c else 0


def _interned_terms(kernel: Callable, ids: dict, values: list, key_ids: dict,
                    keys: list, *args) -> tuple:
    """``kernel(*head, keys[k])`` for ``args = (*head, k)``, as id pairs."""
    return tuple((_id(key_ids, keys, key), _intern(ids, values, c))
                 for key, c in kernel(*args[:-1], keys[args[-1]]))


class _SweepTables:
    """The kernel rows, coefficient arithmetic and probe loop of one sweep.

    Keys and coefficients are ints: ``keys[i]`` (the probes first) and
    ``values[i]`` have id ``i``, and value 0 is zero.  Rows and sums hold
    ids, so each distinct product and sum is made once per sweep.
    """

    def __init__(self, kernel: Callable, probes: tuple):
        self.values: list = [0]
        self.ids: dict = {}
        self.keys: list = list(probes)
        # a partial, not a bound method: no row refers back to the tables
        self.rows = _SweepTable(
            partial(_interned_terms, kernel, self.ids, self.values,
                    {k: i for i, k in enumerate(probes)}, self.keys),
            range(len(probes)))
        self.prods: dict = {}
        self.scales: dict = {}
        self.sums: dict = {}

    def add_terms(self, accs: list, terms) -> None:
        """Add sign * (row applied to ``seq[i]``) into ``accs[i]`` at each
        probe ``i`` for each ``(row, seq, sign)`` of ``terms``, dropping a
        key whose sum is zero."""
        prods, sums, ids, values = self.prods, self.sums, self.ids, self.values
        for row, seq, sign in terms:
            for acc, vec in zip(accs, seq):
                for key, c in vec:
                    for k2, c2 in row[key]:
                        pk = (c, c2, sign)
                        p = prods.get(pk)
                        if p is None:
                            p = prods[pk] = self._product(c, c2, sign)
                        tot = acc.get(k2)
                        if tot is not None:
                            s = sums.get((tot, p))
                            if s is None:
                                s = sums[tot, p] = _intern(
                                    ids, values, values[tot] + values[p])
                            p = s
                        if p:
                            acc[k2] = p
                        else:
                            acc.pop(k2, None)

    def scan_case(self, found: list, shared, orders) -> None:
        """One case at every probe: each ``(head, own)`` of ``orders`` adds to
        a copy of the ``shared`` sums (the last order to the sums), and each
        nonzero sum goes to ``found`` as ``(head, probe, acc)``."""
        common = [{} for _ in self.rows.keys]
        self.add_terms(common, shared)
        sums = [common if order is orders[-1] else [dict(a) for a in common]
                for order in orders]
        for order, accs in zip(orders, sums):
            self.add_terms(accs, order[1])
        if any(map(any, sums)):
            found.extend((order[0], self.keys[i], accs[i])
                         for i in self.rows.keys
                         for order, accs in zip(orders, sums) if accs[i])

    def scaled(self, b) -> list:
        """Each probe key times the rational ``b``, as a ``seq``: a row
        composed with it is b times the row's own ``seq``."""
        seq = self.scales.get(b)
        if seq is None:
            i = _intern(self.ids, self.values, b)
            seq = self.scales[b] = [((k, i),) for k in self.rows.keys]
        return seq

    def _product(self, c: int, c2: int, sign: int) -> int:
        # the product made with the other sign, if any, is negated instead
        other = self.prods.get((c, c2, -sign))
        if other is not None:
            return self.neg(other)
        prod = self.values[c] * self.values[c2]
        return _intern(self.ids, self.values, prod if sign > 0 else -prod)

    def neg(self, c: int) -> int:
        """The id of minus the coefficient with id ``c``, memoized."""
        p = self.prods.get((c, -1))
        if p is None:
            p = self.prods[c, -1] = _intern(self.ids, self.values,
                                            -self.values[c])
        return p

    def coeffs(self, acc: dict, sign: int = 1) -> dict:
        """An accumulator as keys and coefficients, times ``sign``; equal
        coefficients are one object."""
        keys, values = self.keys, self.values
        return {keys[k]: values[i if sign > 0 else self.neg(i)]
                for k, i in acc.items()}


# (permutation of a case's five keys, its sign): the 2 orders of (x1, x2)
# times the 6 orders of (x3, x4, x5)
_FI_ORDERINGS = signed_orderings(2, 3)


def _fi_scan(firsts: Iterable[int], keys: tuple) -> list:
    """Defects of [x1,x2,[x3,x4,x5]] = [[x1,x2,x3],x4,x5]
    + [x3,[x1,x2,x4],x5] + [x3,x4,[x1,x2,x5]] for x1 at the positions
    ``firsts`` of ``keys``, as ``sweep_report`` triples with the defect at
    the evaluated ordering.

    ``bracket_keys`` sorts its arguments, so it is totally antisymmetric:
    both sides are then antisymmetric in (x1, x2) and in (x3, x4, x5), and
    zero on a repeated key in either group.  So the scan evaluates only
    x1 < x2 and x3 < x4 < x5 (``keys`` is sorted), and each defect stands
    for its 12 signed orderings (``_FI_ORDERINGS``).  The table is read as a
    module global when the scan starts, so a fault injected there must stay
    totally antisymmetric.

    Every bracket is a lookup in one table local to the scan, keyed by its
    first two arguments: the row (x1, x2) is ad(x1, x2), the row (x3, x4)
    holds the inner brackets and the third outer one, and the rows
    (image, x4) and (x3, image) the other two outer brackets, where
    ``image`` is a key ad(x1, x2) lands on.  So the table is called once per
    distinct argument triple (10,248 times at -3..3).
    """
    table = _SweepTable(bracket_keys, keys)
    nones = [None] * len(keys)
    found = []
    for i1 in firsts:
        x1 = keys[i1]
        for x2 in keys[i1 + 1:]:
            ad = table[x1, x2]
            for i3, (x3, first) in enumerate(zip(keys, ad.seq)):
                for i4 in range(i3 + 1, len(keys) - 1):
                    x4, second = keys[i4], ad.seq[i4]
                    inners = table[x3, x4]
                    outer1 = (nones if first is None
                              else table[first[1], x4].seq)
                    outer2 = (nones if second is None
                              else table[x3, second[1]].seq)
                    lo = i4 + 1
                    for x5, inner, third, hit1, hit2 in zip(
                            keys[lo:], inners.seq[lo:], ad.seq[lo:],
                            outer1[lo:], outer2[lo:]):
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


def _resolve_parallelism(parallelism: int, chunks: int) -> int:
    # never more workers than CPUs this process may run on or non-empty
    # chunks, and one where processes cannot fork
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(parallelism, cpus, chunks))


def _deal(count: int, shares: int) -> list:
    """Positions ``0 .. count - 1`` dealt into ``shares`` lists back and
    forth, so that the shares' (x1, x2) pair counts are balanced: the first
    position heads the most pairs, each later one one pair fewer."""
    out = [[] for _ in range(shares)]
    for i in range(count):
        lap, k = divmod(i, shares)
        out[-1 - k if lap % 2 else k].append(i)
    return out


def _scan_share(r: int, w: int, share: list, keys: tuple) -> None:
    # the whole life of a forked child: it sends its defects, or the
    # exception its scan raised, pickled through the pipe ``w`` and leaves
    # through os._exit, so it never returns into its parent's frames
    code = 1
    try:
        import pickle  # loaded by the parent before it forked

        os.close(r)
        try:
            result = _fi_scan(share, keys)
        except BaseException as exc:  # raised again in the parent
            result = exc.with_traceback(None)
        with open(w, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def _fan_out(shares: list, keys: tuple) -> list:
    """``_fi_scan`` over every share: one forked child per share after the
    first, which this process scans itself.

    A child's exception is raised again here; a child that cannot start or
    ends without a result raises WorkerLost.  Every child is reaped before
    this returns, and killed first if this process is unwinding.
    """
    import pickle  # only a fan-out pickles
    import signal

    children = []  # (pid, read end of its pipe), in share order
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if not pid:
                    _scan_share(r, w, share, keys)
            except OSError as exc:
                os.close(r)
                raise WorkerLost(f"cannot start an fi worker: {exc}") from None
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        found = _fi_scan(shares[0], keys)
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                raise WorkerLost(
                    "an fi worker process ended without its result (exit "
                    f"status {os.waitstatus_to_exitcode(status)})")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            found.extend(result)
        return found
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def check_fundamental(window: Iterable[int] = DEFAULT_FI_WINDOW,
                      parallelism: int = 1) -> DefectReport:
    """Sweep the ternary Jacobi identity over all key 5-tuples in the window.

    ``_fi_scan`` evaluates one case per antisymmetry class; with
    ``parallelism`` above one, ``_fan_out`` splits it over forked processes.
    Entries are sorted, so the report is deterministic and the same for
    every worker count.
    """
    keys = window_keys(window)
    n = len(keys)
    # the last first key has no later second key
    workers = _resolve_parallelism(parallelism, n - 1)
    if workers <= 1:
        found = _fi_scan(range(n), keys)
    else:
        found = _fan_out(_deal(n - 1, workers), keys)
    return sweep_report("fundamental-identity", n ** 5, found,
                        axiom="fundamental-identity", family="algebra",
                        orderings=_FI_ORDERINGS)
