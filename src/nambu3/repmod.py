"""Weight modules over the ternary algebra and its derivation Lie algebra.

Vectors live on weight keys: a coset tag plus an integer offset.  A rational
tag is normalized into [0, 1) with the integer part folded into the offset,
so keys in one coset compare equal exactly when they name the same line.  A
symbolic tag (``a0``, ``a1``, ...) is *generic*: its weight is treated as
never hitting an integer, so the zero-weight special cases never fire and
coefficients stay nonzero polynomials.

Actions:

* ``TriWeightAction`` (CLI family ``T``): the ternary pair action where
  (L_r, M_s) shifts the offset by s-r and scales by lam + alpha + (s-r) mu;
  same-kind pairs act as zero.
* ``LieShiftAction`` (CLI family ``psi``): only the p generators act,
  scaling by lam + alpha - r mu and shifting by -r.
* ``LieZeroTwistAction`` (CLI family ``phi``): like the shift action with
  lam = 0, except the zero-weight line is twisted: p[r] sends v[0] to
  r(mu - r) v[-r], so v[0] reaches every v[-r] while nothing comes back.
* ``PullbackTriAction``: a ternary action built from a Lie action by
  decomposing ad(x, y) over the p/q/x/z generator basis and applying that.
* ``InducedLieAction``: the reverse construction, evaluating a ternary
  action on the expanded generator pairs; requires the ternary action to
  actually satisfy the module axioms (NotAModule otherwise).

``weight_action``, ``shift_action`` and ``zero_twist_action`` intern their
result in one bounded memo (``ACTION_MEMO_SIZE``): equal parameters give the
same object, so a warm kernel cache matches the action by identity instead
of comparing its parameters on every hit.

``check_tri_axiom1``/``check_tri_axiom2`` sweep the two ternary module
axioms on 4-tuples of basis keys over an index window.  The probe policy is
one generic-tag vector plus the rational lines v[-2..2], which covers both
the uniform coefficient formulas and every zero-weight special case.  Axiom
coefficients are polynomials of degree <= 2 in each index, so a 5-point
window per slot is conclusive for the coefficient identities; that rationale
is documentation, not a runtime assertion.

Every sweep takes cap-checked keys from ``window_keys`` or
``window_generators``, counts its cases from the grid sizes and builds its
report with ``sweep_report``.

Single-key applications are memoized in bounded caches, and ``tri_apply``
and ``lie_apply`` build their results from them without re-checking.  The
axiom sweeps keep tables of their own instead, freed when each sweep returns
(``_SweepTables``): an ``algebra._SweepTable``, the table type of every
sweep, with a row per basis pair ``(x, y)`` mapping weight keys to their
single-key terms and holding them at the probes in its ``seq``, and every
coefficient the sweep makes, interned under a small int id.  Cases
accumulate plain (key -> id) dicts through memos of the distinct products
and sums, building a vector of the interned Scalars only for an actual
defect; the grids are large and the distinct coefficients few.

``orbit_probe`` walks weight keys, not vectors: each windowed generator is
a kernel from a key to its merged nonzero terms (``_tri_key_terms``,
``_lie_key_terms``, or ``lie_apply`` on a one-key vector for an induced
action), and a line's images are the keys of those terms.

``check_tri_axiom2`` reports each defect as (sum of composed pair actions)
minus (action of the bracketed triple).  It evaluates a case once per cyclic
class of (x1, x2, x3) and reports the defect at every rotation: rotating the
triple only permutes the three composed terms, and the bracket of an even
permutation of its arguments is the same, so this holds for any action.
``counterexample_phi`` reports the designed failure the other way around,
bracket side first, because its published lhs/rhs split names the bracket
side lhs.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import floor
from typing import Iterable, NamedTuple, Union

from .algebra import (AlgElem, BasisKey, L, M, _SweepTable, bracket_keys,
                      window_keys)
from .derivations import (DEFAULT_PAIR_WINDOW, DerivExpr, PqxzElem, PqxzKey,
                          pair_to_pqxz, pqxz_key_bracket, pqxz_to_deriv,
                          window_generators)
from .errors import NotAModule, NotEigenvector
from .linear import LinComb, accumulate
from .reports import DefectReport, sweep_report
from .scalar import LAMBDA, MU, Frozen, Indeterminate, Scalar, divides

DEFAULT_AXIOM_WINDOW = range(-2, 3)

# bound of each per-action kernel cache below
KERNEL_CACHE_SIZE = 1 << 15
# bound of the memo that interns the T, psi and phi actions
ACTION_MEMO_SIZE = 256


class WeightKey(NamedTuple):
    tag: object
    offset: int

    @property
    def is_generic(self) -> bool:
        return isinstance(self.tag, str)

    def alpha(self) -> Scalar:
        return _alpha(self)

    @property
    def is_zero_weight(self) -> bool:
        # Normalized rational tags live in [0, 1), so alpha = 0 needs both
        # parts zero.  Generic tags never hit the zero weight.
        return not self.is_generic and not self.tag and not self.offset

    def shift(self, m: int) -> "WeightKey":
        return WeightKey(self.tag, self.offset + m)

    def sort_key(self):
        if self.is_generic:
            return (1, self.tag, self.offset)
        return (0, self.tag + self.offset)

    def __str__(self) -> str:
        if not self.is_generic:
            return str(self.tag + self.offset)
        if self.offset > 0:
            return f"{self.tag}+{self.offset}"
        if self.offset < 0:
            return f"{self.tag}{self.offset}"
        return str(self.tag)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _alpha(key: WeightKey) -> Scalar:
    if key.is_generic:
        return Scalar(Indeterminate(key.tag)) + key.offset
    return Scalar(key.tag + key.offset)


def weight_key(tag, offset: int = 0) -> WeightKey:
    """Build a normalized weight key from a rational or a tag symbol."""
    if isinstance(tag, Indeterminate):
        tag = tag.name
    if isinstance(tag, str):
        sym = Indeterminate(tag)
        if not sym.is_weight_tag:
            raise ValueError(f"{tag!r} is not a weight tag symbol")
        return WeightKey(tag, offset)
    frac = Fraction(tag)
    fold = floor(frac)
    rest = frac - fold
    # an integral tag is stored as int 0: it compares and hashes like
    # Fraction(0) but is far cheaper to hash in the kernel cache keys
    return WeightKey(rest if rest else 0, offset + fold)


class ModVec(LinComb):
    """Finite Scalar combination of weight keys."""

    @staticmethod
    def _check_key(key) -> None:
        if not isinstance(key, WeightKey):
            raise TypeError(f"ModVec keys must be WeightKey, got {key!r}")

    @staticmethod
    def _key_sort(key):
        return key.sort_key()

    @staticmethod
    def _format_key(key) -> str:
        return f"v[{key}]"


def _param(value, symbol: Indeterminate) -> Scalar:
    if value is None:
        return Scalar(symbol)
    return Scalar.coerce(value)


class TriWeightAction(Frozen):
    __slots__ = _fields = ("lam", "mu")


class LieShiftAction(Frozen):
    __slots__ = _fields = ("lam", "mu")


class LieZeroTwistAction(Frozen):
    __slots__ = _fields = ("mu",)


class PullbackTriAction(Frozen):
    __slots__ = _fields = ("lie",)    # a LieShiftAction or LieZeroTwistAction


class InducedLieAction(Frozen):
    __slots__ = _fields = ("tri", "axiom_window")   # tri: a TriAction

    def __init__(self, tri, axiom_window: tuple = tuple(DEFAULT_AXIOM_WINDOW)):
        super().__init__(tri, axiom_window)


TriAction = Union[TriWeightAction, PullbackTriAction]
LieAction = Union[LieShiftAction, LieZeroTwistAction, InducedLieAction]


@lru_cache(maxsize=ACTION_MEMO_SIZE)
def _interned(action):
    """The one live action equal to ``action``, so a kernel cache hit
    matches its action by identity instead of comparing parameters."""
    return action


def weight_action(lam=None, mu=None) -> TriWeightAction:
    """The T family; None leaves a parameter symbolic."""
    return _interned(TriWeightAction(_param(lam, LAMBDA), _param(mu, MU)))


def shift_action(lam=None, mu=None) -> LieShiftAction:
    """The psi family; None leaves a parameter symbolic."""
    return _interned(LieShiftAction(_param(lam, LAMBDA), _param(mu, MU)))


def zero_twist_action(mu=None) -> LieZeroTwistAction:
    """The phi family; None leaves mu symbolic."""
    return _interned(LieZeroTwistAction(_param(mu, MU)))


def action_family(action) -> str:
    if isinstance(action, TriWeightAction):
        return "T"
    if isinstance(action, LieShiftAction):
        return "psi"
    if isinstance(action, LieZeroTwistAction):
        return "phi"
    if isinstance(action, PullbackTriAction):
        return f"pullback({action_family(action.lie)})"
    if isinstance(action, InducedLieAction):
        return f"induced({action_family(action.tri)})"
    raise TypeError(f"not an action: {action!r}")


def action_parameters(action) -> tuple:
    if isinstance(action, (TriWeightAction, LieShiftAction,
                           LieZeroTwistAction)):
        return tuple(zip(action._fields, map(str, action._values)))
    if isinstance(action, PullbackTriAction):
        return action_parameters(action.lie)
    if isinstance(action, InducedLieAction):
        return action_parameters(action.tri)
    raise TypeError(f"not an action: {action!r}")


# -- single-key kernels -------------------------------------------------------

# Term tuples (key, Scalar) with zero coefficients dropped; memoized because
# the sweeps, the orbits and the induced actions revisit the same (pair, key)
# combinations constantly.  The axiom sweeps memoize ternary terms in their
# own tables (``_SweepTables.rows``) rather than in ``_tri_key_terms``.


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _lie_key_terms(action, k: PqxzKey, key: WeightKey) -> tuple:
    if isinstance(action, LieShiftAction):
        if k.family != "p":
            return ()
        r = k.index
        coeff = action.lam + key.alpha() + action.mu * (-r)
        if not coeff:
            return ()
        return ((key.shift(-r), coeff),)
    if isinstance(action, LieZeroTwistAction):
        if k.family != "p":
            return ()
        r = k.index
        if key.is_zero_weight:
            coeff = (action.mu - r) * r
        else:
            coeff = key.alpha() - r if r else key.alpha()
        if not coeff:
            return ()
        return ((key.shift(-r), coeff),)
    raise TypeError(f"not a closed-form Lie action: {action!r}")


def _tri_terms(action, x: BasisKey, y: BasisKey, key: WeightKey) -> tuple:
    if isinstance(action, TriWeightAction):
        if x.kind == y.kind:
            return ()
        sign = 1
        if x.kind == "M":
            x, y, sign = y, x, -1
        shift = y.index - x.index
        coeff = action.lam + key.alpha() + action.mu * shift
        if sign < 0:
            coeff = -coeff
        if not coeff:
            return ()
        return ((key.shift(shift), coeff),)
    if isinstance(action, PullbackTriAction):
        if x == y:
            return ()
        acc: dict = {}
        for pk, c in pair_to_pqxz(x, y)._terms.items():
            for k2, c2 in _lie_key_terms(action.lie, pk, key):
                accumulate(acc, k2, c2 * c)
        return tuple(acc.items())
    raise TypeError(f"not a ternary action: {action!r}")


_tri_key_terms = lru_cache(maxsize=KERNEL_CACHE_SIZE)(_tri_terms)


def _intern(ids: dict, values: list, c: Scalar) -> int:
    """The id of ``c`` among one sweep's coefficients, added on first
    sight."""
    i = ids.get(c)
    if i is None:
        i = ids[c] = len(values)
        values.append(c)
    return i


def _interned_terms(action, ids: dict, values: list, x: BasisKey,
                    y: BasisKey, key: WeightKey) -> tuple:
    """``_tri_terms(action, x, y, key)`` as ``(key, id)`` pairs, each id
    that of the coefficient among one sweep's interned ones."""
    return tuple((k, _intern(ids, values, c))
                 for k, c in _tri_terms(action, x, y, key))


class _SweepTables:
    """The pair rows and the coefficient arithmetic of one axiom sweep.

    ``rows[x, y][key]`` is ``_interned_terms`` of the pair at the weight
    key, and ``rows[x, y].seq`` holds them at the probe keys.

    Every coefficient the sweep makes is interned: ``values[i]`` is the
    Scalar with id ``i``, ``ids`` maps it back, and id 0 is zero.  Rows,
    products, sums and each case's accumulator hold ids, so each distinct
    product (``(c, c2, sign)`` composed, ``(c2, b)`` bracket-scaled) and
    each distinct sum ``(tot, prod)`` is computed once per sweep, and a case
    hashes and compares only ints.
    """

    def __init__(self, action, probe_keys: tuple):
        self.values: list = [Scalar(0)]
        self.ids: dict = {self.values[0]: 0}
        # a partial, not a bound method: no row refers back to the tables
        self.rows = _SweepTable(
            partial(_interned_terms, action, self.ids, self.values),
            probe_keys)
        self.prods: dict = {}
        self.sums: dict = {}

    def _add(self, acc: dict, key, p: int) -> None:
        """Add the coefficient with id ``p`` into acc[key], dropping the key
        when the sum is zero."""
        tot = acc.get(key)
        if tot is not None:
            s = self.sums.get((tot, p))
            if s is None:
                values = self.values
                s = self.sums[tot, p] = _intern(self.ids, values,
                                                values[tot] + values[p])
            p = s
        if p:
            acc[key] = p
        else:
            acc.pop(key, None)

    def compose_into(self, acc: dict, row: dict, terms,
                     sign: int = 1) -> None:
        """Add sign * (row's pair applied to the vector ``terms``)."""
        prods, add = self.prods, self._add
        for key, c in terms:
            for k2, c2 in row[key]:
                pk = (c, c2, sign)
                p = prods.get(pk)
                if p is None:
                    p = prods[pk] = self._product(c, c2, sign)
                add(acc, k2, p)

    def _product(self, c: int, c2: int, sign: int) -> int:
        # the product made with the other sign, if any, is negated instead
        values = self.values
        other = self.prods.get((c, c2, -sign))
        if other is not None:
            prod = -values[other]
        else:
            prod = values[c] * values[c2]
            if sign < 0:
                prod = -prod
        return _intern(self.ids, values, prod)

    def scale_into(self, acc: dict, terms, b: int) -> None:
        """Add each term of ``terms`` times the bracket coefficient ``b``."""
        prods, values, add = self.prods, self.values, self._add
        for k2, c2 in terms:
            pk = (c2, b)
            p = prods.get(pk)
            if p is None:
                p = prods[pk] = _intern(self.ids, values, values[c2] * b)
            add(acc, k2, p)

    def defect(self, acc: dict) -> ModVec:
        """The vector of a case's accumulator, over the interned Scalars."""
        values = self.values
        return ModVec._of({k: values[i] for k, i in acc.items()})


# -- applying actions ----------------------------------------------------------


def tri_apply(action: TriAction, x: BasisKey, y: BasisKey, v: ModVec) -> ModVec:
    """Apply the pair (x, y) of a ternary action to a module vector."""
    acc: dict = {}
    for key, c in v._terms.items():
        for k2, c2 in _tri_key_terms(action, x, y, key):
            accumulate(acc, k2, c * c2)
    return ModVec._of(acc)


def tri_apply_elem(action: TriAction, xe: AlgElem, ye: AlgElem,
                   v: ModVec) -> ModVec:
    return ModVec.combine((tri_apply(action, kx, ky, v), cx * cy)
                          for kx, cx in xe._terms.items()
                          for ky, cy in ye._terms.items())


def lie_apply(action: LieAction, k: PqxzKey, v: ModVec) -> ModVec:
    """Apply one p/q/x/z generator of a Lie action to a module vector."""
    if isinstance(action, InducedLieAction):
        return induce_apply(action.tri, pqxz_to_deriv(k), v,
                            axiom_window=action.axiom_window)
    acc: dict = {}
    for key, c in v._terms.items():
        for k2, c2 in _lie_key_terms(action, k, key):
            accumulate(acc, k2, c * c2)
    return ModVec._of(acc)


def lie_elem_apply(action: LieAction, e: PqxzElem, v: ModVec) -> ModVec:
    return ModVec.combine((lie_apply(action, key, v), c)
                          for key, c in e._terms.items())


# -- probe policy ----------------------------------------------------------------


def default_probes() -> tuple:
    """One generic-tag probe plus the rational lines v[-2..2]."""
    return (weight_key("a0"),) + tuple(weight_key(m) for m in range(-2, 3))


def _probe_keys(probes) -> tuple:
    return default_probes() if probes is None else tuple(probes)


# -- ternary module axioms ---------------------------------------------------------


def check_tri_axiom1(action: TriAction,
                     window: Iterable[int] = DEFAULT_AXIOM_WINDOW,
                     probes=None) -> DefectReport:
    """Pair actions must close: commuting two pairs equals acting by the
    bracketed arguments, summed over the two insertion slots."""
    keys = window_keys(window)
    probe_keys = _probe_keys(probes)
    tables = _SweepTables(action, probe_keys)
    rows, defect = tables.rows, tables.defect
    compose_into, scale_into = tables.compose_into, tables.scale_into
    nones = [None] * len(probe_keys)
    found = []
    for x1 in keys:
        for x2 in keys:
            r12 = rows[x1, x2]
            b12 = {x: bracket_keys(x1, x2, x) for x in keys}
            for x3 in keys:
                b123 = b12[x3]
                for x4 in keys:
                    r34 = rows[x3, x4]
                    b124 = b12[x4]
                    s123 = (rows[b123[1], x4].seq if b123 is not None
                            else nones)
                    s124 = (rows[x3, b124[1]].seq if b124 is not None
                            else nones)
                    for probe, t12, t34, t123, t124 in zip(
                            probe_keys, r12.seq, r34.seq, s123, s124):
                        acc: dict = {}
                        compose_into(acc, r12, t34)
                        compose_into(acc, r34, t12, sign=-1)
                        if t123 is not None:
                            scale_into(acc, t123, -b123[0])
                        if t124 is not None:
                            scale_into(acc, t124, -b124[0])
                        if acc:
                            found.append(((x1, x2, x3, x4), probe,
                                          defect(acc)))
    return sweep_report("tri-axiom-1", len(keys) ** 4 * len(probe_keys), found,
                        axiom="tri-axiom-1", family=action_family(action),
                        parameters=action_parameters(action))


def check_tri_axiom2(action: TriAction,
                     window: Iterable[int] = DEFAULT_AXIOM_WINDOW,
                     probes=None) -> DefectReport:
    """Acting by a bracketed triple must match the cyclic sum of composed
    pair actions.  Defects are reported as composed-products side minus
    bracket-action side.

    A case's defect is rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
    + rho(x3,x1)rho(x2,x4) - b rho([x1,x2,x3], x4).  Rotating (x1, x2, x3)
    only permutes the three composed terms, and ``bracket_keys`` gives an
    even permutation of its arguments the same (coefficient, key).  So each
    cyclic class of (x1, x2, x3) is evaluated once, at its least rotation,
    and its defect, one shared vector, is reported at every distinct
    rotation with the same x4 and probe: 340 classes of 1,000 triples on
    the default window.  No property of the action is used, and the report
    still counts every case.
    """
    keys = window_keys(window)
    probe_keys = _probe_keys(probes)
    tables = _SweepTables(action, probe_keys)
    rows, defect = tables.rows, tables.defect
    compose_into, scale_into = tables.compose_into, tables.scale_into
    nones = [None] * len(probe_keys)
    found = []
    for x1 in keys:
        for x2 in keys:
            for x3 in keys:
                triple = (x1, x2, x3)
                if triple > (x2, x3, x1) or triple > (x3, x1, x2):
                    continue
                rotations = ((triple,) if x1 == x2 == x3
                             else (triple, (x2, x3, x1), (x3, x1, x2)))
                r12, r23, r31 = rows[x1, x2], rows[x2, x3], rows[x3, x1]
                b123 = bracket_keys(x1, x2, x3)
                for x4 in keys:
                    s123 = (rows[b123[1], x4].seq if b123 is not None
                            else nones)
                    for probe, t34, t14, t24, t123 in zip(
                            probe_keys, rows[x3, x4].seq, rows[x1, x4].seq,
                            rows[x2, x4].seq, s123):
                        acc: dict = {}
                        compose_into(acc, r12, t34)
                        compose_into(acc, r23, t14)
                        compose_into(acc, r31, t24)
                        if t123 is not None:
                            scale_into(acc, t123, -b123[0])
                        if acc:
                            vec = defect(acc)
                            found.extend(((*t, x4), probe, vec)
                                         for t in rotations)
    return sweep_report("tri-axiom-2", len(keys) ** 4 * len(probe_keys), found,
                        axiom="tri-axiom-2", family=action_family(action),
                        parameters=action_parameters(action))


# -- weights -------------------------------------------------------------------------


class WeightReport(NamedTuple):
    rows: list

    @property
    def all_multiplicity_one(self) -> bool:
        return all(mult == 1 for _, _, mult in self.rows)


def weight_report(action: TriAction, keys: Iterable[WeightKey]) -> WeightReport:
    """Diagonalize the (L[0], M[0]) pair action on the supplied keys.

    Every key must be an eigenvector; the report lists (key, weight,
    multiplicity of that weight within the supplied list).
    """
    keys = list(keys)
    weights = {}
    for key in keys:
        out = tri_apply(action, L(0), M(0), ModVec.term(key))
        if any(k != key for k in out._terms):
            raise NotEigenvector(
                f"v[{key}] is not an eigenvector of the (L[0],M[0]) action: "
                f"{out}")
        weights[key] = out.coeff(key)
    counts: dict = {}
    for w in weights.values():
        counts[w] = counts.get(w, 0) + 1
    rows = [(key, weights[key], counts[weights[key]])
            for key in sorted(set(keys), key=lambda k: k.sort_key())]
    return WeightReport(rows)


# -- orbit evidence -------------------------------------------------------------------


class OrbitReport(NamedTuple):
    start: WeightKey
    classification: str
    reached: tuple
    missed: tuple


def _orbit_kernels(action, window) -> list:
    """Each windowed generator as a map from a weight key to its merged
    nonzero terms."""
    if isinstance(action, (TriWeightAction, PullbackTriAction)):
        keys = window_keys(window)
        return [partial(_tri_key_terms, action, x, y)
                for x in keys for y in keys if x != y]
    if isinstance(action, InducedLieAction):
        return [lambda key, k=g: lie_apply(action, k,
                                           ModVec.term(key))._terms.items()
                for g in window_generators(window)]
    return [partial(_lie_key_terms, action, g)
            for g in window_generators(window)]


def orbit_probe(action, start: WeightKey,
                window: Iterable[int] = DEFAULT_PAIR_WINDOW) -> OrbitReport:
    """Close a start line under all windowed generator actions.

    Exploration is restricted to the start's coset within the window span,
    and walks weight keys: a line's images are the keys of the nonzero
    terms each generator's kernel gives it.
    Classification: "trivial-line" when every generator kills the start,
    "transitive-on-window" when the whole windowed coset is reached,
    otherwise "invariant-window-subspace" with the missed keys listed.
    """
    points = sorted(set(window))
    candidates = {WeightKey(start.tag, m) for m in points}
    candidates.add(start)
    kernels = _orbit_kernels(action, window)

    def images(key: WeightKey) -> set:
        return {k for kernel in kernels for k, _ in kernel(key)}

    found = images(start)
    trivial = not found
    reached = {start}
    while True:
        new = (found & candidates) - reached
        if not new:
            break
        reached |= new
        found = set().union(*map(images, new))

    missed = candidates - reached
    if trivial:
        classification = "trivial-line"
    elif not missed:
        classification = "transitive-on-window"
    else:
        classification = "invariant-window-subspace"
    order = WeightKey.sort_key
    return OrbitReport(start=start,
                       classification=classification,
                       reached=tuple(sorted(reached, key=order)),
                       missed=tuple(sorted(missed, key=order)))


# -- Lie module check ---------------------------------------------------------------------


def check_lie_module(action: LieAction,
                     window: Iterable[int] = DEFAULT_PAIR_WINDOW,
                     probes=None) -> DefectReport:
    """Generator commutators must act as the bracketed generator does."""
    gens = window_generators(window)
    pv = [(p, ModVec.term(p)) for p in _probe_keys(probes)]
    found = []
    for ka in gens:
        for kb in gens:
            table = pqxz_key_bracket(ka, kb)
            for probe, v in pv:
                defect = (lie_apply(action, ka, lie_apply(action, kb, v))
                          - lie_apply(action, kb, lie_apply(action, ka, v))
                          - lie_elem_apply(action, table, v))
                if defect:
                    found.append(((ka, kb), probe, defect))
    return sweep_report("lie-commutator", len(gens) ** 2 * len(pv), found,
                        axiom="lie-commutator", family=action_family(action),
                        parameters=action_parameters(action))


# -- induced actions ------------------------------------------------------------------------


def _module_verdict(action, window: Iterable[int], probes=None,
                    label: str = "module-axioms") -> tuple:
    """Both module axioms on the window: (report under label, accepted)."""
    r1 = check_tri_axiom1(action, window, probes)
    r2 = check_tri_axiom2(action, window, probes)
    report = r1.merged_with(r2, label)
    return report, _within_parameter_gate(action, report)


# the cached verdict the induced actions read; keyed by normalized windows
_module_gate = lru_cache(maxsize=64)(_module_verdict)


def _verdict(action, window: Iterable[int]) -> tuple:
    return _module_gate(action, tuple(sorted(set(window))))


def verify_module(action: TriAction,
                  window: Iterable[int] = DEFAULT_AXIOM_WINDOW) -> DefectReport:
    """Both ternary module axioms on the window, cached per action."""
    return _verdict(action, window)[0]


def _within_parameter_gate(tri, report: DefectReport) -> bool:
    # The one rule for which parameters give a module.  Pullbacks and
    # rational mu need a clean report, and mu a root of mu^2 - mu.  Symbolic
    # mu needs a clean first axiom and each distinct defect coefficient in
    # the ideal (mu^2 - mu): such parameters specialize to real modules.
    mu = getattr(tri, "mu", None)
    if mu is None:
        return report.passed
    gate = mu * mu - mu
    if mu.is_rational:
        return report.passed and not gate
    if any(entry.axiom != "tri-axiom-2" for entry in report.entries):
        return False
    coeffs = {c for entry in report.entries
              for c in entry.defect._terms.values()}
    return all(divides(gate, c) for c in coeffs)


def _gate_or_raise(tri: TriAction, axiom_window) -> None:
    report, accepted = _verdict(tri, axiom_window)
    if accepted:
        return
    raise NotAModule(
        f"cannot induce from {action_family(tri)}"
        f"({dict(action_parameters(tri))}): "
        f"{len(report.entries)} module-axiom defects on the window",
        report=report)


def induce_apply(tri: TriAction, d: DerivExpr, v: ModVec, *,
                 require_module: bool = True,
                 axiom_window: Iterable[int] = DEFAULT_AXIOM_WINDOW) -> ModVec:
    """Evaluate a derivation expression through a ternary action.

    Inducing a Lie action this way is only sound when the ternary action
    satisfies the module axioms on ``axiom_window``, so the cached verdict
    of ``_within_parameter_gate`` is read and NotAModule raised when it
    rejects the action.  A rational mu must be 0 or 1 even where the window
    is too small to show a defect; a fully symbolic mu passes as long as
    every residual defect is divisible by mu^2 - mu, since those actions
    specialize to genuine modules.  ``require_module=False`` skips the gate
    entirely for callers probing well-definedness itself.
    """
    if require_module:
        _gate_or_raise(tri, axiom_window)
    return ModVec.combine((tri_apply(tri, u, w, v), c)
                          for (u, w), c in d._terms.items())


def check_induced(tri: TriAction, lie: LieAction,
                  window: Iterable[int] = DEFAULT_PAIR_WINDOW,
                  probes=None,
                  axiom_window: Iterable[int] = DEFAULT_AXIOM_WINDOW,
                  ) -> DefectReport:
    """Compare the action induced from a ternary module with a Lie action.

    Every generator in the window is expanded into pair derivations,
    pushed through the ternary action, and matched against the Lie action
    on every probe.  Propagates NotAModule when the ternary side fails its
    axioms on the axiom window.
    """
    _gate_or_raise(tri, axiom_window)
    gens = window_generators(window)
    pv = [(p, ModVec.term(p)) for p in _probe_keys(probes)]
    found = []
    for k in gens:
        expanded = pqxz_to_deriv(k)
        for probe, v in pv:
            defect = (induce_apply(tri, expanded, v, require_module=False)
                      - lie_apply(lie, k, v))
            if defect:
                found.append(((k,), probe, defect))
    return sweep_report(
        "induced-match", len(gens) * len(pv), found, axiom="induced-match",
        family=f"{action_family(lie)} vs induced({action_family(tri)})",
        parameters=action_parameters(lie))


# -- the designed failure ----------------------------------------------------------------------


def pullback_candidate(lie: LieAction) -> PullbackTriAction:
    """Ternary action candidate pulled back through generator decomposition."""
    if not isinstance(lie, (LieShiftAction, LieZeroTwistAction)):
        raise TypeError("pullback candidates are built from psi or phi actions")
    return PullbackTriAction(lie)


COUNTEREXAMPLE_TUPLE = (L(4), L(3), M(2), M(1))


def counterexample_phi(mu=None):
    """Evaluate both sides of the second module axiom for the phi pullback
    at the pinned witness (L[4], L[3], M[2], M[1]) on v[0].

    Returns (lhs, rhs, defect): lhs is the bracket-action side, rhs the
    composed-products side, defect = lhs - rhs.  The defect is a nonzero
    rational multiple of v[-4] for every mu, which is what rules the
    candidate out as a module.
    """
    action = pullback_candidate(zero_twist_action(mu))
    x1, x2, x3, x4 = COUNTEREXAMPLE_TUPLE
    v0 = ModVec.term(weight_key(0))
    b123 = bracket_keys(x1, x2, x3)
    lhs = ModVec.zero()
    if b123 is not None:
        lhs = tri_apply(action, b123[1], x4, v0) * b123[0]
    rhs = (tri_apply(action, x1, x2, tri_apply(action, x3, x4, v0))
           + tri_apply(action, x2, x3, tri_apply(action, x1, x4, v0))
           + tri_apply(action, x3, x1, tri_apply(action, x2, x4, v0)))
    return lhs, rhs, lhs - rhs
