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
  action on the expanded generator pairs; building one reads the module
  gate and raises NotAModule when the ternary action is no module.

``weight_action``, ``shift_action`` and ``zero_twist_action`` intern their
result in one bounded memo (``ACTION_MEMO_SIZE``): equal parameters give the
same object, so a warm kernel cache matches the action by identity instead
of comparing its parameters on every hit.

``check_tri_axiom1``/``check_tri_axiom2`` sweep the two ternary module
axioms on 4-tuples of basis keys over an index window.  The probe policy is
one generic-tag vector plus the rational lines v[-2..2], which covers both
the uniform coefficient formulas and every zero-weight special case.  Axiom
coefficients are polynomials of degree <= 2 in each index, so a 5-point
window per slot gives window evidence for the coefficient identities, not a
proof; that rationale is documentation, not a runtime assertion.

Every sweep takes cap-checked keys from ``window_keys`` or
``window_generators``, counts its cases from the grid sizes and builds its
report with ``sweep_report``.

Single-key applications are memoized in bounded caches, and every map
fixed on keys is extended linearly by ``linear.extend``: ``tri_apply`` and
``lie_apply`` over a vector, the pullback and induced kernels over an
expansion, ``check_induced`` over its two sides.  The
module sweeps keep tables of their own instead, freed when each sweep
returns: an ``algebra._SweepTables`` with a row per sorted pair ``(x, y)``
(read through ``_pair_terms``) or per generator, and every coefficient
interned under a small int id.  ``check_tri_axiom1`` and ``check_lie_module``
are ``derivations._commutator_scan``, the first over sorted pairs of window
keys with ``_ad_on_pair`` as their bracket, at both orders of two pairs
(``_axiom1_orders``), the second at one order of two generators, since the
generator bracket is read on g∧g.  ``check_tri_axiom2`` enumerates triples
and x4, and hands each case to the same probe loop,
``_SweepTables.scan_case``.  ``_module_verdict`` runs both axioms on one
``_pair_tables``, freed when it returns.

``orbit_probe`` walks weight keys, not vectors: each windowed generator is
a kernel from a key to its merged nonzero terms (``_tri_key_terms``, or
``_lie_key_terms``, which the Lie sweep and ``check_induced`` read too),
and a line's images are the keys of those terms.

``check_tri_axiom2`` reports each defect as (sum of composed pair actions)
minus (action of the bracketed triple).  A pair action is a map on A∧A, so
rho(y, x) = -rho(x, y) and rho(x, x) = 0 by definition: ``_tri_terms``
gives rho on a sorted pair x < y only, and ``_tri_key_terms`` and both
axiom sweeps read every other order from it through ``algebra.wedge``, the
one pair order.  So a defect is antisymmetric in (x1, x2) and in
(x3, x4) (axiom 1), or in (x1, x2, x3) (axiom 2), and zero on a repeated
key: each sweep evaluates one case per class, keeps rows for sorted pairs
only, and reports each defect at every signed ordering.
``counterexample_phi`` reports the designed failure the other way around,
bracket side first, because its published lhs/rhs split names the bracket
side lhs.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import floor
from typing import Iterable, NamedTuple, Union

from .algebra import (AlgElem, BasisKey, L, M, _SweepTable, _SweepTables,
                      bracket_keys, wedge, window_keys)
from .derivations import (DEFAULT_PAIR_WINDOW, DerivExpr, PqxzElem, PqxzKey,
                          _commutator_scan, _wedge_orders, pair_to_pqxz,
                          pqxz_to_deriv, window_generators)
from .errors import NotAModule, NotEigenvector
from .linear import LinComb, extend
from .reports import DefectReport, signed_orderings, sweep_report
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
    __slots__ = _fields = ("tri",)    # a TriAction the module gate accepts

    def __init__(self, tri):
        _gate_or_raise(tri)
        super().__init__(tri)


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
# combinations constantly.  Each cache is a decorated function that looks its
# kernel up when called: a patched kernel reaches it once the cache is cleared.


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _lie_key_terms(action, k: PqxzKey, key: WeightKey) -> tuple:
    if isinstance(action, (LieShiftAction, LieZeroTwistAction)):
        # phi is psi at lam = 0, mu = 1 off the zero-weight line
        if k.family != "p":
            return ()
        r = k.index
        if isinstance(action, LieShiftAction):
            coeff = action.lam + key.alpha() + action.mu * (-r)
        elif key.is_zero_weight:
            coeff = (action.mu - r) * r
        else:
            coeff = key.alpha() - r if r else key.alpha()
        return ((key.shift(-r), coeff),) if coeff else ()
    if isinstance(action, InducedLieAction):
        return tuple(extend((_tri_key_terms(action.tri, u, w, key), c)
                            for (u, w), c in _expansion(k)._terms.items()
                            ).items())
    raise TypeError(f"not a Lie action: {action!r}")


def _tri_terms(action, x: BasisKey, y: BasisKey, key: WeightKey) -> tuple:
    """rho(x, y) on ``key`` for a sorted pair x < y; read it through
    ``_tri_key_terms``, which gives every other order."""
    if isinstance(action, TriWeightAction):
        # x < y of different kinds: x is the L and y the M
        if x.kind == y.kind:
            return ()
        shift = y.index - x.index
        coeff = action.lam + key.alpha() + action.mu * shift
        return ((key.shift(shift), coeff),) if coeff else ()
    if isinstance(action, PullbackTriAction):
        return tuple(extend((_lie_key_terms(action.lie, pk, key), c)
                            for pk, c in pair_to_pqxz(x, y)._terms.items()
                            ).items())
    raise TypeError(f"not a ternary action: {action!r}")


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _tri_key_terms(action, x: BasisKey, y: BasisKey, key: WeightKey) -> tuple:
    """rho(x, y) on ``key`` read on A∧A: ``_tri_terms`` of the ``wedge``
    order of the pair, negated when the pair comes swapped, and nothing
    when x == y."""
    return tuple((k, c if s > 0 else -c) for pair, s in wedge(x, y, 1)
                 for k, c in _tri_terms(action, *pair, key))


# each generator's ad pairs, expanded once for all the keys it meets
@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _expansion(k: PqxzKey) -> DerivExpr:
    return pqxz_to_deriv(k)


def _pair_terms(action, pair: tuple, key: WeightKey) -> tuple:
    """The axiom sweeps' kernel: ``_tri_terms`` of a sorted pair."""
    return _tri_terms(action, *pair, key)


# -- applying actions ----------------------------------------------------------


def tri_apply(action: TriAction, x: BasisKey, y: BasisKey, v: ModVec) -> ModVec:
    """Apply the pair (x, y) of a ternary action to a module vector."""
    return ModVec._of(extend((_tri_key_terms(action, x, y, key), c)
                             for key, c in v._terms.items()))


def tri_apply_elem(action: TriAction, xe: AlgElem, ye: AlgElem,
                   v: ModVec) -> ModVec:
    return ModVec.combine((tri_apply(action, kx, ky, v), cx * cy)
                          for kx, cx in xe._terms.items()
                          for ky, cy in ye._terms.items())


def lie_apply(action: LieAction, k: PqxzKey, v: ModVec) -> ModVec:
    """Apply one p/q/x/z generator of a Lie action to a module vector."""
    return ModVec._of(extend((_lie_key_terms(action, k, key), c)
                             for key, c in v._terms.items()))


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


def _ad_on_pair(brackets: _SweepTable, a: tuple, b: tuple) -> list:
    """ad(x1, x2) on the pair b = (x3, x4), for a = (x1, x2): the terms
    ``[x1,x2,x3] ∧ x4`` and ``x3 ∧ [x1,x2,x4]`` on sorted pairs
    (``wedge``), read from ``brackets``, the sweep's table of
    ``bracket_keys``."""
    (x3, x4), row = b, brackets[a]
    h3, h4 = row[x3], row[x4]
    return ((wedge(h3[1], x4, h3[0]) if h3 else [])
            + (wedge(x3, h4[1], h4[0]) if h4 else []))


def _axiom1_orders(brackets: _SweepTable, a: tuple, b: tuple) -> tuple:
    """The orders ``_commutator_scan`` evaluates of sorted pairs a <= b:
    ad(a)b and ad(b)a are two conditions, so both orders when a < b, with
    ``_ad_on_pair`` as their bracket; none when a == b, whose defect is zero
    term by term."""
    if a == b:
        return ()
    return ((a, b, 1, _ad_on_pair(brackets, a, b)),
            (b, a, -1, _ad_on_pair(brackets, b, a)))


# (permutation of a case's four keys, its sign): the orders of (x1, x2)
# times those of (x3, x4) in axiom 1, the 6 orders of (x1, x2, x3) in
# axiom 2; the identity, the case the sweep evaluates, comes first
_AXIOM1_ORDERINGS = signed_orderings(2, 2)
_AXIOM2_ORDERINGS = signed_orderings(3, 1)


def _pair_tables(action, probes) -> _SweepTables:
    """The axiom sweeps' tables: a row per sorted pair, on the probes."""
    return _SweepTables(partial(_pair_terms, action), _probe_keys(probes))


def check_tri_axiom1(action: TriAction,
                     window: Iterable[int] = DEFAULT_AXIOM_WINDOW,
                     probes=None, *, tables=None) -> DefectReport:
    """Pair actions must close: commuting two pairs equals acting by the
    bracketed arguments, summed over the two insertion slots.

    The pair operators are the generators of ``_commutator_scan``, and the
    bracket of (x1, x2) with (x3, x4) is ``_ad_on_pair``.  The scan runs
    over the 45 pairs x < y of the default window and reports each defect
    at its 4 signed orderings.  ``tables``, the ``_pair_tables`` of
    ``action`` on ``probes``, may be shared with ``check_tri_axiom2``.
    """
    keys = window_keys(window)
    if tables is None:
        tables = _pair_tables(action, probes)
    brackets = _SweepTable(bracket_keys, keys)
    found = [((*a, *b), probe, ModVec._of(tables.coeffs(acc, sign)))
             for a, b, probe, acc, sign in _commutator_scan(
                 tuple(combinations(keys, 2)), tables,
                 partial(_axiom1_orders, brackets))]
    return sweep_report(
        "tri-axiom-1", len(keys) ** 4 * len(tables.rows.keys), found,
        axiom="tri-axiom-1", family=action_family(action),
        parameters=action_parameters(action), orderings=_AXIOM1_ORDERINGS)


def check_tri_axiom2(action: TriAction,
                     window: Iterable[int] = DEFAULT_AXIOM_WINDOW,
                     probes=None, *, tables=None) -> DefectReport:
    """Acting by a bracketed triple must match the cyclic sum of composed
    pair actions.  Defects are reported as composed-products side minus
    bracket-action side.

    A case's defect is rho(x1,x2)rho(x3,x4) + rho(x2,x3)rho(x1,x4)
    + rho(x3,x1)rho(x2,x4) - b rho([x1,x2,x3], x4).  The sweep evaluates
    the 120 triples x1 < x2 < x3 of the default window and reports each
    defect at its 6 signed orderings; it keeps x4 and the probe, and the
    report still counts every case.  Each pair is read from its sorted row
    (``wedge``), with the sign of the sort where the row is used,
    and the bracket side through ``scaled(-b)``.  ``tables`` is as in
    ``check_tri_axiom1``.
    """
    keys = window_keys(window)
    if tables is None:
        tables = _pair_tables(action, probes)
    rows = tables.rows
    found = []
    for x1, x2, x3 in combinations(keys, 3):
        r12, r23, r13 = rows[(x1, x2),], rows[(x2, x3),], rows[(x1, x3),]
        b123 = bracket_keys(x1, x2, x3)
        for x4 in keys:
            # rho(x3, x1) is -rho(x1, x3)
            composed = [(row, rows[pair,].seq, s)
                        for row, x, sign in ((r12, x3, 1), (r23, x1, 1),
                                             (r13, x2, -1))
                        for pair, s in wedge(x, x4, sign)]
            scaled = [] if b123 is None else [
                (rows[pair,], tables.scaled(b), 1)
                for pair, b in wedge(b123[1], x4, -b123[0])]
            tables.scan_case(found, composed, (((x1, x2, x3, x4), scaled),))
    # in place, so a defect's sum is freed as its vector is made
    for n, (case, probe, acc) in enumerate(found):
        found[n] = case, probe, ModVec._of(tables.coeffs(acc))
    return sweep_report(
        "tri-axiom-2", len(keys) ** 4 * len(rows.keys), found,
        axiom="tri-axiom-2", family=action_family(action),
        parameters=action_parameters(action), orderings=_AXIOM2_ORDERINGS)


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
    nonzero terms; a pair x > y only negates the terms of (y, x), so the
    pairs x < y reach every line."""
    if isinstance(action, (TriWeightAction, PullbackTriAction)):
        return [partial(_tri_key_terms, action, x, y)
                for x, y in combinations(window_keys(window), 2)]
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
    probes = _probe_keys(probes)
    tables = _SweepTables(partial(_lie_key_terms, action), probes)
    found = [((ka, kb), probe, ModVec._of(tables.coeffs(acc, sign)))
             for ka, kb, probe, acc, sign in _commutator_scan(
                 gens, tables, _wedge_orders)]
    return sweep_report("lie-commutator", len(gens) ** 2 * len(probes), found,
                        axiom="lie-commutator", family=action_family(action),
                        parameters=action_parameters(action),
                        orderings=signed_orderings(2))


# -- induced actions ------------------------------------------------------------------------


def _module_verdict(action, window: Iterable[int], probes=None,
                    label: str = "module-axioms") -> tuple:
    """Both module axioms on the window, swept on one ``_pair_tables``:
    (report under label, accepted)."""
    tables = _pair_tables(action, probes)
    r1 = check_tri_axiom1(action, window, probes, tables=tables)
    r2 = check_tri_axiom2(action, window, probes, tables=tables)
    report = r1.merged_with(r2, label)
    return report, _within_parameter_gate(action, report)


@lru_cache(maxsize=64)
def _module_gate(action) -> tuple:
    return _module_verdict(action, DEFAULT_AXIOM_WINDOW)


def verify_module(action: TriAction) -> DefectReport:
    """Both ternary module axioms on DEFAULT_AXIOM_WINDOW, cached per action."""
    return _module_gate(action)[0]


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
    # each class vector read once: a sign changes no divisibility
    if any(c.axiom != "tri-axiom-2" for c in report.classes):
        return False
    coeffs = {c for cls in report.classes
              for c in cls.defect._terms.values()}
    return all(divides(gate, c) for c in coeffs)


def _gate_or_raise(tri: TriAction) -> None:
    report, accepted = _module_gate(tri)
    if accepted:
        return
    raise NotAModule(
        f"cannot induce from {action_family(tri)}"
        f"({dict(action_parameters(tri))}): "
        f"{report.defect_count} module-axiom defects on the gate window "
        f"{DEFAULT_AXIOM_WINDOW[0]}..{DEFAULT_AXIOM_WINDOW[-1]}",
        report=report)


def induce_apply(tri: TriAction, d: DerivExpr, v: ModVec) -> ModVec:
    """Evaluate a derivation expression through a ternary action.

    Inducing a Lie action this way is only sound when the ternary action
    satisfies the module axioms, so the cached verdict of
    ``_within_parameter_gate`` on ``DEFAULT_AXIOM_WINDOW`` is read and
    NotAModule raised when it rejects the action.  A rational mu must be 0
    or 1 even where the window shows no defect; a fully symbolic mu passes
    as long as every residual defect is divisible by mu^2 - mu, since those
    actions specialize to genuine modules.  ``InducedLieAction`` is the
    checks' route, gated once when built; this one takes any derivation
    expression.
    """
    _gate_or_raise(tri)
    return ModVec.combine((tri_apply(tri, u, w, v), c)
                          for (u, w), c in d._terms.items())


def check_induced(tri: TriAction, lie: LieAction,
                  window: Iterable[int] = DEFAULT_PAIR_WINDOW,
                  probes=None) -> DefectReport:
    """Compare the action induced from a ternary module with a Lie action.

    The kernel of ``InducedLieAction(tri)``, each generator expanded into
    pair derivations and pushed through the ternary action, is matched
    against the Lie action's kernel on every windowed generator and probe.
    Building the induced action reads the module gate, so NotAModule
    propagates when the gate rejects the ternary side.
    """
    induced = InducedLieAction(tri)
    gens = window_generators(window)
    probes = _probe_keys(probes)
    found = []
    for k in gens:
        for probe in probes:
            acc = extend(((_lie_key_terms(induced, k, probe), 1),
                          (_lie_key_terms(lie, k, probe), -1)))
            if acc:
                found.append(((k,), probe, ModVec._of(acc)))
    return sweep_report(
        "induced-match", len(gens) * len(probes), found, axiom="induced-match",
        family=f"{action_family(lie)} vs induced({action_family(tri)})",
        parameters=action_parameters(lie), orderings=signed_orderings(1))


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
