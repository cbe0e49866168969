"""Ternary bracket, its determinant oracle, and the identity checker."""

import itertools
import os
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from nambu3 import algebra
from nambu3.algebra import (AlgElem, BasisKey, L, M, _SweepTable,
                            _SweepTables, _deal, _resolve_parallelism,
                            assoc_mul, basis_elem, bracket, bracket_det,
                            bracket_keys, check_fundamental, delta, omega,
                            wedge, window_keys)
from nambu3.derivations import _commutator_scan
from nambu3.errors import IndexOverflow
from nambu3.linear import accumulate
from nambu3.reports import (DefectEntry, DefectReport, signed_orderings,
                            sweep_report)
from nambu3.scalar import LAMBDA, Scalar


def E(key):
    return basis_elem(key)


def keys(lo=-3, hi=3):
    return [L(i) for i in range(lo, hi + 1)] + [M(i) for i in range(lo, hi + 1)]


small_keys = st.sampled_from(keys(-2, 2))


@st.composite
def elems(draw):
    acc = AlgElem.zero()
    for _ in range(draw(st.integers(1, 3))):
        acc = acc + AlgElem.term(draw(small_keys), draw(st.integers(-4, 4)))
    return acc


# -- associative product, grading, involution ------------------------------


def test_product_table():
    assert assoc_mul(E(L(2)), E(L(3))) == E(L(5))
    assert assoc_mul(E(M(2)), E(M(-5))) == E(M(-3))
    assert assoc_mul(E(L(2)), E(M(3))).is_zero
    assert assoc_mul(E(M(0)), E(L(1))).is_zero


def test_delta_scales_by_index():
    assert delta(E(L(3))) == E(L(3)) * 3
    assert delta(E(M(-2))) == E(M(-2)) * (-2)
    assert delta(E(L(0))).is_zero


def test_omega_swaps_kind_and_negates_index():
    assert omega(E(L(3))) == E(M(-3))
    assert omega(E(M(-1))) == E(L(1))


@given(small_keys)
def test_omega_is_an_involution(k):
    assert omega(omega(E(k))) == E(k)


@given(small_keys)
def test_delta_omega_anticommute(k):
    x = E(k)
    assert (delta(omega(x)) + omega(delta(x))).is_zero


@given(elems(), elems())
@settings(max_examples=40)
def test_delta_is_a_product_derivation(x, y):
    lhs = delta(assoc_mul(x, y))
    rhs = assoc_mul(delta(x), y) + assoc_mul(x, delta(y))
    assert lhs == rhs


# -- bracket ----------------------------------------------------------------


def test_bracket_pinned_values():
    assert bracket(E(L(1)), E(L(2)), E(M(3))) == E(L(0))
    assert bracket(E(L(1)), E(L(1)), E(M(0))).is_zero
    assert bracket(E(L(1)), E(M(2)), E(M(5))) == E(M(6)) * 3
    assert bracket(E(L(0)), E(L(1)), E(M(0))) == E(L(1))
    assert bracket(E(L(1)), E(L(2)), E(L(3))).is_zero
    assert bracket(E(M(1)), E(M(2)), E(M(3))).is_zero


def test_bracket_structure_constants():
    for r in range(-2, 3):
        for s in range(-2, 3):
            for t in range(-2, 3):
                got = bracket(E(L(r)), E(L(s)), E(M(t)))
                assert got == E(L(r + s - t)) * (s - r)
                got = bracket(E(L(r)), E(M(s)), E(M(t)))
                assert got == E(M(s + t - r)) * (t - s)


@given(small_keys, small_keys, small_keys)
def test_bracket_total_antisymmetry(a, b, c):
    x, y, z = E(a), E(b), E(c)
    base = bracket(x, y, z)
    assert bracket(y, x, z) == -base
    assert bracket(x, z, y) == -base
    assert bracket(z, y, x) == -base


def test_bracket_is_trilinear_over_scalars():
    lam = Scalar(LAMBDA)
    x = E(L(1)) * lam + E(M(0)) * 2
    got = bracket(x, E(L(2)), E(M(3)))
    expected = (bracket(E(L(1)), E(L(2)), E(M(3))) * lam
                + bracket(E(M(0)), E(L(2)), E(M(3))) * 2)
    assert got == expected


class _CountedIndex(int):
    """An index that counts the comparisons between two of its kind."""

    compared = 0

    def _counted(op):
        def compare(self, other):
            if isinstance(other, _CountedIndex):
                _CountedIndex.compared += 1
            return op(self, other)
        return compare

    __lt__, __le__, __gt__ = map(_counted, (int.__lt__, int.__le__,
                                            int.__gt__))
    __ge__, __eq__, __ne__ = map(_counted, (int.__ge__, int.__eq__,
                                            int.__ne__))
    __hash__ = int.__hash__


def test_bracket_keys_reads_no_index_order(monkeypatch):
    # it sorts by kind only: within a kind its coefficient is antisymmetric
    monkeypatch.setattr(_CountedIndex, "compared", 0)
    counted = [BasisKey(kind, _CountedIndex(i))
               for kind in "LM" for i in range(-3, 4)]
    assert sorted(counted, reverse=True) and _CountedIndex.compared
    monkeypatch.setattr(_CountedIndex, "compared", 0)
    for triple in itertools.product(counted, repeat=3):
        assert bracket_keys(*triple) == bracket_keys(
            *(BasisKey(k.kind, int(k.index)) for k in triple))
    assert _CountedIndex.compared == 0


def test_a_repeated_key_brackets_to_zero_at_the_cap():
    # the zero coefficient is found before the image index is checked
    top = L(1 << 40)
    assert bracket_keys(top, top, M(-1)) is None
    assert bracket_keys(M(1 << 40), L(0), M(1 << 40)) is None


def test_wedge_sorts_a_pair_and_takes_the_sign():
    assert wedge(L(1), M(0), 2) == [((L(1), M(0)), 2)]
    assert wedge(M(0), L(1), 2) == [((L(1), M(0)), -2)]
    assert wedge(L(1), L(1), 2) == []


# -- determinant oracle -------------------------------------------------------


@given(small_keys, small_keys, small_keys)
@settings(max_examples=200)
def test_det_oracle_agrees_on_keys(a, b, c):
    assert bracket(E(a), E(b), E(c)) == bracket_det(E(a), E(b), E(c))


@given(elems(), elems(), elems())
@settings(max_examples=40)
def test_det_oracle_agrees_on_combinations(x, y, z):
    assert bracket(x, y, z) == bracket_det(x, y, z)


def test_det_oracle_pinned():
    assert bracket_det(E(L(1)), E(L(2)), E(M(3))) == E(L(0))
    assert bracket_det(E(L(1)), E(M(2)), E(M(5))) == E(M(6)) * 3


# -- fundamental identity checker ---------------------------------------------


def test_fundamental_identity_small_window():
    report = check_fundamental(range(-1, 2))
    assert report.passed
    assert report.cases == 6 ** 5


def test_fundamental_identity_parallel_matches_serial():
    serial = check_fundamental(range(-1, 2), parallelism=1)
    parallel = check_fundamental(range(-1, 2), parallelism=2)
    assert serial.passed and parallel.passed
    assert serial.cases == parallel.cases


def _cpus(monkeypatch, count: int) -> None:
    # the CPUs this process may run on, read by _resolve_parallelism
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def test_worker_count_is_clamped(monkeypatch):
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _resolve_parallelism(10 ** 6, 14) == 4
    assert _resolve_parallelism(3, 14) == 3
    assert _resolve_parallelism(8, 2) == 2
    assert _resolve_parallelism(1, 14) == 1
    # without an affinity mask, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_parallelism(10 ** 6, 14) == 14
    assert _resolve_parallelism(3, 14) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_parallelism(4, 14) == 1
    # where processes cannot fork, every run is serial
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert _resolve_parallelism(4, 14) == 1


def test_shares_are_dealt_back_and_forth():
    # position i of 13 heads 13 - i (x1, x2) pairs at -3..3: round-robin
    # shares would hold 49 and 42 pairs
    shares = _deal(13, 2)
    assert shares == [[0, 3, 4, 7, 8, 11, 12], [1, 2, 5, 6, 9, 10]]
    assert [sum(13 - i for i in s) for s in shares] == [46, 45]
    assert sorted(sum(_deal(13, 5), [])) == list(range(13))


def _counted_forks(monkeypatch) -> list:
    # each fork still starts a real child; returns the children's pids
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_fork():
    pytest.fail("a worker process was forked")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fundamental_fan_out_is_clamped(monkeypatch):
    # a huge request on a many-CPU host still gets one worker per chunk
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 64)
    report = check_fundamental(range(-1, 2), parallelism=10 ** 6)
    # the last of the 6 first keys has no later second key: 5 shares, the
    # first scanned by this process
    assert len(forks) == 4
    assert report.passed and report.cases == 6 ** 5
    _assert_no_child_left()


def test_a_window_of_one_pair_forks_no_worker(monkeypatch):
    # 0..0 has keys L[0], M[0]: only the first one heads a case, so a
    # request for two workers runs serially
    monkeypatch.setattr(os, "fork", _no_fork)
    _cpus(monkeypatch, 2)
    report = check_fundamental(range(0, 1), parallelism=2)
    assert report.passed and report.cases == 2 ** 5


def _skewed(k1, k2, k3):
    hit = bracket_keys(k1, k2, k3)
    if hit is None:
        return None
    c, key = hit
    # corrupt one structure constant family by an index shift
    if key.kind == "L":
        return c, L(key.index + 1)
    return c, key


def _randomly_skewed(seed):
    # a seeded corruption of the table at some ordered kind patterns and
    # index residues, so it depends on the argument order (the corrupted
    # table is not antisymmetric) and also turns some zero brackets nonzero
    rng = random.Random(seed)
    picked = {(a + b + c, r) for a in "LM" for b in "LM" for c in "LM"
              for r in range(5) if rng.random() < 0.08}
    scale, shift = rng.choice((-1, 2, 3)), rng.choice((-1, 1))

    def kb(k1, k2, k3):
        hit = bracket_keys(k1, k2, k3)
        pattern = k1.kind + k2.kind + k3.kind
        if (pattern, (k1.index + 2 * k2.index - k3.index) % 5) not in picked:
            return hit
        if hit is None:
            return 1, k1
        c, key = hit
        return scale * c, BasisKey(key.kind, key.index + shift)

    return kb


def _counting(calls: list):
    def kb(*args):
        calls.append(args)
        return bracket_keys(*args)

    return kb


def _sorted(kb):
    # kb on its arguments in sorted order, times the parity of the sort, and
    # None on a repeated key: a totally antisymmetric table, as the default
    # table is and as the scan over one ordering per class requires
    def antisymmetric(*args):
        keys, sign = list(args), 1
        for i, j in ((0, 1), (1, 2), (0, 1)):
            if keys[i] > keys[j]:
                keys[i], keys[j], sign = keys[j], keys[i], -sign
        if keys[0] == keys[1] or keys[1] == keys[2]:
            return None
        hit = kb(*keys)
        return None if hit is None else (sign * hit[0], hit[1])

    return antisymmetric


def test_fault_injection_is_detected(monkeypatch):
    monkeypatch.setattr(algebra, "bracket_keys", _skewed)
    report = check_fundamental(range(-1, 2))
    assert not report.passed
    entry = report.entries[0]
    assert entry.axiom == "fundamental-identity"
    assert not entry.defect.is_zero


def test_fanned_out_sweep_returns_the_defects_it_finds(monkeypatch):
    # a forked child sends its AlgElem defects back pickled; the table is
    # patched where both shares look it up
    monkeypatch.setattr(algebra, "bracket_keys", _skewed)
    _cpus(monkeypatch, 2)
    serial = check_fundamental(range(-1, 2), parallelism=1)
    parallel = check_fundamental(range(-1, 2), parallelism=2)
    assert len(serial.entries) == 1944
    assert parallel == serial


def _fi_defect(kb, x1, x2, x3, x4, x5):
    # reference route: each case on its own, with no shared tables
    acc: dict = {}
    inner = kb(x3, x4, x5)
    if inner is not None:
        hit = kb(x1, x2, inner[1])
        if hit is not None:
            accumulate(acc, hit[1], inner[0] * hit[0])
    first = kb(x1, x2, x3)
    if first is not None:
        hit = kb(first[1], x4, x5)
        if hit is not None:
            accumulate(acc, hit[1], -first[0] * hit[0])
    second = kb(x1, x2, x4)
    if second is not None:
        hit = kb(x3, second[1], x5)
        if hit is not None:
            accumulate(acc, hit[1], -second[0] * hit[0])
    third = kb(x1, x2, x5)
    if third is not None:
        hit = kb(x3, x4, third[1])
        if hit is not None:
            accumulate(acc, hit[1], -third[0] * hit[0])
    return acc or None


def _reference_fi_records(window, kb):
    keys = [L(i) for i in window] + [M(i) for i in window]
    entries = []
    for x1, x2, x3, x4, x5 in itertools.product(keys, repeat=5):
        defect = _fi_defect(kb, x1, x2, x3, x4, x5)
        if defect is not None:
            entries.append(DefectEntry(
                axiom="fundamental-identity",
                indices=(x1.kind, x1.index, x2.kind, x2.index, x3.kind,
                         x3.index, x4.kind, x4.index, x5.kind, x5.index),
                defect=AlgElem(list(defect.items())),
                family="algebra"))
    report = DefectReport("fundamental-identity", len(keys) ** 5, entries)
    return [e.record() for e in report.entries]


def _records(report):
    return [e.record() for e in report.entries]


def _assert_matches_reference_route(window, skewed, monkeypatch):
    # the default-table path, serial and fanned out: one case per
    # antisymmetry class, the bracket table looked up as a module global,
    # so it gets the skewed table made antisymmetric, in the forked child
    # as in this process
    expected = _reference_fi_records(window, _sorted(skewed))
    assert expected
    monkeypatch.setattr(algebra, "bracket_keys", _sorted(skewed))
    assert _records(check_fundamental(window)) == expected
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    assert _records(check_fundamental(window, parallelism=2)) == expected
    assert len(forks) == 1


@pytest.mark.parametrize("window", [range(-1, 2), range(-2, 3)])
def test_fi_sweep_matches_reference_route(window, monkeypatch):
    _assert_matches_reference_route(window, _skewed, monkeypatch)


@pytest.mark.parametrize("window", [range(-1, 2), range(-2, 3)])
def test_fi_sweep_matches_reference_route_under_seeded_skew(window,
                                                            monkeypatch):
    _assert_matches_reference_route(window, _randomly_skewed(8), monkeypatch)


def _thirds(kb):
    # the table with every coefficient divided by 3, as a Fraction; the
    # identity is quadratic in the table, so its terms still cancel exactly
    def scaled(*args):
        hit = kb(*args)
        return None if hit is None else (Fraction(hit[0], 3), hit[1])

    return scaled


def test_fi_sweep_matches_reference_route_on_fraction_coefficients(
        monkeypatch):
    monkeypatch.setattr(algebra, "bracket_keys", _thirds(bracket_keys))
    assert check_fundamental(range(-1, 2)).passed
    _assert_matches_reference_route(range(-1, 2), _thirds(_randomly_skewed(8)),
                                    monkeypatch)


def _flipped(orderings, i):
    perm, sign = orderings[i]
    return orderings[:i] + ((perm, -sign),) + orderings[i + 1:]


def test_each_signed_ordering_of_the_default_scan_is_needed(monkeypatch):
    # _skewed only shifts the keys bracket_keys returns, so it stays
    # antisymmetric and the default path may read it
    window = range(-1, 2)
    expected = _reference_fi_records(window, _skewed)
    monkeypatch.setattr(algebra, "bracket_keys", _skewed)
    assert _records(check_fundamental(window)) == expected
    orderings = algebra._FI_ORDERINGS
    assert len(set(orderings)) == 12
    for i in range(12):
        for mutant in (_flipped(orderings, i),
                       orderings[:i] + orderings[i + 1:]):
            monkeypatch.setattr(algebra, "_FI_ORDERINGS", mutant)
            assert _records(check_fundamental(window)) != expected


@pytest.mark.parametrize("window, distinct", [(range(-2, 3), 3120),
                                              (range(-3, 4), 10248)])
def test_default_scan_brackets_each_distinct_triple_once(window, distinct,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(algebra, "bracket_keys", _counting(calls))
    assert check_fundamental(window).passed
    assert len(calls) == len(set(calls)) == distinct


def _ad_on_ordered_pair(brackets, a, b):
    # ad(x1, x2) on the ordered pair b = (x3, x4): the terms
    # (([x1,x2,x3], x4), c) and ((x3, [x1,x2,x4]), c), no pair sorted
    (x3, x4), row = b, brackets[a]
    h3, h4 = row[x3], row[x4]
    return ([((h3[1], x4), h3[0])] if h3 else []) + (
        [((x3, h4[1]), h4[0])] if h4 else [])


def _ordered_cases(brackets, a, b):
    # every order of the pair is its own case, the diagonal included, with
    # ad(x1, x2) on an ordered pair as its bracket
    return [(x, y, sign, _ad_on_ordered_pair(brackets, x, y))
            for x, y, sign in ((a, b, 1), (b, a, -1)) if sign > 0 or a != b]


def _adjoint_axiom1_records(window, kb):
    # a third route: the identity is the first module axiom of the adjoint
    # module, rho(x, y) k = kb(x, y, k), swept by the commutator scan over
    # every ordered pair of window keys, each order of a pair and the pair
    # (a, a) a case of its own, so kb need not be antisymmetric
    keys = window_keys(window)

    def terms(pair, k):
        hit = kb(*pair, k)
        return () if hit is None else ((hit[1], hit[0]),)

    tables = _SweepTables(terms, keys)
    found = [((*a, *b, probe), None, AlgElem(tables.coeffs(acc, sign)))
             for a, b, probe, acc, sign in _commutator_scan(
                 tuple(itertools.product(keys, repeat=2)), tables,
                 partial(_ordered_cases, _SweepTable(kb, keys)))]
    return _records(sweep_report("fundamental-identity", len(keys) ** 5,
                                 found, axiom="fundamental-identity",
                                 family="algebra",
                                 orderings=signed_orderings(1, 1, 1, 1, 1)))


@pytest.mark.parametrize("kb, window, defects", [
    (bracket_keys, range(-2, 3), 0),
    (_sorted(_skewed), range(-1, 2), 1944),
    (_sorted(_randomly_skewed(8)), range(-1, 2), 732),
], ids=["clean -2..2", "sorted skewed", "sorted seeded skew"])
def test_fi_is_the_first_axiom_of_the_adjoint_module(kb, window, defects,
                                                     monkeypatch):
    monkeypatch.setattr(algebra, "bracket_keys", kb)
    expected = _records(check_fundamental(window))
    assert len(expected) == defects
    assert _adjoint_axiom1_records(window, kb) == expected


def test_the_probe_loop_copies_the_shared_sum_for_every_order_but_the_last():
    # g sends the integer key k to (k + 1) times the key k + g; the case
    # shares g1 g2 - g2 g1, (k + 1) times k + 3 at the probe k, and each of
    # its three orders adds its own bracket-side terms
    tables = _SweepTables(lambda g, k: ((k + g, k + 1),), (0, 1))
    rows, scaled = tables.rows, tables.scaled
    shared = ((rows[1,], rows[2,].seq, 1), (rows[2,], rows[1,].seq, -1))
    orders = (("a", [(rows[3,], scaled(2), 1)]),
              ("cancels", [(rows[3,], scaled(-1), 1)]),
              ("b", [(rows[5,], scaled(-1), 1)]))
    found = []
    tables.scan_case(found, shared, orders)
    assert [(head, probe, tables.coeffs(acc))
            for head, probe, acc in found] == [
        ("a", 0, {3: 3}), ("b", 0, {3: 1, 5: -1}),
        ("a", 1, {4: 6}), ("b", 1, {4: 2, 6: -2})]


class _CountedKey:
    """An integer key that counts how often any such key is hashed."""

    hashes = 0

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        _CountedKey.hashes += 1
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, _CountedKey) and self.n == other.n


def test_the_probe_loop_hashes_no_key_once_its_rows_are_filled():
    # g sends the key v to (v + 1) times v + g plus g times v - g, fresh key
    # objects on every call; the case shares g1 g2 - g2 g1, which is
    # (v + 1)[v + 3] + [v + 1] - 4 [v - 1] with [v - 3] cancelled, and its
    # one order adds 2 g3
    K = _CountedKey
    probes = (K(0), K(1))
    tables = _SweepTables(
        lambda g, v: ((K(v.n + g), v.n + 1), (K(v.n - g), g)), probes)
    rows = tables.rows
    shared = ((rows[1,], rows[2,].seq, 1), (rows[2,], rows[1,].seq, -1))
    orders = (("a", [(rows[3,], tables.scaled(2), 1)]),)
    tables.scan_case([], shared, orders)
    K.hashes, found = 0, []
    tables.scan_case(found, shared, orders)
    assert K.hashes == 0
    defects = [(head, probe, tables.coeffs(acc)) for head, probe, acc in found]
    # in accumulator order, the dropped key last, as the key objects the
    # sweep saw first: the probes themselves where a hit is a probe
    assert [(head, probe.n, [(k.n, c) for k, c in coeffs.items()])
            for head, probe, coeffs in defects] == [
        ("a", 0, [(3, 3), (1, 1), (-1, -4), (-3, 6)]),
        ("a", 1, [(4, 6), (2, 1), (0, -4), (-2, 6)])]
    assert defects[0][1] is probes[0] and defects[1][1] is probes[1]
    assert list(defects[0][2])[1] is probes[1]
    assert list(defects[1][2])[2] is probes[0]


def test_adjoint_route_is_exact_on_a_table_that_is_not_antisymmetric():
    window, kb = range(-1, 2), _randomly_skewed(8)
    expected = _reference_fi_records(window, kb)
    assert len(expected) == 1633
    assert _adjoint_axiom1_records(window, kb) == expected


def test_index_overflow_guard():
    with pytest.raises(IndexOverflow):
        L(1 << 41)
    with pytest.raises(IndexOverflow):
        assoc_mul(E(L(1 << 40)), E(L(1)))


def test_report_is_deterministic():
    r1 = check_fundamental(range(-1, 2))
    r2 = check_fundamental(range(-1, 2))
    assert [e.record() for e in r1.entries] == [e.record() for e in r2.entries]
    assert r1.summary() == r2.summary()


# -- element formatting (the CLI prints these) ---------------------------------


def test_element_formatting():
    lam = Scalar(LAMBDA)
    assert str(E(L(0))) == "L[0]"
    assert str(E(M(6)) * 3) == "3 M[6]"
    assert str(E(M(-3)) * -1) == "-1 M[-3]"
    assert str(AlgElem.zero()) == "0"
    assert str(E(L(0)) * (lam + 1)) == "(lam + 1) L[0]"
    assert str(E(L(0)) * lam) == "lam L[0]"
    assert str(E(L(1)) - E(M(2)) * 2) == "L[1] - 2 M[2]"
