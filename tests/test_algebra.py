"""Ternary bracket, its determinant oracle, and the identity checker."""

import itertools
import os
import random
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu3 import algebra
from nambu3.algebra import (AUTO_PARALLEL_CASES, AlgElem, BasisKey, L, M,
                            _resolve_parallelism, assoc_mul, basis_elem,
                            bracket, bracket_det, bracket_keys,
                            check_fundamental, delta, omega)
from nambu3.errors import IndexOverflow
from nambu3.linear import accumulate
from nambu3.reports import DefectEntry, DefectReport
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


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _resolve_parallelism(10 ** 6, 10 ** 6, 14) == 4
    assert _resolve_parallelism(3, 10 ** 6, 14) == 3
    assert _resolve_parallelism(8, 10 ** 6, 2) == 2
    assert _resolve_parallelism(0, 10 ** 6, 14) == 4
    assert _resolve_parallelism(0, 100, 14) == 1
    assert _resolve_parallelism(1, 10 ** 6, 14) == 1
    # auto stays serial below the threshold: -2..2 (10^5 cases) and -3..2
    # (12^5) ran slower on two workers than on one, -3..3 (14^5) faster
    assert _resolve_parallelism(0, 10 ** 5, 10) == 1
    assert _resolve_parallelism(0, 12 ** 5, 12) == 1
    assert _resolve_parallelism(0, 14 ** 5, 14) == 4
    assert _resolve_parallelism(0, AUTO_PARALLEL_CASES - 1, 12) == 1
    assert _resolve_parallelism(0, AUTO_PARALLEL_CASES, 12) == 4


class SerialPool:
    """ProcessPoolExecutor stand-in: runs each task when it is submitted."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def _serial_pool(monkeypatch) -> list:
    # installs the stand-in; returns the pool sizes requested, in order
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return SerialPool()

    # check_fundamental imports the pool class from here when it fans out
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
    return sizes


def test_fundamental_pool_size_is_clamped(monkeypatch):
    # a huge request on a many-CPU host still gets one worker per chunk;
    # the pool is a serial stand-in, so no process starts
    sizes = _serial_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    report = check_fundamental(range(-1, 2), parallelism=10 ** 6)
    assert sizes == [6]
    assert report.passed and report.cases == 6 ** 5


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


def test_fault_injection_is_detected():
    report = check_fundamental(range(-1, 2), key_bracket=_skewed)
    assert not report.passed
    entry = report.entries[0]
    assert entry.axiom == "fundamental-identity"
    assert not entry.defect.is_zero


def test_fanned_out_sweep_returns_the_defects_it_finds(monkeypatch):
    # two real worker processes send their AlgElem defects back pickled;
    # the table is patched where the workers look it up
    monkeypatch.setattr(algebra, "bracket_keys", _skewed)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
    expected = _reference_fi_records(window, skewed)
    assert expected
    assert _records(check_fundamental(window, key_bracket=skewed)) == expected
    # the pool path: same scan on chunks of first keys, the bracket table
    # looked up as a module global; the stand-in pool starts no process
    sizes = _serial_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(algebra, "bracket_keys", skewed)
    assert _records(check_fundamental(window, parallelism=2)) == expected
    assert sizes == [2]


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
    assert check_fundamental(range(-1, 2), key_bracket=_thirds(bracket_keys)
                             ).passed
    _assert_matches_reference_route(range(-1, 2), _thirds(_randomly_skewed(8)),
                                    monkeypatch)


def test_fi_scan_brackets_each_distinct_triple_once():
    calls = []
    assert check_fundamental(range(-3, 4), key_bracket=_counting(calls)).passed
    # evaluating every case on its own makes 1,046,640 calls
    assert len(calls) == len(set(calls)) == 14504


def test_fi_scan_brackets_the_triples_of_the_reference_route():
    window = range(-1, 2)
    scan, reference = [], []
    check_fundamental(window, key_bracket=_counting(scan))
    _reference_fi_records(window, _counting(reference))
    assert len(scan) == len(set(scan))
    assert set(scan) == set(reference)


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
