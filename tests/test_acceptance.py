"""Acceptance gate: twelve criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each criterion is a single test so the pytest report doubles as the
pass/fail table.  Everything is exact arithmetic; the only tolerance
anywhere is structural equality.
"""

from fractions import Fraction

import pytest

import nambu3.derivations as derivations
from nambu3.algebra import (AlgElem, L, M, basis_elem, bracket, bracket_det,
                            check_fundamental)
from nambu3.derivations import (DerivExpr, ad, check_pqxz_table,
                                deriv_equal, deriv_to_pqxz, pair_to_pqxz,
                                pqxz_key_bracket, pqxz_to_deriv)
from nambu3.errors import NotAModule
from nambu3.repmod import (ModVec, check_induced, check_lie_module,
                           check_tri_axiom1, check_tri_axiom2,
                           counterexample_phi, induce_apply, orbit_probe,
                           shift_action, weight_action, weight_key,
                           weight_report, zero_twist_action)
from nambu3.scalar import LAMBDA, MU, Scalar, divides, weight_tag

lam = Scalar(LAMBDA)
mu = Scalar(MU)
a0 = Scalar(weight_tag(0))
MU_GATE = mu * mu - mu

ALL_KEYS_3 = [L(i) for i in range(-3, 4)] + [M(i) for i in range(-3, 4)]


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{name}]: {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_bracket_matches_determinant_oracle():
    ok = True
    for x in ALL_KEYS_3:
        for y in ALL_KEYS_3:
            for z in ALL_KEYS_3:
                ex, ey, ez = basis_elem(x), basis_elem(y), basis_elem(z)
                if bracket(ex, ey, ez) != bracket_det(ex, ey, ez):
                    ok = False
    _verdict(1, "bracket = determinant oracle, 14^3 triples", ok)


def test_criterion_02_fundamental_identity_window():
    report = check_fundamental(range(-2, 3))
    ok = report.cases == 10 ** 5 and report.passed
    _verdict(2, "fundamental identity, 10^5 cases, 0 defects", ok)


def test_criterion_03_first_module_axiom_symbolic():
    report = check_tri_axiom1(weight_action(), range(-2, 3))
    ok = report.passed
    _verdict(3, "pair-action commutator axiom, symbolic parameters", ok)


def test_criterion_04_second_module_axiom_gate():
    sym = check_tri_axiom2(weight_action(), range(-2, 3))
    divisible = not sym.passed and all(
        divides(MU_GATE, c)
        for entry in sym.entries for _, c in entry.defect.items())

    clean = all(check_tri_axiom2(weight_action(None, v), range(-2, 3)).passed
                for v in (0, 1))

    at2 = check_tri_axiom2(weight_action(None, 2), range(-2, 3))
    pinned = [e for e in at2.entries
              if e.indices == ("L", 0, "L", 1, "M", 0, "M", 1)
              and e.probe == "v[a0]"]
    witness = (len(pinned) == 1
               and pinned[0].defect == ModVec.term(weight_key("a0")) * -2)

    ok = divisible and clean and witness
    _verdict(4, "second axiom: defects in (mu^2 - mu), clean at 0 and 1, "
                "-2 witness at mu=2", ok)


def test_criterion_05_generator_table_certified_and_fault_detected(
        monkeypatch):
    honest = check_pqxz_table(range(-3, 4)).passed

    def skewed(k1, k2):
        out = pqxz_key_bracket(k1, k2)
        if (k1.family, k2.family) == ("q", "x"):
            return -out
        return out

    monkeypatch.setattr(derivations, "pqxz_key_bracket", skewed)
    caught = not check_pqxz_table(range(-3, 4)).passed
    _verdict(5, "commutator table passes; injected fault detected",
             honest and caught)


def _reexpand(elem) -> DerivExpr:
    out = DerivExpr.zero()
    for key, c in elem.items():
        out = out + pqxz_to_deriv(key) * c
    return out


def test_criterion_06_decomposition_round_trip():
    ok = True
    for u in ALL_KEYS_3:
        for v in ALL_KEYS_3:
            original = ad(u, v)
            coords = pair_to_pqxz(u, v)
            if not deriv_equal(original, _reexpand(coords), range(-3, 4)):
                ok = False
    _verdict(6, "ad(u,v) -> p/q/x/z -> re-expansion is action-equal", ok)


def test_criterion_07_lie_module_families():
    psi_ok = check_lie_module(shift_action(), range(-3, 4)).passed
    probes = tuple(weight_key(m) for m in range(-2, 3)) + (weight_key("a0"),)
    phi_ok = check_lie_module(zero_twist_action(), range(-3, 4),
                              probes=probes).passed
    _verdict(7, "shift family and zero-twist family are Lie modules",
             psi_ok and phi_ok)


def test_criterion_08_induced_action_iff_module_parameters():
    good = all(
        check_induced(weight_action(None, v), shift_action(None, v),
                      range(-3, 4)).passed
        for v in (0, 1))
    try:
        check_induced(weight_action(None, 2), shift_action(None, 2),
                      range(-3, 4))
        bad_rejected = False
    except NotAModule as exc:
        bad_rejected = not exc.report.passed
    _verdict(8, "induced action matches shift family at mu=0,1; "
                "mu=2 rejected", good and bad_rejected)


def test_criterion_09_pullback_counterexample_exact():
    lhs, rhs, defect = counterexample_phi()
    v4 = ModVec.term(weight_key(-4))
    ok = (lhs == v4 * ((mu - 4) * -4)
          and rhs == v4 * ((mu - 5) * -4)
          and defect == v4 * -4)
    _verdict(9, "witness: lhs -4(mu-4), rhs -4(mu-5), defect -4", ok)


def test_criterion_10_seven_distinct_weights():
    ok = True
    keys = [weight_key("a0", m) for m in range(-3, 4)]
    for v in (0, 1):
        report = weight_report(weight_action(None, v), keys)
        expected = {str(lam + a0 + m) for m in range(-3, 4)}
        got = {str(w) for _, w, _ in report.rows}
        if not (len(report.rows) == 7 and got == expected
                and report.all_multiplicity_one):
            ok = False
    _verdict(10, "7 consecutive keys -> 7 distinct weights, multiplicity 1",
             ok)


def test_criterion_11_orbit_classifications():
    checks = []
    for lam_val in (0, 3, Fraction(1, 2)):
        rep = orbit_probe(weight_action(lam_val, 0), weight_key(-lam_val))
        checks.append(rep.classification == "trivial-line")
    rep = orbit_probe(weight_action(0, 1), weight_key(1))
    checks.append(rep.classification == "invariant-window-subspace"
                  and rep.missed == (weight_key(0),))
    rep = orbit_probe(weight_action(Fraction(1, 2), 0), weight_key("a0"))
    checks.append(rep.classification == "transitive-on-window")
    rep = orbit_probe(zero_twist_action(), weight_key(0))
    checks.append(rep.classification == "transitive-on-window")
    rep = orbit_probe(zero_twist_action(), weight_key(1))
    checks.append(rep.classification == "invariant-window-subspace"
                  and rep.missed == (weight_key(0),))
    _verdict(11, "orbit evidence: trivial line, one-missing invariance, "
                 "transitivity, one-way reachability", all(checks))


def _kernel_relations():
    rels = [ad(L(2), M(1)) - ad(L(1), M(0)) * 2 + ad(L(0), M(-1))]
    for r in range(1, 6):
        rels.append(ad(L(r + 1), M(1)) - ad(L(r), M(0)) * 2
                    + ad(L(r - 1), M(-1)))
    for s in range(0, 5):
        rels.append(ad(L(s + 2), M(s + 1)) - ad(L(s + 1), M(s)) * 2
                    + ad(L(s), M(s - 1)))
    return rels


def test_criterion_12_kernel_relations_act_as_zero():
    rels = _kernel_relations()
    assert len(rels) == 11
    tri = weight_action()
    probes = (weight_key("a0"),) + tuple(weight_key(m) for m in range(-2, 3))
    ok = all(deriv_to_pqxz(rel).is_zero for rel in rels)
    for rel in rels:
        for key in probes:
            if not induce_apply(tri, rel, ModVec.term(key)).is_zero:
                ok = False
    _verdict(12, "11 decomposition kernel relations act as zero through "
                 "induction", ok)
