"""Weight modules: pair action, axioms, orbits, induction, counterexample."""

import copy
import gc
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu3.algebra import L, M, bracket_keys, check_fundamental, window_keys
from nambu3.derivations import (P, Q, X, Z, ad, check_pqxz_table,
                                pqxz_to_deriv, window_generators)
from nambu3.errors import NotAModule
from nambu3.linear import accumulate
from nambu3.reports import DefectEntry, DefectReport
from nambu3.repmod import (ACTION_MEMO_SIZE, InducedLieAction,
                           LieShiftAction, ModVec, OrbitReport,
                           PullbackTriAction, TriWeightAction, WeightKey,
                           _alpha, _interned, _lie_key_terms,
                           _tri_key_terms, _verdict,
                           action_family, action_parameters, check_induced,
                           check_lie_module, check_tri_axiom1,
                           check_tri_axiom2, counterexample_phi,
                           default_probes, induce_apply, lie_apply,
                           orbit_probe, pullback_candidate, shift_action,
                           tri_apply, verify_module, weight_action,
                           weight_key, weight_report, zero_twist_action)
from nambu3.scalar import LAMBDA, MU, Scalar, divides, weight_tag

lam = Scalar(LAMBDA)
mu = Scalar(MU)
MU_GATE = mu * mu - mu


def V(tag, offset=0):
    return ModVec.term(weight_key(tag, offset))


# -- weight keys -----------------------------------------------------------------


def test_weight_key_normalization():
    assert weight_key(Fraction(7, 2)) == WeightKey(Fraction(1, 2), 3)
    assert weight_key(Fraction(-1, 2)) == WeightKey(Fraction(1, 2), -1)
    assert weight_key(-3) == WeightKey(Fraction(0), -3)
    assert weight_key(2, 5) == WeightKey(Fraction(0), 7)
    assert weight_key("a0", 2) == WeightKey("a0", 2)
    assert weight_key(weight_tag(1)) == WeightKey("a1", 0)


def test_weight_key_equality_is_coset_line_identity():
    assert weight_key(Fraction(3, 2)) == weight_key(Fraction(1, 2), 1)
    assert weight_key(0, 4) == weight_key(4)
    assert weight_key("a0") != weight_key(0)


def test_weight_key_zero_weight_and_alpha():
    assert weight_key(0).is_zero_weight
    assert not weight_key(0, 1).is_zero_weight
    assert not weight_key("a0").is_zero_weight
    assert weight_key(Fraction(1, 2), 1).alpha() == Scalar(Fraction(3, 2))
    assert weight_key("a0", -2).alpha() == Scalar(weight_tag(0)) - 2


def test_weight_key_rejects_non_tag_symbols():
    with pytest.raises(ValueError):
        weight_key("lam")


def test_weight_key_str():
    assert str(weight_key("a0", 2)) == "a0+2"
    assert str(weight_key("a0", -1)) == "a0-1"
    assert str(weight_key(Fraction(-3, 2))) == "-3/2"
    assert str(weight_key(4)) == "4"


# -- the pair action ---------------------------------------------------------------


def test_tri_apply_formula():
    T = weight_action()
    got = tri_apply(T, L(1), M(3), V("a0"))
    a0 = Scalar(weight_tag(0))
    assert got == V("a0", 2) * (lam + a0 + mu * 2)
    assert tri_apply(T, L(1), L(2), V("a0")).is_zero
    assert tri_apply(T, M(1), M(2), V("a0")).is_zero


def test_tri_apply_is_antisymmetric_in_the_pair():
    T = weight_action()
    v = V("a0")
    assert tri_apply(T, M(3), L(1), v) == -tri_apply(T, L(1), M(3), v)


def test_tri_apply_rational_specialization():
    T = weight_action(Fraction(1, 2), 1)
    got = tri_apply(T, L(2), M(0), V(3))
    # coefficient lam + alpha + shift*mu = 1/2 + 3 - 2
    assert got == V(1) * Fraction(3, 2)
    got = tri_apply(weight_action(None, 1), L(2), M(5), V("a0"))
    assert got == V("a0", 3) * (lam + Scalar(weight_tag(0)) + 3)


def test_tri_apply_annihilates_the_minus_lambda_line():
    T = weight_action(Fraction(1, 2), 0)
    v = ModVec.term(weight_key(Fraction(-1, 2)))
    for r in range(-3, 4):
        for s in range(-3, 4):
            assert tri_apply(T, L(r), M(s), v).is_zero


# -- module axioms -------------------------------------------------------------------


def test_axiom1_symbolic_passes():
    report = check_tri_axiom1(weight_action(), range(-1, 2))
    assert report.passed


def test_axiom1_pullback_passes_on_generic_probes():
    # a generic tag never lands on the zero-weight special case
    candidate = pullback_candidate(zero_twist_action())
    report = check_tri_axiom1(candidate, range(-1, 2),
                              probes=(weight_key("a0"),))
    assert report.passed


def test_axiom2_defects_divisible_by_mu_gate():
    report = check_tri_axiom2(weight_action(), range(-1, 2))
    assert not report.passed
    for entry in report.entries:
        for _, c in entry.defect.items():
            assert divides(MU_GATE, c)


@pytest.mark.parametrize("mu_val", [0, 1])
def test_axiom2_passes_at_module_parameters(mu_val):
    report = check_tri_axiom2(weight_action(None, mu_val), range(-1, 2))
    assert report.passed


def test_axiom2_mu2_pinned_defect():
    report = check_tri_axiom2(weight_action(None, 2), range(-2, 3),
                              probes=(weight_key("a0"),))
    hits = [e for e in report.entries
            if e.indices == ("L", 0, "L", 1, "M", 0, "M", 1)]
    assert len(hits) == 1
    assert hits[0].defect == V("a0") * -2


def test_axiom2_symbolic_defect_at_pinned_pattern():
    report = check_tri_axiom2(weight_action(), range(-2, 3),
                              probes=(weight_key("a0"),))
    hits = [e for e in report.entries
            if e.indices == ("L", 0, "L", 1, "M", 0, "M", 1)]
    assert hits[0].defect == V("a0") * (mu - mu * mu)


def _reference_axiom_report(action, window, probes, axiom):
    # every case evaluated on its own through the single-key kernel
    def compose_into(acc, x, y, terms, sign=1):
        for key, c in terms:
            for k2, c2 in _tri_key_terms(action, x, y, key):
                prod = c * c2
                accumulate(acc, k2, prod if sign > 0 else -prod)

    def scale_into(acc, terms, c):
        for k2, c2 in terms:
            accumulate(acc, k2, c2 * c)

    points = sorted(set(window))
    keys = [L(i) for i in points] + [M(i) for i in points]
    probe_keys = default_probes() if probes is None else probes
    label = f"tri-axiom-{axiom}"
    entries = []
    cases = 0
    for x1, x2, x3, x4 in itertools.product(keys, repeat=4):
        b123 = bracket_keys(x1, x2, x3)
        b124 = bracket_keys(x1, x2, x4)
        for probe in probe_keys:
            cases += 1
            acc = {}
            compose_into(acc, x1, x2, _tri_key_terms(action, x3, x4, probe))
            if axiom == 1:
                compose_into(acc, x3, x4,
                             _tri_key_terms(action, x1, x2, probe), sign=-1)
            else:
                compose_into(acc, x2, x3,
                             _tri_key_terms(action, x1, x4, probe))
                compose_into(acc, x3, x1,
                             _tri_key_terms(action, x2, x4, probe))
            if b123 is not None:
                scale_into(acc, _tri_key_terms(action, b123[1], x4, probe),
                           -b123[0])
            if axiom == 1 and b124 is not None:
                scale_into(acc, _tri_key_terms(action, x3, b124[1], probe),
                           -b124[0])
            if acc:
                entries.append(DefectEntry(
                    axiom=label,
                    indices=(x1.kind, x1.index, x2.kind, x2.index,
                             x3.kind, x3.index, x4.kind, x4.index),
                    defect=ModVec(acc),
                    probe=f"v[{probe}]",
                    family=action_family(action),
                    parameters=action_parameters(action)))
    return DefectReport(label, cases, entries)


_SWEEP_ACTIONS = {
    "T": weight_action(),
    "T-mu2": weight_action(mu=2),
    "pullback-phi": pullback_candidate(zero_twist_action()),
    "pullback-psi": pullback_candidate(shift_action()),
}


def _assert_matches_reference(action, window, probes=None):
    for axiom, sweep in ((1, check_tri_axiom1), (2, check_tri_axiom2)):
        got = sweep(action, window, probes)
        want = _reference_axiom_report(action, window, probes, axiom)
        assert got.cases == want.cases
        assert ([e.record() for e in got.entries]
                == [e.record() for e in want.entries])


@pytest.mark.parametrize("window", [range(-1, 2), range(-2, 3)],
                         ids=["-1..1", "-2..2"])
@pytest.mark.parametrize("name", sorted(_SWEEP_ACTIONS))
def test_axiom_sweeps_match_the_per_case_reference(name, window):
    _assert_matches_reference(_SWEEP_ACTIONS[name], window)


@pytest.mark.parametrize("name", sorted(_SWEEP_ACTIONS))
def test_axiom_sweeps_match_the_reference_on_rational_tags(name):
    # Fraction coefficients go through the sweep's product table
    probes = (weight_key(Fraction(1, 2)), weight_key(Fraction(-2, 3), 1),
              weight_key("a1", -1))
    _assert_matches_reference(_SWEEP_ACTIONS[name], range(-1, 2), probes)


def test_actions_survive_pickling_and_copying():
    for action in (weight_action(), weight_action(Fraction(1, 2), 0),
                   shift_action(), zero_twist_action(2),
                   pullback_candidate(zero_twist_action()),
                   InducedLieAction(weight_action(None, 1))):
        for out in (pickle.loads(pickle.dumps(action)), copy.copy(action),
                    copy.deepcopy(action)):
            assert type(out) is type(action)
            assert out == action and hash(out) == hash(action)
            assert action_parameters(out) == action_parameters(action)


def test_bracket_is_the_same_at_every_rotation_of_its_arguments():
    # the premise of sweeping the second axiom once per cyclic class
    keys = window_keys(range(-3, 4))
    for x1, x2, x3 in itertools.product(keys, repeat=3):
        hit = bracket_keys(x1, x2, x3)
        assert bracket_keys(x2, x3, x1) == hit
        assert bracket_keys(x3, x1, x2) == hit


def _skewed_tri_terms(kernel):
    # a pair kernel that is neither antisymmetric nor translation
    # covariant: some pairs are moved and scaled by their absolute indices,
    # and same-kind pairs act in one order only
    def terms(action, x, y, key):
        if x.kind == y.kind:
            if x.index < y.index:
                return ()
            return ((key.shift(y.index), Scalar(2 * x.index + 7)),)
        out = kernel(action, x, y, key)
        if (x.index - 2 * y.index) % 3:
            return out
        return tuple((k.shift(x.index), c * (2 * x.index + 5))
                     for k, c in out)

    return terms


@pytest.mark.parametrize("name, window, probes", [
    ("T", range(-1, 2), None),
    ("pullback-phi", range(-1, 2), None),
    ("T", range(-2, 3), (weight_key("a0"), weight_key(1))),
], ids=["T -1..1", "pullback-phi -1..1", "T -2..2"])
def test_axiom2_sweep_matches_the_reference_under_a_skewed_kernel(
        monkeypatch, name, window, probes):
    import nambu3.repmod as repmod

    skewed = _skewed_tri_terms(repmod._tri_terms)
    # the sweep's rows read _tri_terms, the reference _tri_key_terms
    monkeypatch.setattr(repmod, "_tri_terms", skewed)
    monkeypatch.setitem(globals(), "_tri_key_terms", skewed)
    action = _SWEEP_ACTIONS[name]
    got = check_tri_axiom2(action, window, probes)
    want = _reference_axiom_report(action, window, probes, 2)
    assert got.cases == want.cases == (2 * len(window)) ** 4 * len(
        probes or default_probes())
    assert got.entries
    assert ([e.record() for e in got.entries]
            == [e.record() for e in want.entries])


@pytest.mark.parametrize("sweep", [check_tri_axiom1, check_tri_axiom2])
def test_axiom_sweep_makes_each_distinct_product_and_sum_once(monkeypatch,
                                                              sweep):
    import nambu3.repmod as repmod

    # the sweep's own arithmetic, not that of the kernel filling its rows
    in_kernel = []
    kernel_calls = []
    kernel = repmod._tri_terms

    def counted_kernel(*args):
        kernel_calls.append(args)
        in_kernel.append(True)
        try:
            return kernel(*args)
        finally:
            in_kernel.pop()

    calls = {"add": [], "mul": []}

    def counting(name, op):
        def wrapped(a, b):
            if not in_kernel:
                calls[name].append((a, b))
            return op(a, b)
        return wrapped

    monkeypatch.setattr(repmod, "_tri_terms", counted_kernel)
    monkeypatch.setattr(Scalar, "__add__", counting("add", Scalar.__add__))
    monkeypatch.setattr(Scalar, "__mul__", counting("mul", Scalar.__mul__))
    report = sweep(weight_action())
    assert len(report.entries) == (0 if sweep is check_tri_axiom1 else 14400)
    for name, pairs in calls.items():
        assert pairs, name
        assert len(pairs) == len(set(pairs)), name
    # each distinct (pair, weight key) once, the twin of the fi scan's count
    assert len(kernel_calls) == len(set(kernel_calls))
    assert len(kernel_calls) == (3640 if sweep is check_tri_axiom1 else 2920)


@pytest.mark.parametrize("sweep", [
    check_fundamental, check_pqxz_table,
    lambda: check_tri_axiom1(weight_action()),
    lambda: check_tri_axiom2(weight_action())],
    ids=["fi", "pqxz-table", "tri-axiom-1", "tri-axiom-2"])
def test_sweep_tables_leave_no_reference_cycle(sweep):
    # a sweep's tables are freed by reference counting when it returns
    sweep()
    gc.collect()
    gc.disable()
    try:
        sweep()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equal_defect_coefficients_are_shared():
    report = check_tri_axiom2(weight_action())
    first: dict = {}
    for entry in report.entries:
        for _, c in entry.defect.items():
            assert first.setdefault(c, c) is c
    assert len(first) == 18


def test_kernel_caches_are_bounded():
    for cache in (_tri_key_terms, _lie_key_terms, _alpha):
        assert cache.cache_info().maxsize is not None


def test_verify_module_is_cached_and_merged():
    rep1 = verify_module(weight_action(None, 1), range(-1, 2))
    rep2 = verify_module(weight_action(None, 1), range(-1, 2))
    assert rep1 is rep2
    assert rep1.passed


# -- weight report ---------------------------------------------------------------------


@pytest.mark.parametrize("mu_val", [0, 1])
def test_weight_report_seven_distinct_weights(mu_val):
    T = weight_action(None, mu_val)
    keys = [weight_key("a0", m) for m in range(-3, 4)]
    report = weight_report(T, keys)
    assert len(report.rows) == 7
    assert report.all_multiplicity_one
    a0 = Scalar(weight_tag(0))
    expected = {str(lam + a0 + m) for m in range(-3, 4)}
    assert {str(w) for _, w, _ in report.rows} == expected


def test_weight_report_rational_coset():
    T = weight_action(0, 0)
    keys = [weight_key(m) for m in range(-2, 3)]
    report = weight_report(T, keys)
    weights = {str(k): str(w) for k, w, _ in report.rows}
    assert weights["0"] == "0"
    assert weights["2"] == "2"


def test_weight_report_counts_weight_multiplicity():
    # raw keys bypass factory normalization, aliasing one line twice
    keys = [WeightKey(Fraction(3, 2), 0), WeightKey(Fraction(1, 2), 1)]
    report = weight_report(weight_action(), keys)
    assert len(report.rows) == 2
    assert all(mult == 2 for _, _, mult in report.rows)
    assert not report.all_multiplicity_one


def test_weight_report_works_on_the_pullback():
    phi = pullback_candidate(zero_twist_action())
    report = weight_report(phi, [weight_key(m) for m in range(-2, 3)])
    assert report.all_multiplicity_one
    weights = {str(k): str(w) for k, w, _ in report.rows}
    assert weights["0"] == "0"
    assert weights["2"] == "2"
    assert weights["-1"] == "-1"


# -- orbit probes ------------------------------------------------------------------------


def test_orbit_trivial_line_at_minus_lambda():
    for lam_val in (0, 3, -2):
        report = orbit_probe(weight_action(lam_val, 0), weight_key(-lam_val))
        assert report.classification == "trivial-line"


def test_orbit_mu1_avoids_zero_weight():
    report = orbit_probe(weight_action(0, 1), weight_key(1))
    assert report.classification == "invariant-window-subspace"
    assert report.missed == (weight_key(0),)


def test_orbit_generic_tag_is_transitive():
    report = orbit_probe(weight_action(Fraction(1, 2), 0), weight_key("a0"))
    assert report.classification == "transitive-on-window"
    assert report.missed == ()


def test_orbit_phi_one_way_through_zero():
    phi = zero_twist_action()
    from_zero = orbit_probe(phi, weight_key(0))
    assert from_zero.classification == "transitive-on-window"
    from_one = orbit_probe(phi, weight_key(1))
    assert from_one.classification == "invariant-window-subspace"
    assert from_one.missed == (weight_key(0),)


def test_orbit_psi_trivial_line():
    report = orbit_probe(shift_action(2, 0), weight_key(-2))
    assert report.classification == "trivial-line"


def _vector_orbit(action, start, window) -> OrbitReport:
    # the route orbit_probe took before it walked keys: every generator
    # applied to a fresh vector per reached line, kept as the oracle
    if isinstance(action, (TriWeightAction, PullbackTriAction)):
        keys = window_keys(window)
        gens = [(lambda v, a=x, b=y: tri_apply(action, a, b, v))
                for x in keys for y in keys if x != y]
    else:
        gens = [(lambda v, k=g: lie_apply(action, k, v))
                for g in window_generators(window)]
    points = sorted(set(window))
    candidates = {WeightKey(start.tag, m) for m in points}
    candidates.add(start)
    start_vec = ModVec.term(start)
    trivial = all(g(start_vec).is_zero for g in gens)
    reached = {start}
    frontier = [start]
    while frontier:
        vec = ModVec.term(frontier.pop())
        for g in gens:
            for out_key in g(vec)._terms:
                if out_key in candidates and out_key not in reached:
                    reached.add(out_key)
                    frontier.append(out_key)
    missed = candidates - reached
    if trivial:
        classification = "trivial-line"
    elif not missed:
        classification = "transitive-on-window"
    else:
        classification = "invariant-window-subspace"
    order = WeightKey.sort_key
    return OrbitReport(start, classification,
                       tuple(sorted(reached, key=order)),
                       tuple(sorted(missed, key=order)))


# (action, starts): symbolic and numeric T with lam = -alpha on a start,
# psi, phi with the zero twist vanishing at r = 3, a pullback and an
# induced action, from generic and rational starts
_ORBIT_CASES = {
    "T-sym": (weight_action(), ("a0", "a1", 0, Fraction(1, 2), -2)),
    "T-mu1": (weight_action(0, 1), (1, 0, "a0")),
    "T-lam3": (weight_action(3, 0), (-3, 0, "a0")),
    "T-half": (weight_action(Fraction(-1, 2), 0),
               (Fraction(1, 2), Fraction(-1, 3))),
    "psi": (shift_action(), ("a0", 0, Fraction(2, 3))),
    "psi-2-0": (shift_action(2, 0), (-2, 1)),
    "phi-sym": (zero_twist_action(), (0, 1, "a0", Fraction(1, 2))),
    "phi-3": (zero_twist_action(3), (0, 2, -3, Fraction(1, 3))),
    "pullback-psi": (pullback_candidate(shift_action()),
                     (0, "a0", Fraction(1, 2))),
    "induced-T": (InducedLieAction(weight_action(None, 1)),
                  (0, "a0", -1)),
}


@pytest.mark.parametrize("window", [range(-1, 2), range(-3, 4),
                                    range(-4, 5)],
                         ids=lambda w: f"{w[0]}..{w[-1]}")
@pytest.mark.parametrize("case", sorted(_ORBIT_CASES))
def test_key_orbit_matches_vector_orbit(case, window):
    action, starts = _ORBIT_CASES[case]
    for tag in starts:
        start = weight_key(tag)
        assert orbit_probe(action, start, window) == \
            _vector_orbit(action, start, window)


def test_orbit_drops_the_vanishing_zero_twist():
    # on 3..3 only p[3] moves v[0], by (mu - 3) * 3, which is 0 at mu = 3
    window = range(3, 4)
    for mu_val, expected in ((3, "trivial-line"),
                             (2, "invariant-window-subspace")):
        action = zero_twist_action(mu_val)
        report = orbit_probe(action, weight_key(0), window)
        assert report.classification == expected
        assert report == _vector_orbit(action, weight_key(0), window)


def test_actions_are_interned():
    assert weight_action(1, 2) is weight_action(Fraction(2, 2), 2)
    assert shift_action(1, 2) is shift_action(Fraction(2, 2), 2)
    assert zero_twist_action(2) is zero_twist_action(Fraction(4, 2))
    assert weight_action() is weight_action(None, None)
    # equal parameters in another family are another action
    assert weight_action(1, 2) is not shift_action(1, 2)
    assert weight_action(1, 2) != shift_action(1, 2)


def test_actions_hash_once(monkeypatch):
    # the hash is made at construction: kernel-cache lookups hash the
    # action without hashing its parameters again
    action = TriWeightAction(lam + 1, mu * 3)
    calls = []
    scalar_hash = Scalar.__hash__

    def counted(self):
        calls.append(self)
        return scalar_hash(self)

    monkeypatch.setattr(Scalar, "__hash__", counted)
    assert len({hash(action) for _ in range(100)}) == 1
    assert calls == []
    # equal fields in another family make another action
    assert TriWeightAction(lam, mu) != LieShiftAction(lam, mu)
    with pytest.raises(AttributeError):
        action.mu = mu


def test_action_memo_stays_at_its_bound():
    for n in range(ACTION_MEMO_SIZE + 20):
        weight_action(n, Fraction(1, 7))
        zero_twist_action(Fraction(n, 11))
    assert _interned.cache_info().currsize == ACTION_MEMO_SIZE
    assert weight_action(-1, 7) is weight_action(-1, 7)


# -- Lie actions ----------------------------------------------------------------------------


def test_shift_action_formula():
    psi = shift_action()
    a0 = Scalar(weight_tag(0))
    assert lie_apply(psi, P(2), V("a0")) == V("a0", -2) * (lam + a0 - mu * 2)
    assert lie_apply(psi, Q(2), V("a0")).is_zero
    assert lie_apply(psi, X(2), V("a0")).is_zero
    assert lie_apply(psi, Z(2), V("a0")).is_zero


def test_zero_twist_action_formula():
    phi = zero_twist_action()
    assert lie_apply(phi, P(3), V(0)) == V(-3) * (mu * 3 - 9)
    assert lie_apply(phi, P(3), V(5)) == V(2) * 2
    assert lie_apply(phi, P(0), V(5)) == V(5) * 5
    assert lie_apply(phi, P(0), V(0)).is_zero
    assert lie_apply(phi, Q(3), V(0)).is_zero


def test_zero_twist_annihilates_nothing_reaching_zero():
    # no generator maps any v[m], m != 0, onto the zero-weight line
    phi = zero_twist_action()
    for m in range(-3, 4):
        if m == 0:
            continue
        for r in range(-3, 4):
            out = lie_apply(phi, P(r), V(m))
            assert weight_key(0) not in out.support()


def test_check_lie_module_psi_symbolic():
    assert check_lie_module(shift_action(), range(-2, 3)).passed


def test_check_lie_module_phi_symbolic():
    probes = (weight_key(0), weight_key(1), weight_key(-1),
              weight_key(2), weight_key(-2))
    assert check_lie_module(zero_twist_action(), range(-2, 3),
                            probes=probes).passed


def test_phi_commutator_closed_form_at_zero_weight():
    # [phi(p_r), phi(p_s)] v0 = (r-s)(r+s)(mu-r-s) v_{-r-s}
    phi = zero_twist_action()
    for r in range(-3, 4):
        for s in range(-3, 4):
            got = (lie_apply(phi, P(r), lie_apply(phi, P(s), V(0)))
                   - lie_apply(phi, P(s), lie_apply(phi, P(r), V(0))))
            coeff = (mu - r - s) * ((r - s) * (r + s))
            assert got == V(-r - s) * coeff


def test_check_lie_module_rational_parameters():
    assert check_lie_module(shift_action(0, Fraction(1, 3)),
                            range(-2, 3)).passed


def test_check_lie_module_reports_a_skewed_table(monkeypatch):
    import nambu3.repmod as repmod
    from nambu3.derivations import PqxzElem, pqxz_key_bracket

    # one table entry off by p[1]: [p[1], p[0]] = 2 p[1] instead of p[1]
    def skewed(k1, k2):
        out = pqxz_key_bracket(k1, k2)
        return out + PqxzElem.term(P(1)) if (k1, k2) == (P(1), P(0)) else out

    monkeypatch.setattr(repmod, "pqxz_key_bracket", skewed)
    report = check_lie_module(shift_action(1, 1), range(-1, 2))
    assert (report.cases, len(report.entries)) == (864, 5)
    assert {e.indices for e in report.entries} == {("p", 1, "p", 0)}
    assert ('{"axiom":"lie-commutator","defect":"-1 v[0]","family":"psi",'
            '"indices":["p","1","p","0"],"parameters":{"lam":"1","mu":"1"},'
            '"probe":"v[1]"}') in report.machine_lines()


def test_induced_action_satisfies_lie_commutators():
    induced = InducedLieAction(weight_action(None, 1),
                               axiom_window=tuple(range(-1, 2)))
    assert check_lie_module(induced, range(-2, 3)).passed


# -- induction -------------------------------------------------------------------------------


@pytest.mark.parametrize("mu_val", [0, 1])
def test_check_induced_passes_for_module_parameters(mu_val):
    tri = weight_action(None, mu_val)
    lie = shift_action(None, mu_val)
    report = check_induced(tri, lie, range(-2, 3),
                           axiom_window=range(-1, 2))
    assert report.passed


def test_check_induced_reports_a_mismatched_lie_action():
    # lam = 0 on the ternary side and 1 on the Lie side: each p generator is
    # off by its shifted probe, while q, x and z act as zero on both sides
    report = check_induced(weight_action(0, 1), shift_action(1, 1),
                           range(-1, 2), axiom_window=range(-1, 2))
    assert (report.cases, len(report.entries)) == (72, 18)
    assert ('{"axiom":"induced-match","defect":"-1 v[0]",'
            '"family":"psi vs induced(T)","indices":["p","-1"],'
            '"parameters":{"lam":"1","mu":"1"},"probe":"v[-1]"}'
            ) in report.machine_lines()


def test_check_induced_rejects_mu2():
    tri = weight_action(None, 2)
    lie = shift_action(None, 2)
    with pytest.raises(NotAModule) as exc:
        check_induced(tri, lie, range(-2, 3), axiom_window=range(-1, 2))
    assert not exc.value.report.passed


def test_induce_apply_gate():
    tri = weight_action(None, 2)
    with pytest.raises(NotAModule):
        induce_apply(tri, ad(L(1), M(0)), V("a0"),
                     axiom_window=range(-1, 2))
    out = induce_apply(tri, ad(L(1), M(0)), V("a0"), require_module=False)
    assert not out.is_zero
    with pytest.raises(NotAModule):
        induce_apply(weight_action(None, Fraction(1, 3)), ad(L(1), M(0)),
                     V("a0"), axiom_window=range(-1, 2))


def test_gate_refuses_rational_mu_outside_0_1_on_a_clean_window():
    # both axioms hold on the one-point window at mu = 2, but 2 is not a
    # root of mu^2 - mu, so the action is still no module
    tri = weight_action(None, 2)
    report, accepted = _verdict(tri, range(0, 1))
    assert report.passed and not accepted
    with pytest.raises(NotAModule):
        induce_apply(tri, pqxz_to_deriv(P(1)), ModVec.term(weight_key(0)),
                     axiom_window=range(0, 1))


def test_induce_apply_gate_admits_symbolic_parameters():
    # residual axiom defects divisible by mu^2 - mu specialize away
    tri = weight_action()
    got = induce_apply(tri, ad(L(0), M(-2)), V("a0"),
                       axiom_window=range(-1, 2))
    a0 = Scalar(weight_tag(0))
    assert got == V("a0", -2) * (lam + a0 - mu * 2)
    assert induce_apply(tri, KERNEL_RELATION, V("a0"),
                        axiom_window=range(-1, 2)).is_zero


def test_module_gate_tests_each_distinct_coefficient_once(monkeypatch):
    import nambu3.repmod as repmod

    # one gate sweep, then five cached verdicts: 18 distinct defect
    # coefficients among the 14,400 defects, each tested exactly once
    tri = weight_action()
    calls = []

    def counting_divides(d, a):
        calls.append(a)
        return divides(d, a)

    repmod._module_gate.cache_clear()
    monkeypatch.setattr(repmod, "divides", counting_divides)
    for probe in default_probes():
        assert induce_apply(tri, KERNEL_RELATION, ModVec.term(probe)).is_zero
    report = verify_module(tri)
    distinct = {c for e in report.entries for _, c in e.defect.items()}
    assert len(report.entries) == 14400
    assert len(calls) == len(set(calls)) == len(distinct) == 18


def test_induced_formula_matches_shift_action_for_any_mu():
    # formula-level agreement holds even at mu=2; only the gate fails there
    tri = weight_action(None, 2)
    lie = shift_action(None, 2)
    for fam, r in [("p", 2), ("p", 0), ("q", 1), ("x", -1), ("z", 3)]:
        gen = {"p": P, "q": Q, "x": X, "z": Z}[fam](r)
        for probe in default_probes():
            v = ModVec.term(probe)
            got = induce_apply(tri, pqxz_to_deriv(gen), v,
                               require_module=False)
            assert got == lie_apply(lie, gen, v)


KERNEL_RELATION = ad(L(2), M(1)) - ad(L(1), M(0)) * 2 + ad(L(0), M(-1))


def _kernel_relations():
    from nambu3.derivations import deriv_to_pqxz

    rels = [KERNEL_RELATION]
    # difference of two expansions of the same pair pattern: ad(L_r, M_s)
    # depends only on r - s up to the q-part scale, so these cancel
    for r in range(1, 6):
        rels.append(ad(L(r + 1), M(1)) - ad(L(r), M(0)) * 2
                    + ad(L(r - 1), M(-1)))
    for s in range(0, 5):
        rels.append(ad(L(s + 2), M(s + 1)) - ad(L(s + 1), M(s)) * 2
                    + ad(L(s), M(s - 1)))
    assert all(deriv_to_pqxz(rel).is_zero for rel in rels)
    return rels


def test_kernel_relations_act_as_zero_for_all_parameters():
    tri = weight_action()  # fully symbolic, gate skipped
    for rel in _kernel_relations():
        for probe in default_probes():
            out = induce_apply(tri, rel, ModVec.term(probe),
                               require_module=False)
            assert out.is_zero


@pytest.mark.parametrize("mu_val", [0, 1])
def test_kernel_relations_act_as_zero_through_the_gate(mu_val):
    tri = weight_action(None, mu_val)
    for rel in _kernel_relations():
        out = induce_apply(tri, rel, V("a0"), axiom_window=range(-1, 2))
        assert out.is_zero


# -- the counterexample ------------------------------------------------------------------------


def test_counterexample_symbolic():
    lhs, rhs, defect = counterexample_phi()
    assert lhs == V(-4) * (mu * -4 + 16)
    assert rhs == V(-4) * (mu * -4 + 20)
    assert defect == V(-4) * -4


@pytest.mark.parametrize("mu_val", [0, 1, 2, Fraction(1, 3)])
def test_counterexample_defect_is_mu_independent(mu_val):
    lhs, rhs, defect = counterexample_phi(mu_val)
    assert defect == V(-4) * -4
    assert lhs - rhs == defect


def test_pullback_scan_finds_constant_defects():
    candidate = pullback_candidate(zero_twist_action())
    report = check_tri_axiom2(candidate, range(-2, 3),
                              probes=(weight_key(0),))
    assert not report.passed
    assert any(all(c.is_rational for _, c in e.defect.items())
               for e in report.entries)


def test_pullback_candidate_requires_lie_family():
    with pytest.raises(TypeError):
        pullback_candidate(weight_action())
