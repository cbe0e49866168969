"""Mutation table: a fault patched into a named kernel flips a suite.

Each row patches one module global of ``nambu3`` with a one-line mutant and
runs a ``nambu3 check`` suite through ``cli.main``: the suite exits 0 on the
real kernel and 1 under the mutant.  The kernel and gate caches are cleared
before and after each run, so a warm entry cannot hide a mutant.

The guard below keeps that true for every kernel: no package function sits
in a parameter default, and no module-level ``lru_cache`` wraps a function
under another name, since either binds a kernel before it is called.

The ordering tables have no row: no exit code can flip under a mutant of
one, since ``fi``, ``table``, the Lie modules and the first module axiom
are clean on the default windows and the gate reads each class vector at
its identity ordering.  Flipping the sign of a table's last ordering is
caught elsewhere: ``algebra._FI_ORDERINGS`` by ``tests/test_algebra.py``'s
``test_fi_sweep_matches_reference_route``, ``repmod._AXIOM1_ORDERINGS`` by
``tests/test_repmod.py``'s
``test_axiom_sweeps_match_the_reference_under_a_skewed_kernel``,
``repmod._AXIOM2_ORDERINGS`` by
``test_axiom_sweeps_match_the_per_case_reference`` there and the
``module-t`` digest tests in ``tests/test_benchmark_jobs.py``, and the
swapped order of a generator pair by
``test_table_sweep_matches_reference_route`` in
``tests/test_derivations.py`` (table) and
``test_lie_sweep_matches_reference_route`` in ``tests/test_repmod.py``
(Lie modules).

Background: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978.
"""
import importlib
import inspect
import pkgutil

import pytest

import nambu3
from nambu3 import algebra, cli, derivations, repmod
from nambu3.algebra import L, bracket_keys, wedge
from nambu3.cli import main
from nambu3.derivations import (P, PqxzElem, pqxz_key_apply,
                                pqxz_key_bracket, pqxz_to_deriv)
from nambu3.linear import extend
from nambu3.repmod import ModVec, check_tri_axiom2, weight_action

# every kernel cache and the module gate, looked up when cleared
_CACHES = ((repmod, "_tri_key_terms"), (repmod, "_lie_key_terms"),
           (repmod, "_alpha"), (repmod, "_expansion"),
           (repmod, "_module_gate"), (derivations, "pair_to_pqxz"))

_TRI_KEY_TERMS = repmod._tri_key_terms.__wrapped__
_LIE_KEY_TERMS = repmod._lie_key_terms.__wrapped__
_TRI_TERMS = repmod._tri_terms
_MODULE_VERDICT = repmod._module_verdict


def _clear_caches() -> None:
    for module, name in _CACHES:
        getattr(module, name).cache_clear()


def _q_on_l_unsigned(k, b):
    # q[r] sends L[t] to +L[t + r] instead of -L[t + r]
    hit = pqxz_key_apply(k, b)
    return (-hit[0], hit[1]) if (k.family, b.kind) == ("q", "L") else hit


def _p0_p1_off_by_p1(k1, k2):
    # [p[0], p[1]] = 0 instead of -p[1], at the sorted pair the sweeps read
    out = pqxz_key_bracket(k1, k2)
    return out + PqxzElem.term(P(1)) if (k1, k2) == (P(0), P(1)) else out


def _doubled_expansion(b):
    return pqxz_to_deriv(b) * 2


def _doubled_tri_key_terms(action, x, y, key):
    return tuple((k, c * 2) for k, c in _TRI_KEY_TERMS(action, x, y, key))


def _doubled_on_l0(k1, k2, k3):
    # doubles whole hits by their image, so still totally antisymmetric
    hit = bracket_keys(k1, k2, k3)
    return (hit[0] * 2, hit[1]) if hit and hit[1] == L(0) else hit


def _unsigned_wedge(x, y, c):
    # a swapped pair keeps c instead of taking -c
    return [(pair, c) for pair, _ in wedge(x, y, 1)]


def _doubled_tri_terms_at_1(action, x, y, key):
    terms = _TRI_TERMS(action, x, y, key)
    return tuple((k, c * 2) for k, c in terms) if x.index == 1 else terms


def _doubled_lie_key_terms_at_1(action, k, key):
    terms = _LIE_KEY_TERMS(action, k, key)
    return tuple((t, c * 2) for t, c in terms) if k.index == 1 else terms


def _gate_refuses(tri, report):
    return False


def _unweighted_extend(pieces):
    return extend((terms, 1) for terms, c in pieces)


def _zero_counterexample(mu=None):
    return ModVec.zero(), ModVec.zero(), ModVec.zero()


def _module_with_defects(tri):
    return check_tri_axiom2(weight_action(None, 2), range(-1, 2))


def _clean_axiom2(*args, **kwargs):
    # a real report with no defect: the second axiom at mu = 1
    return check_tri_axiom2(weight_action(None, 1), range(-1, 2))


def _verdict_refuses(*args):
    return _MODULE_VERDICT(*args)[0], False


_INDUCED_MU1 = ("check", "induced-psi", "--mu", "1")


@pytest.mark.parametrize("module, name, mutant, argv", [
    pytest.param(derivations, "pqxz_key_apply", _q_on_l_unsigned,
                 ("check", "table"), id="pqxz_key_apply-table"),
    pytest.param(derivations, "pqxz_key_bracket", _p0_p1_off_by_p1,
                 ("check", "table"), id="pqxz_key_bracket-table"),
    pytest.param(derivations, "pqxz_key_bracket", _p0_p1_off_by_p1,
                 ("check", "lie-phi"), id="pqxz_key_bracket-lie-phi"),
    pytest.param(repmod, "pqxz_to_deriv", _doubled_expansion, _INDUCED_MU1,
                 id="pqxz_to_deriv-induced-psi"),
    pytest.param(repmod, "_tri_key_terms", _doubled_tri_key_terms,
                 _INDUCED_MU1, id="_tri_key_terms-induced-psi"),
    pytest.param(algebra, "bracket_keys", _doubled_on_l0, ("check", "fi"),
                 id="bracket_keys-fi"),
    pytest.param(repmod, "wedge", _unsigned_wedge,
                 ("check", "module-t", "--mu", "1"), id="wedge-module-t"),
    pytest.param(repmod, "_tri_terms", _doubled_tri_terms_at_1,
                 ("check", "module-t", "--mu", "1"),
                 id="_tri_terms-module-t"),
    pytest.param(repmod, "_lie_key_terms", _doubled_lie_key_terms_at_1,
                 ("check", "lie-psi"), id="_lie_key_terms-lie-psi"),
    pytest.param(repmod, "_within_parameter_gate", _gate_refuses,
                 _INDUCED_MU1, id="_within_parameter_gate-induced-psi"),
    pytest.param(repmod, "extend", _unweighted_extend, _INDUCED_MU1,
                 id="extend-induced-psi"),
    pytest.param(cli, "counterexample_phi", _zero_counterexample,
                 ("check", "pullback-phi"),
                 id="counterexample_phi-pullback-phi"),
    pytest.param(cli, "check_tri_axiom2", _clean_axiom2,
                 ("check", "pullback-phi"),
                 id="check_tri_axiom2-pullback-phi"),
    pytest.param(cli, "verify_module", _module_with_defects, _INDUCED_MU1,
                 id="verify_module-induced-psi"),
    pytest.param(cli, "_module_verdict", _verdict_refuses,
                 ("check", "module-t", "--mu", "1"),
                 id="_module_verdict-module-t"),
])
def test_mutant_flips_its_suite(capsys, module, name, mutant, argv):
    _clear_caches()
    assert main(list(argv)) == 0
    _clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, mutant)
            code = main(list(argv))
    finally:
        _clear_caches()
    capsys.readouterr()
    assert code == 1


def _package_modules() -> list:
    return [importlib.import_module(f"nambu3.{info.name}")
            for info in pkgutil.iter_modules(nambu3.__path__)]


def _is_package_function(value) -> bool:
    return (callable(value) and not isinstance(value, type)
            and (getattr(value, "__module__", None) or "").startswith(
                "nambu3"))


def _functions(module):
    """Each function the module defines, as (qualified name, function),
    with the methods of its classes and the functions its caches wrap."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)
                if inspect.isfunction(func):
                    yield f"{name}.{attr}", func
        elif inspect.isfunction(inspect.unwrap(obj)):
            yield name, inspect.unwrap(obj)


def test_no_kernel_is_bound_before_it_is_called():
    bound = []
    for module in _package_modules():
        for name, func in _functions(module):
            defaults = ((func.__defaults__ or ())
                        + tuple((func.__kwdefaults__ or {}).values()))
            if any(map(_is_package_function, defaults)):
                bound.append(f"{module.__name__}.{name} has a kernel default")
        for name, obj in vars(module).items():
            wrapped = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info") and wrapped.__name__ != name:
                bound.append(f"{module.__name__}.{name} caches "
                             f"{wrapped.__name__}")
    assert bound == []
