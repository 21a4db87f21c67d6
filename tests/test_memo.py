"""Derived values kept on the datum: each is computed once per datum, the
reports handed out stay independent, and a datum whose memo is full
analyses exactly as a fresh one does."""

import gc
import weakref

import pytest

from oracles import built_in_data

from moddata import axioms, datum, extension, fusion, galois
from moddata.analysis import build_analysis
from moddata.axioms import validate_axioms
from moddata.constructors import radford_datum, semion_datum

_DERIVED = (
    (datum, "basic_stats"),
    (axioms, "_global_dimension_from_square"),
    (axioms, "_axioms_1_to_4"),
    (fusion, "fusion_coefficients"),
    (fusion, "_xi_matrix"),
    (galois, "_index_action"),
    (galois, "is_galois_datum"),
    (extension, "_family_choices"),
)


def _count_derivations(monkeypatch):
    counts = {}
    for module, name in _DERIVED:
        cached = getattr(module, name)
        uncached = cached.__wrapped__

        def counting(*args, name=name, uncached=uncached):
            counts[name] = counts.get(name, 0) + 1
            return uncached(*args)

        monkeypatch.setattr(cached, "__wrapped__", counting)
    return counts


def test_build_analysis_derives_each_value_once(monkeypatch):
    counts = _count_derivations(monkeypatch)
    bundle = build_analysis(radford_datum(9))
    assert bundle.passed
    assert counts == {
        "basic_stats": 1,
        "_global_dimension_from_square": 1,
        "_axioms_1_to_4": 1,
        "fusion_coefficients": 1,
        "_xi_matrix": 1,
        # one permutation per unit modulo the normalized exponent 9
        "_index_action": 6,
        "is_galois_datum": 1,
    }


def test_analysis_with_extensions_builds_the_family_once(monkeypatch):
    counts = _count_derivations(monkeypatch)
    assert build_analysis(radford_datum(3), extensions=True).passed
    assert counts["_family_choices"] == 1
    assert counts["_xi_matrix"] == 1


def test_memo_holds_no_reference_cycle_through_the_datum():
    # with the collector off only reference counts free the datum, which
    # they cannot if a kept value refers back to it
    enabled = gc.isenabled()
    gc.disable()
    try:
        d = radford_datum(3)
        assert build_analysis(d, extensions=True).passed
        assert extension.extension_family(d)[0].datum is d
        ref = weakref.ref(d)
        del d
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_mutating_a_report_leaves_the_next_one_alone():
    d = semion_datum()
    first = validate_axioms(d)
    expected = first.to_json()
    first.checks[0].passed = False
    first.checks[5].witness = "tampered"
    first.checks.pop()
    first.add("bogus", False)
    second = validate_axioms(d)
    assert second is not first
    assert second.to_json() == expected
    second.checks.clear()
    assert validate_axioms(d).to_json() == expected


_BUILT_IN = built_in_data()


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=[name for name, _ in _BUILT_IN])
def test_full_memo_gives_the_fresh_bundle(name, d):
    extensions = d.size <= 4
    fresh = build_analysis(d, extensions=extensions).to_json()
    assert d._memo  # the first analysis filled it
    assert build_analysis(d, extensions=extensions).to_json() == fresh
