"""Derived values kept on the datum: each is computed once per datum, the
reports handed out stay independent, and a datum whose memo is full
analyses exactly as a fresh one does."""

from math import gcd

import pytest

from moddata import datum, fusion, galois
from moddata.cli import build_analysis
from moddata.constructors import radford_datum, semion_datum, trivial_datum
from moddata.datum import kronecker_product, validate_axioms


def test_build_analysis_derives_each_value_once(monkeypatch):
    counts = {}
    for module, name in (
        (datum, "basic_stats"),
        (datum, "_global_dimension_from_square"),
        (datum, "_axioms_1_to_4"),
        (fusion, "fusion_coefficients"),
        (galois, "_index_action"),
        (galois, "is_galois_datum"),
    ):
        cached = getattr(module, name)
        uncached = cached.__wrapped__

        def counting(*args, name=name, uncached=uncached):
            counts[name] = counts.get(name, 0) + 1
            return uncached(*args)

        monkeypatch.setattr(cached, "__wrapped__", counting)
    bundle = build_analysis(radford_datum(9))
    assert bundle.passed
    assert counts == {
        "basic_stats": 1,
        "_global_dimension_from_square": 1,
        "_axioms_1_to_4": 1,
        "fusion_coefficients": 1,
        # one permutation per unit modulo the normalized exponent 9
        "_index_action": 6,
        "is_galois_datum": 1,
    }


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


def _built_in_data():
    data = [("trivial", trivial_datum()), ("semion", semion_datum())]
    for n in (3, 5, 7, 9):
        data += [
            (f"radford{n}^{e}", radford_datum(n, e))
            for e in range(1, n)
            if gcd(e, n) == 1
        ]
    data.append(("radford11", radford_datum(11)))
    data.append(("semion2", kronecker_product(semion_datum(), semion_datum())))
    data.append(
        ("radford3*semion", kronecker_product(radford_datum(3), semion_datum()))
    )
    return data


_BUILT_IN = _built_in_data()


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=[name for name, _ in _BUILT_IN])
def test_full_memo_gives_the_fresh_bundle(name, d):
    extensions = d.size <= 4
    fresh = build_analysis(d, extensions=extensions).to_json()
    assert d._memo  # the first analysis filled it
    assert build_analysis(d, extensions=extensions).to_json() == fresh
