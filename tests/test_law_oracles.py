"""The fusion-ring, Galois law and structural-identity checks decide
their laws from integer and index structure.  Each gives the report of
its dense oracle in oracles.py, check by check: names, verdicts,
witnesses and values, on every built-in datum and on changed tables,
permutations, involutions and Dehn diagonals.  The counts pin that the
structural routes do no matrix products and multiply out no idempotents
on valid data."""

import pytest

import oracles

from moddata import cyclo, datum, fusion, galois, linalg
from moddata.constructors import radford_datum, semion_datum, su2_datum
from moddata.datum import (
    ModularDatum,
    basic_stats,
    kronecker_product,
    validate_axioms,
    verify_structural_identities,
)
from moddata.errors import ModdataError
from moddata.fusion import (
    FusionTable,
    fusion_coefficients,
    verify_idempotent_laws,
    verify_ring_homomorphisms,
)
from moddata.galois import GaloisPermutation, verify_action_laws

_BUILT_IN = oracles.built_in_data()
_IDS = [name for name, _ in _BUILT_IN]


def _outcome(check, *args):
    try:
        return check(*args).to_json()
    except ModdataError as exc:
        return type(exc).__name__, str(exc)


def _fusion_checks(d, t):
    """(structural, oracle) outcome of each of the three fusion checks."""
    return [
        (
            _outcome(FusionTable.verify_invariants, t),
            _outcome(oracles.oracle_verify_invariants, t),
        ),
        (
            _outcome(verify_ring_homomorphisms, d, t),
            _outcome(oracles.oracle_verify_ring_homomorphisms, d, t),
        ),
        (
            _outcome(verify_idempotent_laws, d, t),
            _outcome(oracles.oracle_verify_idempotent_laws, d, t),
        ),
    ]


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_fusion_checks_match_their_oracles(name, d):
    for got, expected in _fusion_checks(d, fusion_coefficients(d)):
        assert got == expected
        assert got["passed"]


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_action_laws_match_the_oracle(name, d):
    got = _outcome(verify_action_laws, d)
    assert got == _outcome(oracles.oracle_verify_action_laws, d)
    if basic_stats(d).integral:
        assert got["passed"]
    else:
        assert got[0] == "NotIntegral"  # SU(2)_k for k > 1


def _changed(t, i, j, k, commutative):
    """t with N_ij^k raised by one, and N_ji^k with it when commutative."""
    coeffs = [[list(row) for row in plane] for plane in t.coeffs]
    coeffs[i][j][k] += 1
    if commutative:
        coeffs[j][i][k] += 1
    return FusionTable(
        size=t.size,
        coeffs=tuple(tuple(tuple(row) for row in plane) for plane in coeffs),
        violations=t.violations,
    )


# (name, datum, changed entry (i, j, k)): j is not the dual of i, so the
# duality element, and with it the idempotents, stay as they are.  At
# the first three the first differing output index of the associativity
# check lies above an index where both sides agree.
_CHANGED = [
    ("radford5", radford_datum(5), (2, 4, 3)),
    # the single term N_24^1 = 1 becomes 2
    ("radford5-doubled", radford_datum(5), (2, 4, 1)),
    ("semion2", kronecker_product(semion_datum(), semion_datum()), (2, 3, 2)),
    # N_12^3 = 1 becomes 2; in the noncommutative change p_1 and p_3
    # still absorb every b_k, the others do not
    ("su2_4", su2_datum(4), (1, 2, 3)),
]


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("name,d,entry", _CHANGED, ids=[c[0] for c in _CHANGED])
def test_fusion_checks_match_their_oracles_on_a_changed_entry(
    name, d, entry, commutative
):
    t = _changed(fusion_coefficients(d), *entry, commutative)
    for got, expected in _fusion_checks(d, t):
        assert got == expected
        assert not got["passed"]


def test_idempotent_laws_match_the_oracle_on_changed_idempotents(monkeypatch):
    # 2 p_0 absorbs but is not idempotent; p_1 + p_2 does not absorb, and
    # the absorbing p_2 is not orthogonal to it
    d = su2_datum(4)
    t = fusion_coefficients(d)
    real = fusion.idempotents

    def changed(d, t):
        ps = real(d, t)
        return [ps[0].scale(2), ps[1] + ps[2]] + ps[2:]

    monkeypatch.setattr(fusion, "idempotents", changed)
    got = verify_idempotent_laws(d, t)
    assert got.to_json() == oracles.oracle_verify_idempotent_laws(d, t).to_json()
    assert got["idempotent"].witness == 0
    assert got["orthogonal"].witness == (1, 2)


@pytest.mark.parametrize(
    "swaps",
    # one swap; and a second one that keeps the permutation commuting with
    # the involution a -> -a, so that only S P = P^T S fails
    [((1, 2),), ((1, 2), (5, 6))],
)
def test_action_laws_match_the_oracle_on_a_changed_permutation(monkeypatch, swaps):
    d = radford_datum(7)
    real = galois.index_action

    def swapped(d, q):
        gp = real(d, q)
        if q != 3:
            return gp
        perm = list(gp.perm)
        for a, b in swaps:
            perm[a], perm[b] = perm[b], perm[a]
        return GaloisPermutation(q=gp.q, perm=tuple(perm))

    monkeypatch.setattr(galois, "index_action", swapped)
    got = verify_action_laws(d)
    assert got.to_json() == oracles.oracle_verify_action_laws(d).to_json()
    assert got["commutes-with-star"].passed == (len(swaps) == 2)
    assert got["permutation-matrix-relations"].witness == 3


def test_permutation_relations_check_the_involution_apart_from_s(monkeypatch):
    # the all-ones S commutes with every permutation matrix, so only
    # P C = C P can fail
    one = cyclo.one(1)
    d = ModularDatum(("0", "1", "2"), "0", (0, 2, 1), ((one,) * 3,) * 3, (one,) * 3)
    monkeypatch.setattr(
        galois, "index_action", lambda d, q: GaloisPermutation(q=q, perm=(1, 0, 2))
    )
    got = verify_action_laws(d)
    assert got.to_json() == oracles.oracle_verify_action_laws(d).to_json()
    assert got["permutation-matrix-relations"].witness == 0


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_action_laws_make_no_matrix_product(monkeypatch):
    calls = _counting(monkeypatch, linalg, "mat_mul")
    assert verify_action_laws(radford_datum(7)).passed
    assert calls == []


def test_idempotent_laws_multiply_nothing_on_valid_data(monkeypatch):
    calls = _counting(monkeypatch, fusion, "multiply")
    for name, d in _BUILT_IN:
        assert verify_idempotent_laws(d, fusion_coefficients(d)).passed, name
    assert calls == []


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_structural_identities_match_the_oracle(name, d):
    got = _outcome(verify_structural_identities, d)
    assert got == _outcome(oracles.oracle_verify_structural_identities, d)
    assert got["passed"]


@pytest.mark.parametrize(
    "star,t_changed,failing",
    [
        # 1 <-> 4 alone: T stays star-invariant, C S = S C fails
        ((0, 4, 2, 3, 1), False, {"c-commutes-with-s"}),
        # 1 <-> 2: both fail
        ((0, 2, 1, 3, 4), False, {"c-commutes-with-s", "c-commutes-with-t"}),
        # the true star, with t_4 no longer equal to t_1
        ((0, 4, 3, 2, 1), True, {"c-commutes-with-t"}),
    ],
)
def test_structural_identities_match_the_oracle_on_a_changed_datum(
    monkeypatch, star, t_changed, failing
):
    # every valid datum passes both commutation checks (C = S^2 / n and
    # T is star-invariant), so the axioms are bypassed and the fusion
    # table of the unchanged datum is used
    d = radford_datum(5)
    table = fusion_coefficients(d)
    t_diag = d.t_diag
    if t_changed:
        t_diag = t_diag[:4] + (t_diag[2],)
    changed = ModularDatum(d.labels, d.unit, star, d.s_matrix, t_diag)
    monkeypatch.setattr(datum, "require_valid", lambda d: None)
    monkeypatch.setattr(fusion, "fusion_coefficients", lambda d: table)
    got = verify_structural_identities(changed)
    assert got.to_json() == oracles.oracle_verify_structural_identities(changed).to_json()
    commutation = {"c-commutes-with-s", "c-commutes-with-t"}
    assert {c.name for c in got.failures()} & commutation == failing


def test_structural_identities_make_no_matrix_product(monkeypatch):
    for name, d in _BUILT_IN:
        # S^2 and S T S of the axioms are kept on the datum
        validate_axioms(d)
    calls = _counting(monkeypatch, linalg, "mat_mul")
    for name, d in _BUILT_IN:
        assert verify_structural_identities(d).passed, name
    assert calls == []
