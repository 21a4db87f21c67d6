from fractions import Fraction

import pytest

import oracles

from moddata import cli, cyclo
from moddata.axioms import (
    derive_report,
    power_identity_check,
    require_valid,
    validate_axioms,
    verify_structural_identities,
)
from moddata.constructors import radford_datum, semion_datum, trivial_datum
from moddata.cyclo import CycloNum, root_of_unity
from moddata.datum import ModularDatum, kronecker_product
from moddata.errors import DuplicateLabel, InvalidDatum, TooLarge


def test_semion_passes_all_axioms():
    rep = validate_axioms(semion_datum())
    assert rep.passed
    assert [c.name for c in rep.checks if c.name.startswith("axiom")] == [
        "axiom1-s-symmetric",
        "axiom1-t-finite-order",
        "axiom2-t-star-invariant",
        "axiom2-dimensions-nonzero",
        "axiom2-unit-self-dual",
        "axiom3-s-squared",
        "axiom4-proportionality",
        "axiom5-verlinde-integrality",
    ]


def test_trivial_datum_passes():
    d = trivial_datum()
    assert validate_axioms(d).passed
    rep = derive_report(d)
    assert rep.n == 1 and rep.N == 1 and rep.N_o == 1
    assert rep.g == 1 and rep.g_rec == 1


def test_corrupted_dehn_fails_axiom4():
    sem = semion_datum()
    bad = ModularDatum(
        sem.labels, sem.unit, sem.star, sem.s_matrix,
        (cyclo.one(1), -cyclo.one(1)),
    )
    rep = validate_axioms(bad)
    assert not rep.passed
    failed = rep["axiom4-proportionality"]
    assert not failed.passed and failed.witness is not None


def test_corrupted_star_fails_structure():
    sem = semion_datum()
    with pytest.raises(ValueError):
        ModularDatum(sem.labels, sem.unit, (1, 1), sem.s_matrix, sem.t_diag)


def test_validation_total_on_garbage_entries():
    # a datum with a non-root Dehn entry and broken symmetry still yields
    # a complete report rather than an exception
    one = cyclo.one(1)
    two = cyclo.from_rational(2)
    d = ModularDatum(
        ("a", "b"), "a", (0, 1),
        ((one, two), (one, one)),
        (one, two),
    )
    rep = validate_axioms(d)
    assert not rep.passed
    assert not rep["axiom1-s-symmetric"].passed
    assert not rep["axiom1-t-finite-order"].passed


def _two_labels(s, t=None):
    """The datum on labels 0 and 1 with this S, rational entries given as
    Fractions, the identity star and T = 1 unless given."""
    s = tuple(tuple(x if isinstance(x, CycloNum) else cyclo.from_rational(x) for x in row)
              for row in s)
    return ModularDatum(("0", "1"), "0", (0, 1), s, t or (cyclo.one(1),) * 2)


@pytest.mark.parametrize(
    "d,check,witness",
    [
        # S^2 = 0: the constant n exists and is zero
        (_two_labels([[1, 1], [-1, -1]]), "axiom3-s-squared", ["n", "zero"]),
        (_two_labels(semion_datum().s_matrix, (cyclo.one(1), cyclo.zero(1))),
         "axiom4-proportionality", "T is not invertible"),
        # S^2 = I, but the Verlinde sums divide by s_01 = 0
        (_two_labels([[1, 0], [1, -1]]), "axiom5-verlinde-integrality",
         "unit row of S has a zero entry"),
    ],
)
def test_degenerate_data_fail_their_axiom_with_its_witness(d, check, witness):
    rep = validate_axioms(d).to_json()
    assert not rep["passed"]
    assert {c["name"]: c.get("witness") for c in rep["checks"]}[check] == witness


@pytest.mark.parametrize(
    "s,message",
    [
        ([[1, 1], [1, 1]], "S^2 is not a multiple of C: witness (0, 1, "),
        # S^2 = 2I, and 1 + (1/2)^2 is not 2
        ([[1, 2], [Fraction(1, 2), -1]],
         "global dimension from S^2 disagrees with the sum of squared dimensions"),
    ],
)
def test_derive_report_needs_one_global_dimension(s, message):
    with pytest.raises(InvalidDatum) as err:
        derive_report(_two_labels(s))
    assert str(err.value).startswith(message)


def test_semion_report_values():
    rep = derive_report(semion_datum())
    i = root_of_unity(4, 1)
    assert rep.n == 2
    assert rep.N == 4 and rep.N_o == 4
    assert rep.dims == (cyclo.one(1), cyclo.one(1))
    assert rep.g == 1 + i and rep.g_rec == 1 - i
    assert rep.normalized and rep.integral


@pytest.mark.parametrize("n,gsq", [(3, -3), (5, 5), (7, -7)])
def test_radford_reports(n, gsq):
    rep = derive_report(radford_datum(n))
    assert rep.n == n and rep.N == n
    assert rep.g * rep.g == gsq
    assert rep.g * rep.g_rec == n


def test_radford3_gauss_sum_value():
    rep = derive_report(radford_datum(3))
    assert rep.g == 1 + 2 * root_of_unity(3, 1)


def test_structural_identities_on_examples():
    for d in (trivial_datum(), semion_datum(), radford_datum(3), radford_datum(5)):
        rep = verify_structural_identities(d)
        assert rep.passed, rep.failures()


def test_gauss_product_identity():
    sem = semion_datum()
    rep = derive_report(sem)
    assert rep.g * rep.g_rec == 2  # n * n_o^2


def test_kronecker_product_semion_squared():
    prod = kronecker_product(semion_datum(), semion_datum())
    rep = derive_report(prod)
    assert rep.n == 4
    assert rep.g == 2 * root_of_unity(4, 1)
    assert validate_axioms(prod).passed
    assert verify_structural_identities(prod).passed


def test_kronecker_with_trivial_is_identity():
    sem = semion_datum()
    prod = kronecker_product(sem, trivial_datum())
    assert prod.size == sem.size
    for i in range(sem.size):
        assert prod.t_diag[i] == sem.t_diag[i]
        for j in range(sem.size):
            assert prod.s_matrix[i][j] == sem.s_matrix[i][j]
    assert prod.star == sem.star


def test_kronecker_exponent_lcm():
    d = kronecker_product(radford_datum(3), radford_datum(5))
    rep = derive_report(d)
    assert rep.n == 15 and rep.N == 15
    sem2 = kronecker_product(semion_datum(), radford_datum(3))
    assert derive_report(sem2).N == 12


def test_kronecker_rejects_invalid():
    sem = semion_datum()
    bad = ModularDatum(
        sem.labels, sem.unit, sem.star, sem.s_matrix,
        (cyclo.one(1), -cyclo.one(1)),
    )
    with pytest.raises(InvalidDatum):
        kronecker_product(sem, bad)


def test_kronecker_names_a_colliding_label():
    # (0, "1,0") and ("0,1", 0) both make the label (0,1,0)
    sem = semion_datum()

    def relabel(labels):
        return ModularDatum(labels, labels[0], sem.star, sem.s_matrix, sem.t_diag)

    with pytest.raises(DuplicateLabel, match=r"'\(0,1,0\)' repeats"):
        kronecker_product(relabel(("0", "0,1")), relabel(("1,0", "0")))
    with pytest.raises(DuplicateLabel, match="'x' repeats"):
        ModularDatum(("x", "x"), "x", sem.star, sem.s_matrix, sem.t_diag)


def test_normalized_exponent_divides_exponent():
    # a rescaled Dehn matrix changes N but not N_o
    from moddata.datum import basic_stats

    sem = semion_datum()
    zeta8 = root_of_unity(8, 1)
    rescaled = ModularDatum(
        sem.labels, sem.unit, sem.star, sem.s_matrix,
        tuple(t * zeta8 for t in sem.t_diag),
    )
    stats = basic_stats(rescaled)
    assert stats.N == 8 and stats.N_o == 4
    assert stats.N % stats.N_o == 0
    assert not stats.normalized


def test_power_identities():
    sem = semion_datum()
    rep = power_identity_check(sem)
    assert rep.passed
    # the ratio itself is the fourth root of unity i
    stats = derive_report(sem)
    assert stats.g / stats.g_rec == root_of_unity(4, 1)
    for n in (3, 5, 7):
        assert power_identity_check(radford_datum(n)).passed
    assert power_identity_check(trivial_datum()).passed


# -- the Kronecker product against its entry-by-entry oracle -------------------


_BUILT_IN = oracles.built_in_data()


def _lifted_radford3(lifts=((1, 1, 15), (2, 2, 21))):
    """radford 3 with s_ij stored at conductor m for each (i, j, m) in
    lifts; by default s_11 and s_22 at 15 and 21."""
    d = radford_datum(3)
    s = [list(row) for row in d.s_matrix]
    for i, j, m in lifts:
        s[i][j] = s[i][j].lift(m)
    return ModularDatum(d.labels, d.unit, d.star, tuple(map(tuple, s)), d.t_diag)


def _assert_products_agree(d1, d2):
    # serialize_datum writes every entry with its conductor
    expected = cli.serialize_datum(oracles.oracle_kronecker_product(d1, d2))
    assert cli.serialize_datum(kronecker_product(d1, d2)) == expected


@pytest.mark.parametrize("name,d1", _BUILT_IN, ids=[n for n, _ in _BUILT_IN])
def test_kronecker_product_matches_its_oracle_on_built_in_pairs(name, d1):
    for _, d2 in _BUILT_IN:
        if d1.size * d2.size <= 30:
            _assert_products_agree(d1, d2)


@pytest.mark.parametrize("lifts", [((1, 1, 15), (2, 2, 21)), ((0, 0, 6),)], ids=str)
def test_kronecker_product_keeps_each_entrys_conductor(lifts):
    # s_00 = 1 at conductor 6 has the numerators (1, 0) of 1 at conductor
    # 3, so an entry keyed without its conductor would share a product
    lifted = _lifted_radford3(lifts)
    for other in (semion_datum(), radford_datum(3), radford_datum(5), lifted):
        _assert_products_agree(lifted, other)
        _assert_products_agree(other, lifted)


def test_kronecker_product_raises_at_the_oracles_pair():
    # each pair under every limit below its product's largest conductor
    lifted = _lifted_radford3()
    pairs = [(radford_datum(3), radford_datum(5)), (lifted, radford_datum(5)),
             (radford_datum(5), lifted), (semion_datum(), lifted)]
    for d1, d2 in pairs:
        product = oracles.oracle_kronecker_product(d1, d2)  # validates both
        rows = (*product.s_matrix, product.t_diag)
        top = max(x.conductor for row in rows for x in row)
        for limit in (x for x in (4, 14, 20, 50, 104) if x < top):
            token = cyclo.set_conductor_limit(limit)
            try:
                with pytest.raises(TooLarge) as expected:
                    oracles.oracle_kronecker_product(d1, d2)
                with pytest.raises(TooLarge) as got:
                    kronecker_product(d1, d2)
            finally:
                cyclo.reset_conductor_limit(token)
            assert str(got.value) == str(expected.value)


def test_kronecker_product_multiplies_each_distinct_pair_once(monkeypatch):
    d1, d2 = radford_datum(3), radford_datum(5)
    require_valid(d1)
    require_valid(d2)
    calls = []
    real = CycloNum.__mul__
    monkeypatch.setattr(
        CycloNum, "__mul__", lambda x, y: calls.append(1) or real(x, y)
    )
    oracles.oracle_kronecker_product(d1, d2)
    assert len(calls) == 15**2 + 15  # the counter sees every product
    calls.clear()
    kronecker_product(d1, d2)
    # 3 distinct entries of S1 times 5 of S2; T's pairs are among them
    assert len(calls) <= 15
