import pytest

from moddata import cyclo
from moddata.axioms import (
    derive_report,
    power_identity_check,
    validate_axioms,
    verify_structural_identities,
)
from moddata.constructors import radford_datum, semion_datum, trivial_datum
from moddata.cyclo import root_of_unity
from moddata.datum import ModularDatum, kronecker_product
from moddata.errors import DuplicateLabel, InvalidDatum


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
