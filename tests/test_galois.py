import math

import pytest

import oracles

from moddata import cyclo, galois
from moddata.constructors import (
    classical_gauss_sum,
    radford_datum,
    semion_datum,
    trivial_datum,
)
from moddata.cyclo import jacobi_symbol, root_of_unity
from moddata.datum import ModularDatum, kronecker_product
from moddata.errors import (
    BadInversePair,
    EvenExponent,
    ModdataError,
    NotAUnit,
    NotRootOfUnity,
    TooLarge,
)
from moddata.galois import (
    arithmetic_divisibility_checks,
    definition_of_24_check,
    fusion_symbol,
    fusion_symbol_analysis,
    fusion_symbol_table,
    index_action,
    is_galois_datum,
    odd_sign_analysis,
    relact_check,
    units_mod,
    verify_action_laws,
    verlinde_field_index,
)


def test_index_action_identity_and_conjugation():
    sem = semion_datum()
    assert index_action(sem, 1).perm == (0, 1)
    assert index_action(sem, -1).perm == sem.star
    r5 = radford_datum(5)
    assert index_action(r5, -1).perm == r5.star


def test_index_action_radford_is_multiplication():
    # matching row a of z^(-2ab) under z -> z^q lands on row q*a
    for n in (5, 7):
        d = radford_datum(n)
        for q in units_mod(n):
            perm = index_action(d, q).perm
            assert perm == tuple((q * a) % n for a in range(n))


def test_index_action_rejects_nonunits():
    with pytest.raises(NotAUnit):
        index_action(semion_datum(), 2)


def test_index_action_composition():
    d = radford_datum(7)
    perms = {q: index_action(d, q).perm for q in units_mod(7)}
    for q in units_mod(7):
        for r in units_mod(7):
            composed = tuple(perms[q][perms[r][i]] for i in range(7))
            assert composed == perms[(q * r) % 7]


def test_action_laws_on_examples():
    for d in (
        semion_datum(),
        radford_datum(3),
        radford_datum(5),
        radford_datum(7),
        kronecker_product(semion_datum(), semion_datum()),
    ):
        rep = verify_action_laws(d)
        assert rep.passed, (d.labels, rep.failures())


def test_galois_predicate():
    assert is_galois_datum(semion_datum()) == (True, None)
    for n in (3, 5, 7, 9):
        assert is_galois_datum(radford_datum(n))[0]
    # an order-8 twist destroys the proportionality axiom, hence the
    # input is no longer a modular datum at all
    sem = semion_datum()
    bad = ModularDatum(
        sem.labels, sem.unit, sem.star, sem.s_matrix,
        (cyclo.one(1), root_of_unity(8, 1)),
    )
    ok, witness = is_galois_datum(bad)
    assert not ok and witness == "axiom4-proportionality"
    # an order-16 twist with matching proportionality cannot be built the
    # same way, but the twist condition itself is what fails for t^q^2
    bad16 = ModularDatum(
        sem.labels, sem.unit, sem.star, sem.s_matrix,
        (cyclo.one(1), root_of_unity(16, 1)),
    )
    ok, witness = is_galois_datum(bad16)
    assert not ok


def _semion_at(p):
    sem = semion_datum()
    return ModularDatum(
        sem.labels, sem.unit, sem.star, sem.s_matrix,
        (cyclo.one(1), root_of_unity(p, 1)),
    )


def _outcome(check, d):
    try:
        return check(d).to_json()
    except ModdataError as exc:
        return type(exc).__name__, str(exc)


def test_pair_checks_are_bounded_by_the_units():
    # z_101 leaves 100 units, over the 96 that once bounded the pair
    # checks, and z_1009 leaves 1008.  S is rational, so no image of S
    # is made; at z_1009 the inverse of g = 1 + z is over its degree bound
    for p in (101, 1009):
        d = _semion_at(p)
        assert _outcome(verify_action_laws, d) == _outcome(
            oracles.oracle_verify_action_laws, d
        )
        assert _outcome(fusion_symbol_analysis, d) == _outcome(
            oracles.oracle_fusion_symbol_analysis, d
        )
        assert verify_action_laws(d).passed
        assert is_galois_datum(d) == (False, "axiom4-proportionality")
        assert verlinde_field_index(d) == p - 1
    with pytest.raises(TooLarge, match="inverse at conductor 1009"):
        fusion_symbol_analysis(_semion_at(1009))


def test_unit_generators_generate_the_units():
    for n in range(1, 1001):
        units = set(units_mod(n))
        gens = galois._unit_generators(n)
        assert gens[0] == 1 % n
        assert set(gens) <= units and len(gens) <= 1 + math.log2(len(units))
        group = frontier = {1 % n}
        while frontier:
            frontier = {x * u % n for x in frontier for u in gens} - group
            group = group | frontier
        assert group == units, n


@pytest.mark.parametrize("bound", [1763, 1764])
def test_image_bounds_count_the_coefficients(monkeypatch, bound):
    # radford 7 makes its 6 images of S at 7^2 phi(7) = 294 coefficients
    # each, 1764 in all, and its 6 images of g at 6 each
    monkeypatch.setattr(galois, "MAX_IMAGE_COEFFICIENTS", bound)
    d = radford_datum(7)
    walks = (verify_action_laws, is_galois_datum, verlinde_field_index)
    if bound < 1764:
        for walk in walks:
            with pytest.raises(TooLarge, match="the images of S under the 6 "
                               "units modulo 7 hold 1764 coefficients; the "
                               "bound is 1763"):
                walk(d)
    else:
        assert verify_action_laws(d).passed
        assert is_galois_datum(d) == (True, None)
        assert verlinde_field_index(d) == 1
    monkeypatch.setattr(galois, "MAX_IMAGE_COEFFICIENTS", 35)
    with pytest.raises(TooLarge, match="the images of the Gauss sum under "
                       "the 6 units modulo 7 hold 36 coefficients"):
        fusion_symbol_table(radford_datum(7))


def test_the_largest_generated_datum_is_within_the_image_bound():
    # 42 units modulo 49, each making 49^2 phi(49) coefficients
    assert 42 * 49**2 * 42 <= galois.MAX_IMAGE_COEFFICIENTS
    assert galois._action_units(radford_datum(49)) == units_mod(49)


def test_fusion_symbols_semion():
    sem = semion_datum()
    i = root_of_unity(4, 1)
    assert fusion_symbol(sem, 1) == 1
    assert fusion_symbol(sem, -1) == -i
    assert fusion_symbol(sem, 2).is_zero()
    table = fusion_symbol_table(sem)
    assert table.modulus == 4
    assert table.values[1] == 1
    assert table.values[3] == -i
    assert table.values[0].is_zero() and table.values[2].is_zero()


def test_fusion_symbols_radford():
    assert fusion_symbol(radford_datum(3), 2) == -1
    d = radford_datum(5)
    for q in units_mod(5):
        assert fusion_symbol(d, q) == jacobi_symbol(q, 5)


def test_symbol_analysis_on_examples():
    sem = semion_datum()
    rep = fusion_symbol_analysis(sem)
    assert rep.passed, rep.failures()
    # the symbol is not a character exactly because g' differs from +-g
    assert rep["character-iff-sign-relation"].value is False
    for n in (3, 5):
        rep = fusion_symbol_analysis(radford_datum(n))
        assert rep.passed, rep.failures()
        assert rep["character-iff-sign-relation"].value is True


def test_definition_of_24():
    assert definition_of_24_check(root_of_unity(8, 1)) is True
    assert definition_of_24_check(root_of_unity(5, 1)) is False
    assert definition_of_24_check(cyclo.one(1)) is True
    assert definition_of_24_check(root_of_unity(12, 1)) is True
    assert definition_of_24_check(root_of_unity(24, 1)) is True
    assert definition_of_24_check(root_of_unity(16, 1)) is False
    with pytest.raises(NotRootOfUnity):
        definition_of_24_check(cyclo.from_rational(2))


def test_a_square_fixed_root_of_unity_has_24th_power_one():
    # the theorem behind definition_of_24_check, for every order o up to
    # 1000: q^2 = 1 modulo o for every unit q iff o divides 24
    for o in range(1, 1001):
        square_fixed = all(q * q % o == 1 % o for q in units_mod(o))
        assert square_fixed == (24 % o == 0), o


def test_definition_of_24_decides_by_exponent():
    # against x^(q^2) == x for every unit q modulo the order of x, for
    # every root of unity of conductor up to 60
    for m in range(1, 61):
        for a in range(m):
            x = root_of_unity(m, a)
            order = cyclo.root_of_unity_order(x)
            fixed = all(x ** (q * q % order) == x for q in units_mod(order))
            assert definition_of_24_check(x) == fixed == (x ** 24 == 1), (m, a)


def test_verlinde_field_index():
    # rational Verlinde entries: every automorphism fixes them
    assert verlinde_field_index(semion_datum()) == 2
    assert verlinde_field_index(radford_datum(3)) == 1
    assert verlinde_field_index(trivial_datum()) == 1


def test_relact_identities():
    rep = relact_check(radford_datum(5), 2, 3)
    assert rep.passed, rep.failures()
    rep = relact_check(semion_datum(), 3, 3)
    assert rep.passed, rep.failures()
    rep = relact_check(semion_datum(), 1, 1)
    assert rep.passed
    with pytest.raises(BadInversePair):
        relact_check(semion_datum(), 3, 2)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_odd_sign_analysis(n):
    rep = odd_sign_analysis(radford_datum(n))
    assert rep.passed, rep.failures()
    expected = 1 if n % 4 == 1 else -1
    assert rep["sign-determined"].value == expected


def test_odd_sign_rejects_even_exponent():
    with pytest.raises(EvenExponent):
        odd_sign_analysis(semion_datum())


def test_sign_consistency_with_symbol():
    # v agrees with the value of the symbol at -1 times t_o^2
    for n in (3, 5, 7):
        d = radford_datum(n)
        rep = odd_sign_analysis(d)
        v = rep["sign-determined"].value
        assert fusion_symbol(d, -1) == v  # t_o = 1 here


def test_gauss_sum_equals_classical():
    for n in (3, 5, 7, 9):
        from moddata.datum import basic_stats

        stats = basic_stats(radford_datum(n))
        g = classical_gauss_sum(n)
        assert stats.g == g


def test_squared_automorphism_fixes_gauss_sum():
    # on Galois examples the Gaussian sum is invariant under every
    # squared automorphism
    from moddata.datum import basic_stats
    from moddata.galois import sigma

    for d in (semion_datum(), radford_datum(3), radford_datum(5)):
        stats = basic_stats(d)
        for q in units_mod(stats.N):
            qq = (q * q) % stats.N if stats.N > 1 else 0
            assert sigma(stats.g, qq, stats.N) == stats.g


def test_divisibility_checks():
    rep = arithmetic_divisibility_checks(radford_datum(15))
    assert rep.passed
    rep = arithmetic_divisibility_checks(
        semion_datum(), galois_projective_congruence=True
    )
    assert rep.passed
    assert rep["exponent-divisible-by-4"].value == 4
    conj = rep["open-residue-8-statement"].value
    assert conj["applies"] and conj["exponent_is_4_mod_8"]
    assert conj["squared_sign_relation"]
    rep = arithmetic_divisibility_checks(trivial_datum())
    assert rep.passed
