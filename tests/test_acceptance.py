"""Acceptance suite: the release checklist of this toolkit.

Each test is one acceptance criterion, checked with exact arithmetic
(tolerance zero everywhere) and reported as a single PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from contextlib import contextmanager
from math import gcd

from moddata import cyclo, linalg
from moddata.axioms import derive_report
from moddata.constructors import (
    classical_gauss_sum,
    radford_datum,
    semion_datum,
    trivial_datum,
)
from moddata.cyclo import (
    CycloNum,
    galois_apply,
    jacobi_symbol,
    lift_conductor,
    rational,
    root_of_unity,
)
from moddata.datum import basic_stats, kronecker_product
from moddata.extension import (
    additive_charge,
    enumerate_charges,
    enumerate_ranks,
    extension_family,
    factor_check,
    lift_search,
    make_extension,
    sl2_enumerate,
)
from moddata.fusion import (
    fusion_coefficients,
    verify_idempotent_laws,
    verify_ring_homomorphisms,
)
from moddata.galois import (
    arithmetic_divisibility_checks,
    fusion_symbol,
    index_action,
    is_galois_datum,
    odd_sign_analysis,
    relact_check,
    verify_action_laws,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_01_semion_gauss_values():
    with criterion(1, "semion Gaussian-sum values"):
        rep = derive_report(semion_datum())
        i = root_of_unity(4, 1)
        assert rep.g == 1 + i
        assert rep.g_rec == 1 - i
        assert rep.g ** 2 == 2 * i
        assert rep.g ** 2 == -(rep.g_rec ** 2)
        assert rep.g ** 4 == rep.g_rec ** 4
        assert rep.g * rep.g_rec == 2
        assert rep.n * rep.dims[0] ** 2 == 2


def test_02_odd_dimension_sign_theorem():
    with criterion(2, "odd-dimension sign theorem and Jacobi symbols"):
        for n in (3, 5, 7, 9, 11, 13, 15):
            d = radford_datum(n)
            stats = basic_stats(d)
            sign = 1 if n % 4 == 1 else -1
            assert stats.g_rec == sign * stats.g, n
            rep = odd_sign_analysis(d)
            assert rep.passed, (n, rep.failures())
            for q in range(1, n):
                if gcd(q, n) != 1:
                    continue
                assert fusion_symbol(d, q) == jacobi_symbol(q, n), (n, q)


def test_03_classical_gauss_lemma_table():
    with criterion(3, "classical Gauss-sum square table and unit twists"):
        i = root_of_unity(4, 1)
        for n in (3, 4, 5, 7, 8, 11, 12, 13):
            g = classical_gauss_sum(n)
            sq = g * g
            r = n % 4
            if r == 1:
                assert sq == n, n
            elif r == 3:
                assert sq == -n, n
            elif r == 2:
                assert sq.is_zero(), n
            else:
                assert sq == 2 * i * n or sq == -2 * i * n, n
            if n % 2 == 1:
                for q in range(1, n):
                    if gcd(q, n) != 1:
                        continue
                    assert galois_apply(g, q) == jacobi_symbol(q, n) * g, (n, q)


def test_04_semion_congruence_suite():
    with criterion(4, "semion congruence suite at levels 4, 8, 24"):
        sem = semion_datum()
        assert sl2_enumerate(4).order == 48
        assert sl2_enumerate(8).order == 384
        assert sl2_enumerate(24).order == 9216
        projective = factor_check(
            sem.s_matrix, linalg.diag_matrix(sem.t_diag), 4, "projective"
        )
        assert projective.projective_factors is True
        assert lift_search(sem, 4) == []
        lift8 = lift_search(sem, 8)
        assert lift8
        i = root_of_unity(4, 1)
        assert any(
            e.rank ** 2 == -2 and e.charge == (1 - i) / e.rank
            for e in lift8
        )
        # independent characterization: a lift at 8 needs the homogeneous
        # Dehn matrix to have order dividing 8, and conversely
        assert sorted(additive_charge(e) for e in lift8) == [
            c for c in range(24) if c % 2 and c % 3 == 0
        ]
        lift24 = lift_search(sem, 24)
        assert len(lift24) == 12


def test_05_cyclic_projective_congruence():
    with criterion(5, "projective congruence of cyclic data at their level"):
        for n in (3, 5, 7):
            d = radford_datum(n)
            rep = factor_check(
                d.s_matrix, linalg.diag_matrix(d.t_diag), n, "projective"
            )
            assert rep.projective_factors is True, n
        assert sl2_enumerate(7).order == 336


def _fusion_examples():
    return [
        trivial_datum(),
        semion_datum(),
        radford_datum(3),
        radford_datum(5),
        radford_datum(7),
        kronecker_product(semion_datum(), semion_datum()),
    ]


def test_06_fusion_ring_law_suite():
    with criterion(6, "fusion-ring laws on every example datum"):
        for d in _fusion_examples():
            table = fusion_coefficients(d)
            assert not table.violations, d.labels
            rep = table.verify_invariants()
            assert rep.passed, (d.labels, rep.failures())
            rep = verify_ring_homomorphisms(d, table)
            assert rep.passed, (d.labels, rep.failures())
            rep = verify_idempotent_laws(d, table)
            assert rep.passed, (d.labels, rep.failures())


def test_07_galois_suite():
    with criterion(7, "Galois action laws, conjugation, inverse-pair words"):
        for d in (semion_datum(), radford_datum(3), radford_datum(5),
                  radford_datum(7)):
            rep = verify_action_laws(d)
            assert rep.passed, (d.labels, rep.failures())
            assert index_action(d, -1).perm == d.star
        assert is_galois_datum(semion_datum()) == (True, None)
        for n in (3, 5, 7, 9, 11, 13, 15):
            ok, witness = is_galois_datum(radford_datum(n))
            assert ok, (n, witness)
        rep = relact_check(radford_datum(5), 2, 3)
        assert rep.passed, rep.failures()
        rep = relact_check(semion_datum(), 3, 3)
        assert rep.passed, rep.failures()


def test_08_central_charge_theorems():
    with criterion(8, "central-charge powers and additive-charge residues"):
        # Galois projective congruence examples: the semion (level 4) and
        # the cyclic data of orders 3, 5, 7 (levels 3, 5, 7), established
        # by the congruence criteria above
        for d in (semion_datum(), radford_datum(3), radford_datum(5),
                  radford_datum(7)):
            stats = basic_stats(d)
            assert stats.g ** 4 == stats.t_o ** 8 * stats.g_rec ** 4
            for e in extension_family(d):
                assert e.charge ** 24 == 1
        for n in (3, 5, 7, 9, 11, 13, 15):
            d = radford_datum(n)
            expected = 0 if n % 4 == 1 else 2
            for option in enumerate_ranks(d):
                if not option.is_rank:
                    continue
                for ell in enumerate_charges(d, option.value):
                    e = make_extension(d, option.value, ell)
                    assert additive_charge(e) % 4 == expected, n


def test_09_divisibility():
    with criterion(9, "prime-divisibility relations between n and N"):
        d15 = radford_datum(15)
        stats = basic_stats(d15)
        assert stats.N % 3 == 0 and stats.N % 5 == 0
        assert arithmetic_divisibility_checks(d15).passed
        sem_rep = arithmetic_divisibility_checks(
            semion_datum(), galois_projective_congruence=True
        )
        assert sem_rep.passed
        assert sem_rep["exponent-divisible-by-4"].value % 4 == 0
        conj = sem_rep["open-residue-8-statement"].value
        assert conj["applies"] is True
        assert conj["exponent_is_4_mod_8"] is True
        assert conj["squared_sign_relation"] is True


def _random_cyclo(rng):
    m = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
    phi = cyclo.euler_phi(m)
    coeffs = [
        rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)
    ]
    return CycloNum(m, coeffs)


def test_10_property_substrate():
    with criterion(10, "randomized arithmetic laws and the R-matrix oracle"):
        rng = random.Random(20240815)
        cases = 0
        for _ in range(200):
            x, y, z = (_random_cyclo(rng) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            if not x.is_zero():
                assert x * x.inverse() == 1
            cases += 1
        for _ in range(150):
            x = _random_cyclo(rng)
            m = x.conductor
            q = rng.randrange(1, 2 * m + 1)
            r = rng.randrange(1, 2 * m + 1)
            if gcd(q, m) == 1 and gcd(r, m) == 1:
                assert galois_apply(galois_apply(x, q), r) == galois_apply(
                    x, q * r
                )
            cases += 1
        for _ in range(150):
            x = _random_cyclo(rng)
            y = _random_cyclo(rng)
            target = x.conductor * rng.choice([1, 2, 3])
            lx = lift_conductor(x, target)
            assert lx == x
            assert lx + y == x + y
            assert lx * y == x * y
            cases += 1
        assert cases == 500

        from oracles import oracle_cyclic_datum

        for n in (3, 5, 7):
            d = radford_datum(n)
            s_oracle, t_oracle = oracle_cyclic_datum(n)
            for a in range(n):
                assert d.t_diag[a] == t_oracle[a], ("t", n, a)
                for b in range(n):
                    assert d.s_matrix[a][b] == s_oracle[a][b], ("s", n, a, b)
