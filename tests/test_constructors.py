"""Constructor tests.

The closed forms of the cyclic datum are checked against the
independent R-matrix oracle in oracles.py: direct summation in the
group algebra must reproduce S and T entrywise before the closed forms
are trusted anywhere else."""

from itertools import product
from math import gcd

import pytest

from oracles import oracle_cyclic_datum

from moddata import constructors, cyclo
from moddata.constructors import (
    classical_gauss_sum,
    cocycle_omega,
    radford_datum,
    semion_datum,
    su2_datum,
    verify_3cocycle,
    verify_gauss_lemma,
    CocycleFn,
)
from moddata.cyclo import galois_apply, jacobi_symbol, root_of_unity
from moddata.axioms import derive_report, validate_axioms
from moddata.errors import BadLevel, EvenOrder, NotAUnit, TooLarge
from moddata.fusion import fusion_coefficients


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cyclic_datum_matches_r_matrix_oracle(n):
    d = radford_datum(n)
    s_oracle, t_oracle = oracle_cyclic_datum(n)
    for a in range(n):
        assert d.t_diag[a] == t_oracle[a], ("t", a)
        for b in range(n):
            assert d.s_matrix[a][b] == s_oracle[a][b], ("s", a, b)


@pytest.mark.parametrize("k", range(1, 7))
def test_su2_fusion_is_the_truncated_clebsch_gordan_rule(k):
    # labels are twice the spin: i x j = |i-j| + (|i-j| + 2) + ... up to
    # min(i + j, 2k - i - j)
    d = su2_datum(k)
    assert validate_axioms(d).passed
    t = fusion_coefficients(d)
    for i, j, l in product(range(k + 1), repeat=3):
        allowed = abs(i - j) <= l <= min(i + j, 2 * k - i - j)
        assert t.coeff(i, j, l) == int(allowed and (i + j + l) % 2 == 0), (i, j, l)


def test_su2_requires_a_positive_level():
    with pytest.raises(BadLevel):
        su2_datum(0)


# -- constructor behavior ----------------------------------------------------


def test_cyclic_datum_requires_odd_order():
    with pytest.raises(EvenOrder):
        radford_datum(4)
    with pytest.raises(EvenOrder):
        radford_datum(0)


def test_cyclic_datum_order_one_is_trivial():
    d = radford_datum(1)
    assert d.size == 1
    assert validate_axioms(d).passed


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_cyclic_datum_valid(n):
    d = radford_datum(n)
    assert validate_axioms(d).passed
    rep = derive_report(d)
    assert rep.g == classical_gauss_sum(n)
    assert rep.integral and rep.normalized


@pytest.mark.parametrize("n", range(1, 26, 2))
def test_cyclic_datum_builds_each_root_once(n, monkeypatch):
    calls = []
    monkeypatch.setattr(
        constructors, "root_of_unity",
        lambda m, k: calls.append(1) or root_of_unity(m, k),
    )
    for e in (e for e in range(1, n + 1) if gcd(e, n) == 1):
        calls.clear()
        d = radford_datum(n, e)
        assert len(calls) == n
        # the entry-by-entry comprehension: one root per entry
        expected = [
            *(root_of_unity(n, (-2 * a * b * e) % n)
              for a in range(n) for b in range(n)),
            *(root_of_unity(n, (a * a * e) % n) for a in range(n)),
        ]
        got = [*(x for row in d.s_matrix for x in row), *d.t_diag]
        assert [(x.conductor, x.den, x.nums) for x in got] == [
            (x.conductor, x.den, x.nums) for x in expected
        ]


def test_cyclic_datum_other_primitive_root():
    d = radford_datum(5, zeta_exponent=2)
    assert validate_axioms(d).passed
    base = radford_datum(5)
    # conjugate datum: entries are the images under z -> z^2
    for a in range(5):
        assert d.t_diag[a] == galois_apply(base.t_diag[a].lift(5), 2)


def test_semion_datum_values():
    sem = semion_datum()
    rep = derive_report(sem)
    i = root_of_unity(4, 1)
    assert rep.n == 2 and rep.N == 4 and rep.N_o == 4
    assert rep.g == 1 + i
    assert rep.g * rep.g == 2 * i
    assert rep.g * rep.g == -(rep.g_rec * rep.g_rec)
    from moddata.fusion import fusion_coefficients

    table = fusion_coefficients(sem)
    assert table.coeff(1, 1, 0) == 1 and table.coeff(1, 1, 1) == 0


def test_gauss_sum_values():
    g4 = classical_gauss_sum(4)
    i = root_of_unity(4, 1)
    assert g4 == 2 + 2 * i
    assert g4 * g4 == 8 * i
    assert classical_gauss_sum(2).is_zero()
    assert classical_gauss_sum(1) == 1
    with pytest.raises(NotAUnit):
        classical_gauss_sum(6, 2)


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_gauss_lemma_suite(n):
    rep = verify_gauss_lemma(n)
    assert rep.passed, (n, rep.failures())


def test_gauss_sum_twist():
    g = classical_gauss_sum(7)
    assert classical_gauss_sum(7, 3) == jacobi_symbol(3, 7) * g
    assert galois_apply(g, 3) == -g


def test_cocycle_two_is_sign_pattern():
    c = cocycle_omega(2, 1)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected = -1 if i * j * k == 1 else 1
                assert c.value(i, j, k) == expected


def test_cocycle_three_exhaustive():
    c = cocycle_omega(3, 1)
    ok, witness = verify_3cocycle(c)
    assert ok and witness is None


@pytest.mark.parametrize("n", range(1, 9))
def test_cocycle_identity_for_every_unit(n):
    # cocycle_omega builds its table from the closed form unchecked
    for e in range(n):
        if gcd(e, n) == 1:
            assert verify_3cocycle(cocycle_omega(n, e)) == (True, None)


def test_cocycle_work_over_the_bound_is_refused():
    # the table holds n^3 values and the check has n^4 identities, of
    # phi(n) coefficients each
    assert 40**3 * 16 > constructors.MAX_COCYCLE_COEFFICIENTS >= 36**3 * 12
    with pytest.raises(TooLarge):
        cocycle_omega(40)
    c = cocycle_omega(20)
    assert 20**4 * 8 > constructors.MAX_COCYCLE_COEFFICIENTS >= 18**4 * 6
    with pytest.raises(TooLarge):
        verify_3cocycle(c)


def test_constant_table_is_cocycle():
    one = cyclo.one(1)
    table = tuple(
        tuple(tuple(one for _ in range(3)) for _ in range(3))
        for _ in range(3)
    )
    ok, witness = verify_3cocycle(CocycleFn(n=3, table=table))
    assert ok


def test_checker_finds_witness():
    one = cyclo.one(1)
    rows = [
        [[one for _ in range(2)] for _ in range(2)] for _ in range(2)
    ]
    rows[1][1][1] = cyclo.from_rational(2)
    ok, witness = verify_3cocycle(
        CocycleFn(n=2, table=tuple(tuple(tuple(r) for r in p) for p in rows))
    )
    assert not ok and witness is not None
