import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from moddata import cyclo
from moddata.constructors import classical_gauss_sum
from moddata.cyclo import (
    CycloNum,
    galois_apply,
    jacobi_symbol,
    lift_conductor,
    rational,
    root_of_unity,
    root_of_unity_order,
    sqrt_integer,
)
from moddata.errors import (
    BadConductor,
    BadModulus,
    DivisionByZero,
    NotAUnit,
    TooLarge,
)


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
    for m in (1, 2, 3, 4, 6, 8, 12):
        assert root_of_unity(m, 1) ** m == 1


def test_field_ops():
    i = root_of_unity(4, 1)
    assert (1 + i) * (1 - i) == 2
    assert root_of_unity(3, 1).inverse() == root_of_unity(3, 2)
    mixed = root_of_unity(2, 1) + root_of_unity(3, 1)
    assert mixed.conductor == 6
    assert mixed == root_of_unity(6, 1) - 2


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        cyclo.zero(3).inverse()
    with pytest.raises(DivisionByZero):
        cyclo.one(1) / 0


def test_lift_conductor():
    assert lift_conductor(cyclo.from_rational(-1), 4) == -1
    assert lift_conductor(root_of_unity(3, 1), 6) == root_of_unity(6, 2)
    with pytest.raises(BadConductor):
        lift_conductor(root_of_unity(4, 1), 6)


def test_galois_apply():
    x = 1 + 2 * root_of_unity(3, 1)
    assert galois_apply(x, 1) == x
    assert galois_apply(root_of_unity(4, 1), -1) == -root_of_unity(4, 1)
    z3 = root_of_unity(3, 1)
    assert galois_apply(1 + 2 * z3, 2) == 1 + 2 * z3 * z3
    with pytest.raises(NotAUnit):
        galois_apply(root_of_unity(4, 1), 2)


def test_root_of_unity_order():
    assert root_of_unity_order(cyclo.from_rational(-1)) == 2
    assert root_of_unity_order(root_of_unity(8, 3)) == 8
    assert root_of_unity_order(cyclo.from_rational(2)) is None
    assert root_of_unity_order(1 + root_of_unity(4, 1)) is None


@pytest.mark.parametrize("m", list(range(1, 25)))
def test_root_orders_match_gcd(m):
    for k in range(m):
        assert root_of_unity_order(root_of_unity(m, k)) == m // gcd(m, k)


def test_is_rational():
    z3 = root_of_unity(3, 1)
    assert cyclo.is_rational(z3 + z3 * z3) == -1
    assert cyclo.is_rational(root_of_unity(4, 1)) is None
    x = cyclo.from_rational(rational(7, 2), 12)
    assert cyclo.is_rational(x) == rational(7, 2)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_sqrt_integer(n):
    s = sqrt_integer(n)
    assert s * s == n


def test_sqrt_integer_details():
    assert sqrt_integer(4) == 2
    s2 = sqrt_integer(2)
    assert s2 == root_of_unity(8, 1) + root_of_unity(8, 7)
    assert sqrt_integer(3) ** 2 == 3
    # conductor divides 8 times the squarefree part
    assert 8 * 6 % sqrt_integer(24).conductor == 0


def _euler_symbol(q, p):
    r = pow(q % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_jacobi_matches_euler_criterion(p):
    for q in range(0, 2 * p):
        assert jacobi_symbol(q, p) == _euler_symbol(q, p)


def test_jacobi_composite_and_units():
    assert jacobi_symbol(2, 3) == -1
    assert jacobi_symbol(2, 15) == 1  # (2|3)(2|5) = (-1)(-1)
    for n in (1, 9, 15, 21, 45):
        assert jacobi_symbol(1, n) == 1
    # multiplicative in both arguments
    for q in range(1, 20):
        assert jacobi_symbol(q, 15) == jacobi_symbol(q, 3) * jacobi_symbol(q, 5)
        assert jacobi_symbol(q * 7, 11) == jacobi_symbol(q, 11) * jacobi_symbol(7, 11)
    with pytest.raises(BadModulus):
        jacobi_symbol(3, 8)


def test_serialization_round_trip():
    x = sqrt_integer(12) + rational(3, 7) * root_of_unity(24, 5)
    wire = cyclo.to_json(x)
    assert len(wire["coeffs"]) == cyclo.euler_phi(x.conductor)
    assert all(isinstance(c, str) for c in wire["coeffs"])
    assert cyclo.from_json(wire) == x


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        cyclo.from_json({"conductor": 4, "coeffs": ["1"]})
    with pytest.raises(ValueError):
        cyclo.from_json({"conductor": 0, "coeffs": []})
    with pytest.raises(ValueError):
        cyclo.from_json({"conductor": 3, "coeffs": ["1", None]})


_conductors = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])


@st.composite
def cyclo_numbers(draw):
    m = draw(_conductors)
    phi = cyclo.euler_phi(m)
    coeffs = [
        rational(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        for _ in range(phi)
    ]
    return CycloNum(m, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
def test_distributivity(x, y, z):
    assert (x + y) * z == x * z + y * z


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers())
def test_inverse_law(x):
    if not x.is_zero():
        assert x * x.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), st.integers(1, 23), st.integers(1, 23))
def test_galois_composition(x, q, r):
    m = x.conductor
    if gcd(q, m) == 1 and gcd(r, m) == 1:
        assert galois_apply(galois_apply(x, q), r) == galois_apply(x, q * r)


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), st.sampled_from([1, 2, 3, 4]))
def test_lift_preserves_arithmetic(x, factor):
    m2 = x.conductor * factor
    lifted = lift_conductor(x, m2)
    assert lifted == x
    assert lifted * lifted == x * x
    assert lifted + 1 == x + 1


# -- canonical form, the unit table and the JSON boundary ---------------------


def assert_canonical(x):
    """nums are ints over one positive den with gcd(den, *nums) == 1, so
    zero has den == 1."""
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.nums)
    assert len(x.nums) == cyclo.euler_phi(x.conductor)
    assert gcd(x.den, *x.nums) == 1


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), cyclo_numbers(), st.integers(-6, 6), st.integers(1, 6))
def test_canonical_form_after_every_operation(x, y, p, q):
    r = rational(p, q)
    results = [
        x, x + y, x - y, x * y, -x, x * x, x ** 3, x * p, x * r, p * x,
        x + p, r - x, x / q, x / r if p else x, x + (-x), x * 0,
        lift_conductor(x, 2 * x.conductor), galois_apply(x, -1),
        cyclo.from_json(cyclo.to_json(x)), cyclo.from_rational(r, 12),
        root_of_unity(12, p), cyclo.zero(5), cyclo.one(5), sqrt_integer(q),
    ]
    if not y.is_zero():
        results += [y.inverse(), x / y, y ** -2, 1 / y]
    for value in results:
        assert_canonical(value)


def _brute_force_order(x):
    # successive powers; roots of unity at conductor m have order <= 2m
    unit = cyclo.one(x.conductor)
    y = x
    for d in range(1, 2 * x.conductor + 1):
        if y == unit:
            return d
        y = y * x
    return None


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 24])
def test_unit_table_matches_successive_powers(m):
    roots = [s * root_of_unity(m, k) for s in (1, -1) for k in range(m)]
    keys = {(x.den, x.nums) for x in roots}
    assert len(keys) == lcm(2, m)
    assert set(cyclo._units(m)) == {
        tuple((i, c) for i, c in enumerate(nums) if c) for _, nums in keys
    }
    for x in roots:
        order = _brute_force_order(x)
        assert root_of_unity_order(x) == order
        o, a = cyclo.root_of_unity_exponent(x)
        assert o == order and 0 <= a < o and root_of_unity(o, a) == x
        inverse = cyclo.one(m)
        for _ in range(order - 1):
            inverse = inverse * x
        assert x.inverse() == inverse
        assert_canonical(x.inverse())
    z = root_of_unity(m, 1)
    non_roots = [cyclo.from_rational(2, m), cyclo.from_rational(rational(1, 2), m),
                 2 * z, z / 2, z + rational(1, 2), 1 - z, 1 + z, z + z * z]
    for x in non_roots:
        order = _brute_force_order(x)
        assert root_of_unity_order(x) == order
        assert (cyclo.root_of_unity_exponent(x) is None) == (order is None)
        if order is None and x:
            assert x * x.inverse() == 1


@pytest.mark.parametrize(
    "text",
    ["-3/6", "2/1", "-0", " 3", "1.5", "abc", "+3", "1_0", "3/-4", "1/0",
     "0/0", " 1/0", "-1/2 ", "7/21", "1e2", ""],
)
def test_from_json_accepts_the_spellings_fraction_accepts(text):
    obj = {"conductor": 3, "coeffs": [text, "1/2"]}
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            cyclo.from_json(obj)
        return
    x = cyclo.from_json(obj)
    assert_canonical(x)
    assert x.coeffs == (expected, Fraction(1, 2))
    assert cyclo.to_json(x)["coeffs"] == [str(expected), "1/2"]


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts strings of any length here")
    return limit


def test_from_json_bounds_exponent_spellings_as_int_bounds_digits():
    limit = _digit_limit()

    def parse(text):
        return cyclo.from_json({"conductor": 1, "coeffs": [text]})

    # the largest power of ten int() reads, spelled both ways
    assert parse("1" + "0" * (limit - 1)) == parse(f"1e{limit - 1}")
    assert parse(f"1/1{'0' * (limit - 1)}") == parse(f"1E-{limit - 1}")
    for text in ("1" + "0" * limit, f"1e{limit}", f"1e-{limit}", f"0.5e-{limit}",
                 f"1_0e{limit}", "1e1000000", "1e100000000", "0e100000000",
                 " +2.5e99999999999999999999 "):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert not isinstance(err.value, TooLarge), text


def test_to_json_of_a_value_too_long_to_print_is_too_large():
    limit = _digit_limit()
    with pytest.raises(TooLarge):
        cyclo.to_json(cyclo.from_rational(10**limit))
    with pytest.raises(TooLarge):
        cyclo.to_json(cyclo.from_rational(Fraction(1, 10**limit), 3))
    assert cyclo.to_json(cyclo.from_rational(10 ** (limit - 1)))["coeffs"] == [
        "1" + "0" * (limit - 1)
    ]


def test_from_json_refuses_a_boolean_conductor():
    with pytest.raises(ValueError):
        cyclo.from_json({"conductor": True, "coeffs": ["1"]})


def test_sqrt_integer_tries_primes_only_up_to_the_conductor_limit():
    big = 2**61 - 1  # prime: factorising it by trial division never ends
    assert sqrt_integer(3 * big * big) == big * sqrt_integer(3)
    with pytest.raises(TooLarge):
        sqrt_integer(3 * big)


# -- differential test against the dense-Fraction oracle ---------------------

_ORACLE_CONDUCTORS = [1, 3, 4, 5, 7, 8, 9, 12, 15, 24, 60]


@st.composite
def with_oracle(draw, conductors=_ORACLE_CONDUCTORS):
    """A CycloNum and its dense Fraction coordinates, from independent
    constructions; a third of them are roots of unity +-z^k."""
    m = draw(st.sampled_from(conductors))
    phi = cyclo.euler_phi(m)
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, m - 1))
        sign = draw(st.sampled_from([1, -1]))
        dense = oracles.oracle_reduce([0] * k + [Fraction(sign)], m)
        return sign * root_of_unity(m, k), dense, m
    coeff = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    )
    dense = [draw(coeff) for _ in range(phi)]
    return CycloNum(m, dense), dense, m


@settings(max_examples=80, deadline=None)
@given(with_oracle(), st.data())
def test_ring_operations_match_dense_oracle(xa, data):
    x, a, m = xa
    partners = [n for n in _ORACLE_CONDUCTORS if lcm(m, n) <= 120]
    y, b, n = data.draw(with_oracle(partners))
    a2, b2, k = oracles.oracle_common(a, m, b, n)
    for value, expected in (
        (x + y, [p + q for p, q in zip(a2, b2)]),
        (x - y, [p - q for p, q in zip(a2, b2)]),
        (x * y, oracles.oracle_mul(a2, b2, k)),
    ):
        assert_canonical(value)
        assert value.conductor == k
        assert list(value.coeffs) == expected


@settings(max_examples=80, deadline=None)
@given(with_oracle(), st.sampled_from([1, 2, 3, 5]), st.integers(1, 120))
def test_unary_operations_match_dense_oracle(xa, factor, q):
    x, a, m = xa
    lifted = lift_conductor(x, m * factor)
    assert_canonical(lifted)
    assert list(lifted.coeffs) == oracles.oracle_lift(a, m, m * factor)
    if gcd(q, m) == 1:
        image = galois_apply(x, q)
        assert_canonical(image)
        assert list(image.coeffs) == oracles.oracle_galois(a, m, q)
    if any(a):
        inverse = x.inverse()
        assert_canonical(inverse)
        assert list(inverse.coeffs) == oracles.oracle_inverse(a, m)
    wire = oracles.oracle_to_json(a, m)
    assert cyclo.to_json(x) == wire
    back = cyclo.from_json(wire)
    assert_canonical(back)
    assert back == x and list(back.coeffs) == a


def test_cyclotomic_polynomial_matches_the_dense_oracle():
    for m in range(1, 151):
        assert cyclo.cyclotomic_polynomial(m) == oracles.oracle_cyclotomic(m), m


def test_reduction_rows_match_dense_oracle():
    for m in range(1, 121):
        phi = cyclo.euler_phi(m)
        for k, row in enumerate(cyclo._reduction_rows(m)):
            dense = [0] * phi
            for i, c in row:
                dense[i] = c
            assert dense == oracles.oracle_reduce([0] * k + [1], m), (m, k)


def test_gauss_sum_matches_the_addition_loop():
    for n in range(1, 61):
        for q in range(1, n + 1):
            if gcd(q, n) == 1:
                g = classical_gauss_sum(n, q)
                expected = oracles.oracle_gauss_sum(n, q)
                assert_canonical(g)
                assert (g.conductor, g.den, g.nums) == (
                    expected.conductor, expected.den, expected.nums
                ), (n, q)


@pytest.mark.parametrize("m", [35, 105, 120])  # phi = 24, 48, 32
def test_inverse_of_dense_elements_matches_dense_oracle(m):
    rng = random.Random(m)
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cyclo.euler_phi(m))]
    x = CycloNum(m, a)
    inverse = x.inverse()
    assert_canonical(inverse)
    assert list(inverse.coeffs) == oracles.oracle_inverse(a, m)


def test_inverse_over_the_degree_bound_is_refused_before_any_product():
    bound = cyclo.MAX_INVERSE_DEGREE
    # 227 is the least prime whose degree 226 is over the bound 224
    assert bound == 224
    x = root_of_unity(227, 1) + 2
    with pytest.raises(TooLarge, match="needs 224 products of degree 226"):
        x.inverse()
    # roots of unity and rationals need no product at any degree
    assert root_of_unity(9973, 5).inverse() == root_of_unity(9973, 9968)
    third = cyclo.from_rational(Fraction(-3), 9973)
    assert third.inverse() == Fraction(-1, 3)
    assert third.inverse().conductor == 9973
    # at the bound itself the product is still formed
    m = next(p for p in range(bound + 1, 2 * bound) if cyclo.euler_phi(p) == bound)
    y = root_of_unity(m, 1) + 2
    assert y * y.inverse() == 1


def test_per_conductor_caches_are_bounded():
    caches = (
        cyclo.euler_phi, cyclo.cyclotomic_polynomial, cyclo._reduction_rows,
        cyclo._unit_table, cyclo.zero, cyclo.one,
    )
    # one pass of the cli-mix and wire benchmarks touches 18 conductors
    assert {c.cache_info().maxsize for c in caches} == {cyclo.CACHE_SIZE}
    assert cyclo.CACHE_SIZE >= 64


# -- division by a rational and powers against their old routes ------------


def _raw(x):
    return (x.conductor, x.den, x.nums)


@settings(max_examples=120, deadline=None)
@given(cyclo_numbers(), st.integers(-50, 50).filter(bool), st.integers(1, 7))
def test_division_by_a_rational_is_the_product_by_its_inverse(x, n, r):
    assert _raw(x / n) == _raw(x * Fraction(1, n))
    assert _raw(x / Fraction(n, r)) == _raw(x * Fraction(r, n))
    assert _raw(x / True) == _raw(x)
    for zero in (0, Fraction(0), False):
        with pytest.raises(DivisionByZero):
            x / zero


def _roots(m):
    return [s * root_of_unity(m, k) for s in (1, -1) for k in range(m)]


@pytest.mark.parametrize("m", list(range(1, 31)))
def test_powers_of_roots_of_unity_match_repeated_squaring(m):
    for x in _roots(m):
        for k in range(-40, 41):
            assert _raw(x ** k) == _raw(oracles.oracle_pow(x, k))
        big = 10**12 + 1
        assert _raw(x ** big) == _raw(oracles.oracle_pow(x, big))


def _pow_outcome(f, x, k):
    try:
        return "value", _raw(f(x, k))
    except (TooLarge, DivisionByZero) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 6])
def test_powers_raise_where_repeated_squaring_does(limit):
    # built under the default limit; k = 0 and conductors 1 and 2 check no
    # limit, a root of unity at m > 2 over the limit raises for k != 0
    xs = [x for m in (1, 2, 3, 4, 7, 8) for x in _roots(m)[:3]]
    xs += [cyclo.from_rational(rational(3, 2), 2), cyclo.zero(2), cyclo.zero(5),
           2 * root_of_unity(5, 1), root_of_unity(4, 1) / 3]
    token = cyclo.set_conductor_limit(limit)
    try:
        for x in xs:
            for k in (-3, -1, 0, 1, 2, 5):
                got = _pow_outcome(pow, x, k)
                assert got == _pow_outcome(oracles.oracle_pow, x, k), (x, k)
    finally:
        cyclo.reset_conductor_limit(token)
