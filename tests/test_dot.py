"""The fused sum-of-products kernel (cyclo.dot, sums over vectors lifted
once, linalg.mat_mul and fusion.multiply) against the left folds of *
and + in tests/oracles.py: the same conductor, numerators and
denominator, element by element, and TooLarge in the same places.  Its
message names the conductor of a sum the route makes, over the limit:
for dot and for an entry of mat_mul, the lcm of the conductors of its
operands, zeros included."""

from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from moddata import cyclo, linalg
from moddata.cyclo import CycloNum, rational, root_of_unity
from moddata.errors import DimensionMismatch, TooLarge
from moddata.fusion import (
    FusionElement,
    basis_element,
    fusion_coefficients,
    idempotents,
    multiply,
)
from moddata.galois import perm_matrix

# every lcm of conductors drawn from one of these stays at most 120
_LCMS = [1, 2, 3, 4, 5, 6, 8, 12, 15, 20, 24, 30, 40, 60, 120]


def raw(x):
    return (x.conductor, x.nums, x.den)


def raw_matrix(a):
    return [[raw(x) for x in row] for row in a]


@st.composite
def operands(draw, lcm_of):
    """A CycloNum at a conductor dividing lcm_of: a zero at that
    conductor, a signed root of unity, or coordinates with small
    numerators over small denominators, zeros among them."""
    m = draw(st.sampled_from(cyclo.divisors(lcm_of)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return cyclo.zero(m)
    if kind == 1:
        return draw(st.sampled_from([1, -1])) * root_of_unity(m, draw(st.integers(0, m - 1)))
    coeff = st.one_of(
        st.just(0),
        st.builds(rational, st.integers(-9, 9), st.integers(1, 6)),
    )
    return CycloNum(m, [draw(coeff) for _ in range(cyclo.euler_phi(m))])


@st.composite
def vectors(draw, max_len=6):
    top = draw(st.sampled_from(_LCMS))
    n = draw(st.integers(0, max_len))
    xs = [draw(operands(top)) for _ in range(n)]
    ys = [draw(operands(top)) for _ in range(n)]
    return xs, ys


@st.composite
def matrix_pairs(draw):
    top = draw(st.sampled_from(_LCMS))
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(operands(top)) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(operands(top)) for _ in range(cols)] for _ in range(inner)]
    return a, b


@settings(max_examples=150, deadline=None)
@given(vectors())
def test_dot_matches_the_fold(pair):
    xs, ys = pair
    assert raw(cyclo.dot(xs, ys)) == raw(oracles.oracle_dot(xs, ys))


@settings(max_examples=150, deadline=None)
@given(vectors(), st.integers(1, 3))
def test_sums_over_lifted_vectors_match_the_fold(pair, k):
    # at the lcm of the two vectors' conductors, zeros included, the sum
    # is the fold's to the last numerator; at a multiple of it, the same
    # value there; each lift is made once and kept
    xs, ys = pair
    lx, ly = cyclo.Lifted(xs), cyclo.Lifted(ys)
    m = lcm(lx.conductor, ly.conductor)
    got = cyclo._lifted_dot(m, lx.at(m), ly.at(m))
    if xs:
        assert raw(got) == raw(oracles.oracle_dot(xs, ys))
    else:
        assert raw(got) == raw(cyclo.zero(1))
    wider = cyclo._lifted_dot(k * m, lx.at(k * m), ly.at(k * m))
    assert wider.conductor == k * m and wider == got
    assert lx.at(m) is lx.at(m)
    assert [op is None for op in lx.at(m)] == [x.is_zero() for x in xs]


@settings(max_examples=60, deadline=None)
@given(vectors(max_len=4), st.data())
def test_cancelling_terms_give_the_canonical_zero(pair, data):
    xs, ys = pair
    xs = xs + [-x for x in xs]
    ys = ys + ys
    if data.draw(st.booleans()):
        # a lone zero of a larger conductor still sets the conductor
        xs.append(cyclo.zero(120))
        ys.append(cyclo.one(1))
    result = cyclo.dot(xs, ys)
    assert raw(result) == raw(oracles.oracle_dot(xs, ys))
    assert result.is_zero() and result.den == 1


def test_dot_of_no_terms_and_of_one_term():
    assert raw(cyclo.dot([], [])) == raw(cyclo.zero(1))
    x = CycloNum(12, [rational(1, 2), 0, rational(-3, 4), 5])
    y = root_of_unity(5, 3)
    assert raw(cyclo.dot([x], [y])) == raw(x * y)
    assert raw(cyclo.dot([cyclo.zero(8)], [y])) == raw(cyclo.zero(40))
    with pytest.raises(DimensionMismatch):
        cyclo.dot([x], [])


@settings(max_examples=120, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_the_fold(pair):
    a, b = pair
    assert raw_matrix(linalg.mat_mul(a, b)) == raw_matrix(oracles.oracle_mat_mul(a, b))


def test_mat_mul_of_one_by_one_and_mixed_columns():
    x = CycloNum(3, [rational(2, 3), rational(-1, 6)])
    assert raw_matrix(linalg.mat_mul(((x,),), ((x,),))) == [[raw(x * x)]]
    # diagonal and permutation matrices: columns of different conductors
    t = linalg.diag_matrix((cyclo.one(1), root_of_unity(4, 1), root_of_unity(3, 2)))
    c = perm_matrix((0, 2, 1))
    for a, b in ((c, t), (t, c), (t, t)):
        assert raw_matrix(linalg.mat_mul(a, b)) == raw_matrix(oracles.oracle_mat_mul(a, b))


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except TooLarge as exc:
        return "TooLarge", str(exc)


def _names_a_sum(outcome, limit, conductors):
    """Whether outcome is a TooLarge that names one of the conductors of
    sums, over the limit."""
    return outcome in {("TooLarge", f"conductor {c} exceeds limit {limit}")
                       for c in conductors if c > limit}


def _lcm_of(xs):
    return lcm(*[x.conductor for x in xs])


@pytest.fixture
def restore_limit():
    limit = cyclo.get_conductor_limit()
    yield
    cyclo.set_conductor_limit(limit)


def test_conductor_over_the_limit_raises_as_the_fold_does(restore_limit):
    xs = [root_of_unity(3, 1), root_of_unity(8, 1), cyclo.one(1)]
    ys = [root_of_unity(5, 2), cyclo.one(1), root_of_unity(4, 1)]
    cyclo.set_conductor_limit(100)  # the operands' lcm is 120
    expected = _outcome(oracles.oracle_dot, xs, ys)
    assert expected[0] == "TooLarge"
    assert _outcome(cyclo.dot, xs, ys) == expected
    a = (tuple(xs), tuple(ys))
    b = tuple((y,) for y in ys)
    expected = _outcome(oracles.oracle_mat_mul, a, b)
    assert expected[0] == "TooLarge"
    assert _outcome(linalg.mat_mul, a, b) == expected


@settings(max_examples=150, deadline=None)
@given(vectors(max_len=4), matrix_pairs(), st.integers(1, 120))
def test_any_limit_gives_the_fold_outcome(pair, mats, limit):
    # operands are built first, under the default limit
    xs, ys = pair
    a, b = mats
    original = cyclo.get_conductor_limit()
    cyclo.set_conductor_limit(limit)
    try:
        got = _outcome(cyclo.dot, xs, ys)
        expected = _outcome(oracles.oracle_dot, xs, ys)
        got_m = _outcome(linalg.mat_mul, a, b)
        expected_m = _outcome(oracles.oracle_mat_mul, a, b)
    finally:
        cyclo.set_conductor_limit(original)
    assert got[0] == expected[0]
    if got[0] == "value":
        assert raw(got[1]) == raw(expected[1])
    else:
        assert _names_a_sum(got, limit, [_lcm_of(xs + ys)])
    assert got_m[0] == expected_m[0]
    if got_m[0] == "value":
        assert raw_matrix(got_m[1]) == raw_matrix(expected_m[1])
    else:
        entries = [_lcm_of(row + [r[j] for r in b]) for row in a for j in range(len(b[0]))]
        assert _names_a_sum(got_m, limit, entries)


def test_limit_two_with_every_operand_at_two(restore_limit):
    # the one case above the limit where the fold neither lifts nor reduces
    minus = -cyclo.one(2)
    xs, ys = [minus, minus], [minus, cyclo.one(2)]
    cyclo.set_conductor_limit(1)
    assert raw(cyclo.dot(xs, ys)) == raw(oracles.oracle_dot(xs, ys))
    assert _outcome(cyclo.dot, xs + [cyclo.one(1)], ys + [minus]) == (
        "TooLarge", "conductor 2 exceeds limit 1"
    )


# -- fusion.multiply on every built-in datum ---------------------------------


_BUILT_IN = oracles.built_in_data()


def test_multiply_lifts_the_zero_it_adds_to_as_the_fold_does(restore_limit):
    # every operand is at 2, but each coefficient is added to zero(1),
    # which the fold lifts to 2
    d = _BUILT_IN[0][1]
    t = fusion_coefficients(d)
    x = FusionElement((-cyclo.one(2),) * d.size)
    cyclo.set_conductor_limit(1)
    expected = _outcome(oracles.oracle_multiply, x, x, t)
    assert expected == ("TooLarge", "conductor 2 exceeds limit 1")
    assert _outcome(multiply, x, x, t) == expected


def _assert_multiply_matches(x, y, t):
    got = multiply(x, y, t).coeffs
    assert [raw(c) for c in got] == [raw(c) for c in oracles.oracle_multiply(x, y, t)]


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=[name for name, _ in _BUILT_IN])
def test_multiply_matches_the_fold_on_built_in_data(name, d):
    t = fusion_coefficients(d)
    m = d.size
    ps = idempotents(d, t)
    # an element mixing conductors, denominators and zero coefficients
    mixed = FusionElement(tuple(
        (cyclo.zero(4), rational(-2, 3) * root_of_unity(4, 1), CycloNum(3, [rational(1, 2), 1]))[k % 3]
        for k in range(m)
    ))
    for x in ps[:3] + [basis_element(m, m - 1), mixed]:
        for y in ps[:3] + [mixed]:
            _assert_multiply_matches(x, y, t)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([_BUILT_IN[1][1], _BUILT_IN[2][1], _BUILT_IN[-1][1]]),
    st.one_of(st.none(), st.integers(1, 120)),
    st.data(),
)
def test_multiply_matches_the_fold_on_random_elements(d, limit, data):
    t = fusion_coefficients(d)
    top = data.draw(st.sampled_from(_LCMS))
    x, y = (
        FusionElement(tuple(data.draw(operands(top)) for _ in range(d.size)))
        for _ in range(2)
    )
    if limit is None:
        _assert_multiply_matches(x, y, t)
        return
    original = cyclo.get_conductor_limit()
    cyclo.set_conductor_limit(limit)
    try:
        got = _outcome(multiply, x, y, t)
        expected = _outcome(oracles.oracle_multiply, x, y, t)
    finally:
        cyclo.set_conductor_limit(original)
    assert got[0] == expected[0]
    if got[0] == "value":
        assert [raw(c) for c in got[1].coeffs] == [raw(c) for c in expected[1]]
    else:
        # coefficient k sums over the nonzero x_i and y_j with N_ij^k != 0
        pairs = [(i, j) for i in range(d.size) for j in range(d.size)
                 if x.coeffs[i] and y.coeffs[j]]
        sums = [_lcm_of([c for i, j in pairs if t.coeffs[i][j][k]
                         for c in (x.coeffs[i], y.coeffs[j])])
                for k in range(d.size)]
        assert _names_a_sum(got, limit, sums)
