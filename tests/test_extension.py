from math import gcd

import pytest

from moddata import cyclo, extension, linalg
from moddata.analysis import congruence_classify, extension_family_check
from moddata.constructors import radford_datum, semion_datum, trivial_datum
from moddata.cyclo import root_of_unity, sqrt_integer
from moddata.datum import basic_stats, kronecker_product
from moddata.errors import (
    ChargeOrderTooLarge,
    InvalidExtension,
    NonInvertibleInput,
    NotIntegral,
    TooLarge,
)
from moddata.extension import (
    additive_charge,
    enumerate_charges,
    enumerate_ranks,
    extension_family,
    factor_check,
    homogeneous_matrices,
    lift_search,
    make_extension,
    sl2_enumerate,
    sl2_order,
)
from moddata.galois import d_matrix, perm_matrix

import oracles
from oracles import (
    built_in_data,
    oracle_additive_charge,
    oracle_congruence_classify,
    oracle_enumerate_charges,
    oracle_lift_search,
)


def _built_in_data():
    """Every built-in datum: trivial, semion, the cyclic data of odd order
    up to 15 under every primitive root, and two products."""
    data = [trivial_datum(), semion_datum()]
    for n in (3, 5, 7, 9, 11, 13, 15):
        data += [radford_datum(n, e) for e in range(1, n) if gcd(e, n) == 1]
    data.append(kronecker_product(semion_datum(), semion_datum()))
    data.append(kronecker_product(radford_datum(3), semion_datum()))
    return data


def test_enumerate_charges_matches_the_scan_oracle():
    for d in _built_in_data():
        for option in enumerate_ranks(d):
            charges = enumerate_charges(d, option.value)
            expected = oracle_enumerate_charges(d, option.value)
            # same values, in the same order, at the same conductor
            assert [(c.conductor, c.nums, c.den) for c in charges] == [
                (c.conductor, c.nums, c.den) for c in expected
            ], (d.size, option.value)


def test_enumerate_ranks_semion():
    ranks = enumerate_ranks(semion_datum())
    assert len(ranks) == 4
    squares = sorted(str(r.value * r.value) for r in ranks)
    assert squares.count("2") == 2 and squares.count("-2") == 2
    assert sum(r.is_rank for r in ranks) == 2


def test_enumerate_ranks_trivial():
    values = [r.value for r in enumerate_ranks(trivial_datum())]
    i = root_of_unity(4, 1)
    for expected in (cyclo.one(1), -cyclo.one(1), i, -i):
        assert any(v == expected for v in values)


def test_enumerate_ranks_perfect_square():
    ranks = enumerate_ranks(radford_datum(9))
    rank_values = [r.value for r in ranks if r.is_rank]
    assert any(v == 3 for v in rank_values)
    assert any(v == -3 for v in rank_values)


def test_enumerate_charges_cubes():
    d = semion_datum()
    for option in enumerate_ranks(d):
        charges = enumerate_charges(d, option.value)
        assert len(charges) == 3
        stats = basic_stats(d)
        w = stats.g / (stats.n_o * stats.t_o * option.value)
        for ell in charges:
            assert ell ** 3 == w


def test_trivial_charges_are_cube_roots_of_unity():
    charges = enumerate_charges(trivial_datum(), cyclo.one(1))
    for ell in charges:
        assert ell ** 3 == 1


def test_rank_requires_integrality():
    from moddata.datum import ModularDatum

    half = cyclo.from_rational(cyclo.rational(1, 2))
    d = ModularDatum(
        ("a",), "a", (0,), ((half,),), (cyclo.one(1),)
    )
    with pytest.raises(NotIntegral):
        enumerate_ranks(d)


def test_extension_family_and_twelfth_roots():
    for d in (semion_datum(), trivial_datum(), radford_datum(3)):
        rep = extension_family_check(d)
        assert rep.passed, rep.failures()


def test_homogeneous_relations():
    # homogeneous_matrices itself asserts S'^4 = E and (T'S')^3 = S'^2;
    # exercising it over whole families is the regression guard
    for d in (semion_datum(), trivial_datum(), radford_datum(3)):
        for e in extension_family(d):
            s_prime, t_prime = homogeneous_matrices(e)
            s2 = linalg.mat_mul(s_prime, s_prime)
            assert linalg.mat_eq(
                linalg.mat_mul(s2, s2), linalg.mat_identity(d.size)
            )


def test_make_extension_rejects_bad_pairs():
    d = semion_datum()
    with pytest.raises(InvalidExtension):
        make_extension(d, cyclo.from_rational(2), cyclo.one(1))
    r = sqrt_integer(2)
    with pytest.raises(InvalidExtension):
        make_extension(d, r, cyclo.one(1))


def test_rescaling_leaves_homogeneous_matrices_unchanged():
    from moddata.datum import ModularDatum

    d = semion_datum()
    e = extension_family(d)[0]
    s_prime, t_prime = homogeneous_matrices(e)
    mu = cyclo.from_rational(3)
    zeta = root_of_unity(8, 1)
    rescaled = ModularDatum(
        d.labels, d.unit, d.star,
        linalg.mat_scale(d.s_matrix, mu),
        tuple(t * zeta for t in d.t_diag),
    )
    e2 = make_extension(rescaled, mu * e.rank, e.charge)
    s_prime2, t_prime2 = homogeneous_matrices(e2)
    assert linalg.mat_eq(s_prime, s_prime2)
    assert linalg.mat_eq(t_prime, t_prime2)


def test_additive_charges():
    triv = trivial_datum()
    e = make_extension(triv, cyclo.one(1), cyclo.one(1))
    assert additive_charge(e) == 0
    # the full twelve-member family of the semion covers every odd residue
    charges = sorted(additive_charge(x) for x in extension_family(semion_datum()))
    assert charges == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23]
    # the branch with rank squared -2 and charge (1-i)/rank sits at 3 or 15
    i = root_of_unity(4, 1)
    for e in extension_family(semion_datum()):
        if e.rank * e.rank == -2 and e.charge == (1 - i) / e.rank:
            assert additive_charge(e) in (3, 15)


def test_additive_charge_requires_24th_root():
    triv = trivial_datum()
    e = make_extension(triv, cyclo.one(1), root_of_unity(3, 1))
    assert additive_charge(e) == 8
    from moddata.extension import ExtendedDatum

    bogus = ExtendedDatum(
        datum=triv, rank=cyclo.one(1), charge=root_of_unity(48, 1),
        is_rank=True,
    )
    with pytest.raises(ChargeOrderTooLarge):
        additive_charge(bogus)


def test_additive_charge_matches_the_scan_oracle():
    checked = 0
    for name, d in built_in_data():
        try:
            family = extension_family(d)
        except NotIntegral:
            continue
        for idx, e in enumerate(family):
            expected = oracle_additive_charge(e)
            if expected is None:
                with pytest.raises(ChargeOrderTooLarge):
                    additive_charge(e)
            else:
                assert additive_charge(e) == expected, (name, idx)
            checked += 1
    assert checked >= 300


@pytest.mark.parametrize(
    "n,charge_mod4",
    [(5, 0), (9, 0), (13, 0), (3, 2), (7, 2), (11, 2), (15, 2)],
)
def test_radford_rank_charges(n, charge_mod4):
    d = radford_datum(n)
    for option in enumerate_ranks(d):
        if not option.is_rank:
            continue
        for ell in enumerate_charges(d, option.value):
            e = make_extension(d, option.value, ell)
            c = additive_charge(e)
            assert c % 4 == charge_mod4, (n, c)


def test_d_matrix_values():
    assert d_matrix(1, 1) == ((1, 0), (0, 1))
    assert d_matrix(0, 0) == ((0, -1), (1, 0))
    d55 = d_matrix(5, 5)
    assert tuple(x % 8 for row in d55 for x in row) == (5, 0, 0, 5)
    assert d_matrix(2, 3) == ((2, 5), (-5, -12))


def _mul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _inverse2(a):
    # determinant one
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def _transpose2(a):
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def test_d_matrix_is_its_generator_word():
    s = ((0, -1), (1, 0))
    s_inv = _inverse2(s)
    for q in range(-6, 7):
        for r in range(-6, 7):
            g = d_matrix(q, r)
            t_r = ((1, r), (0, 1))
            t_q = ((1, q), (0, 1))
            word = _mul2(_mul2(_mul2(_mul2(_mul2(s, t_r), s_inv), t_q), s), t_r)
            assert word == g, (q, r)
            # s g^-1 = g^T s = d(-q, -r) s^-1
            lhs = _mul2(s, _inverse2(g))
            assert lhs == _mul2(_transpose2(g), s), (q, r)
            assert lhs == _mul2(d_matrix(-q, -r), s_inv), (q, r)


@pytest.mark.parametrize(
    "m,size", [(1, 1), (2, 6), (3, 24), (4, 48), (5, 120), (7, 336), (8, 384), (24, 9216)]
)
def test_sl2_sizes(m, size):
    group = sl2_enumerate(m)
    assert group.order == size == sl2_order(m)


def test_sl2_brute_force_cross_check():
    # enumerate det-1 matrices mod 2 and mod 3 directly
    for m in (2, 3):
        count = 0
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    for d in range(m):
                        if (a * d - b * c) % m == 1 % m:
                            count += 1
        assert count == sl2_enumerate(m).order


def test_sl2_too_large():
    with pytest.raises(TooLarge):
        sl2_enumerate(24, max_group_order=100)


def test_factor_check_rejects_singular():
    z = cyclo.zero(1)
    singular = ((z, z), (z, z))
    with pytest.raises(NonInvertibleInput):
        factor_check(singular, singular, 2, "linear")


@pytest.mark.parametrize("mode", ["linear", "projective"])
def test_factor_check_with_a_non_diagonal_t(mode):
    # SL(2,Z) permutes the nonzero vectors (1,0), (0,1), (1,1) of F_2^2:
    # s = [[0,-1],[1,0]] swaps the first two and t = [[1,1],[0,1]] the last
    # two.  The action goes through SL(2,Z/2), which is S_3, so it factors
    # exactly at the even levels; neither matrix is diagonal, and S has no
    # pivot on its diagonal
    s = perm_matrix((1, 0, 2))
    t = perm_matrix((0, 2, 1))
    reports = {level: factor_check(s, t, level, mode) for level in range(1, 13)}
    factors = {
        level: rep.linear_factors if mode == "linear" else rep.projective_factors
        for level, rep in reports.items()
    }
    assert [level for level, f in factors.items() if f] == [2, 4, 6, 8, 10, 12]
    assert all(f is False for level, f in factors.items() if level % 2)
    witness = reports[1].witness
    assert (witness.word, witness.element) == ("s", (0, 0, 0, 0))
    assert reports[3].witness.word == "ttt"
    for level, rep in reports.items():
        expected = oracles.oracle_factor_check(s, t, level, mode)
        assert _outcome(rep) == _outcome(expected), level


def test_trivial_datum_congruence_at_level_one():
    e = make_extension(trivial_datum(), cyclo.one(1), cyclo.one(1))
    cls = congruence_classify(e)
    assert cls.projective and cls.congruence
    assert cls.minimal_level == 1


def test_semion_projective_but_not_congruence():
    sem = semion_datum()
    fam = extension_family(sem)
    by_charge = {additive_charge(e): e for e in fam}
    cls = congruence_classify(by_charge[3])
    assert cls.projective is True
    assert cls.congruence is False
    assert cls.minimal_level == 8
    cls = congruence_classify(by_charge[1])
    assert cls.minimal_level == 24


def test_congruence_classify_runs_one_linear_search_at_the_dehn_order(
    monkeypatch,
):
    # charge 3 has ord T' = 8: one projective search at N_o = 4 and one
    # linear search at 8 decide every level
    searched = []
    real = extension.factor_check

    def counting(s_mat, t_mat, modulus, mode="linear", *rest):
        searched.append((modulus, mode))
        return real(s_mat, t_mat, modulus, mode, *rest)

    monkeypatch.setattr(extension, "factor_check", counting)
    sem = semion_datum()
    by_charge = {additive_charge(e): e for e in extension_family(sem)}
    cls = congruence_classify(by_charge[3])
    assert (cls.congruence, cls.minimal_level) == (False, 8)
    assert searched == [(4, "projective"), (8, "linear")]
    # a failed search at ord T' means no level at all
    monkeypatch.setattr(
        extension,
        "factor_check",
        lambda s_mat, t_mat, modulus, mode="linear", *rest: extension.CongruenceReport(
            modulus=modulus, linear_factors=False, projective_factors=True
        ),
    )
    cls = congruence_classify(by_charge[3])
    assert (cls.congruence, cls.minimal_level) == (False, None)


def test_congruence_classify_holds_the_bound_at_the_dehn_order():
    # charge 1 has ord T' = 24, where the group has order 9216
    sem = semion_datum()
    by_charge = {additive_charge(e): e for e in extension_family(sem)}
    with pytest.raises(TooLarge):
        congruence_classify(by_charge[1], max_group_order=1000)
    assert congruence_classify(by_charge[1]).minimal_level == 24


@pytest.mark.parametrize(
    "name", ["trivial", "semion", "radford3", "radford3^2", "semion2"]
)
def test_congruence_classify_matches_the_per_level_oracle(name, monkeypatch):
    # factor_check is pure, so the oracle and congruence_classify may share
    # its results: each distinct search then runs once
    real = extension.factor_check
    done = {}

    def key(mat):
        return tuple((x.conductor, x.den, x.nums) for row in mat for x in row)

    def shared(s_mat, t_mat, modulus, mode="linear", *rest):
        args = (key(s_mat), key(t_mat), modulus, mode, rest)
        if args not in done:
            done[args] = real(s_mat, t_mat, modulus, mode, *rest)
        return done[args]

    monkeypatch.setattr(extension, "factor_check", shared)
    monkeypatch.setattr(oracles, "factor_check", shared)
    for idx, e in enumerate(extension_family(_named_datum(name))):
        cls = congruence_classify(e)
        got = (cls.modulus, cls.projective, cls.congruence, cls.minimal_level)
        assert got == oracle_congruence_classify(e), (name, idx)


def _sl2_mul(a, b, modulus):
    return (
        (a[0] * b[0] + a[1] * b[2]) % modulus,
        (a[0] * b[1] + a[1] * b[3]) % modulus,
        (a[2] * b[0] + a[3] * b[2]) % modulus,
        (a[2] * b[1] + a[3] * b[3]) % modulus,
    )


def _normal_closure_of_t_power(level, m):
    """The normal closure of t^m in SL(2, Z/level): the subgroup generated
    by t^m, grown by every conjugate of a generator by s or t that it
    does not yet hold.  Conjugation by s and t generates all of
    conjugation, since the group is finite."""
    conjugators = [
        (tuple(x % level for x in g), tuple(x % level for x in g_inv))
        for g, g_inv in (((0, -1, 1, 0), (0, 1, -1, 0)), ((1, 1, 0, 1), (1, -1, 0, 1)))
    ]
    one = (1 % level, 0, 0, 1 % level)
    members = {one}
    order = [one]
    gens = []

    def adjoin(x):
        # <H, x> from H: only the x-edges out of H can leave it
        if x in members:
            return
        gens.append(x)
        frontier = []
        for h in order:
            y = _sl2_mul(h, x, level)
            if y not in members:
                members.add(y)
                frontier.append(y)
        while frontier:
            order.extend(frontier)
            found = []
            for h in frontier:
                for g in gens:
                    y = _sl2_mul(h, g, level)
                    if y not in members:
                        members.add(y)
                        found.append(y)
            frontier = found

    adjoin((1 % level, m % level, 0, 1 % level))
    done = 0
    while done < len(gens):
        x = gens[done]
        done += 1
        for g, g_inv in conjugators:
            adjoin(_sl2_mul(_sl2_mul(g, x, level), g_inv, level))
    return members


def test_kernel_of_reduction_is_normal_closure_of_t_power():
    # for M | L the kernel of SL(2, Z/L) -> SL(2, Z/M) is the normal
    # closure of t^M; congruence_classify and lift_search rest on it
    pairs = 0
    for level in range(1, 25):
        for m in cyclo.divisors(level):
            closure = _normal_closure_of_t_power(level, m)
            one = (1 % m, 0, 0, 1 % m)
            assert all(tuple(x % m for x in g) == one for g in closure), (level, m)
            assert len(closure) == sl2_order(level) // sl2_order(m), (level, m)
            pairs += 1
    assert pairs == 84


def test_semion_lift_searches():
    sem = semion_datum()
    assert lift_search(sem, 4) == []
    lift8 = lift_search(sem, 8)
    assert len(lift8) > 0
    i = root_of_unity(4, 1)
    assert any(
        e.rank * e.rank == -2 and e.charge == (1 - i) / e.rank
        for e in lift8
    )
    # survivors at 8 are exactly the extensions whose homogeneous Dehn
    # matrix has order dividing 8
    assert sorted(additive_charge(e) for e in lift8) == [3, 9, 15, 21]
    lift24 = lift_search(sem, 24)
    assert len(lift24) == 12
    # kernel monotonicity across 8 | 24
    keys8 = {(str(e.rank), str(e.charge)) for e in lift8}
    keys24 = {(str(e.rank), str(e.charge)) for e in lift24}
    assert keys8 <= keys24


def test_linear_witness_on_semion_at_4():
    sem = semion_datum()
    e = extension_family(sem)[0]
    s_prime, t_prime = homogeneous_matrices(e)
    out = factor_check(s_prime, t_prime, 4, "linear")
    assert out.linear_factors is False
    assert out.witness is not None
    assert out.witness.word


def test_projective_agrees_with_linear_success():
    # whenever the homogeneous pair factors linearly, the raw pair
    # factors projectively at the same level
    sem = semion_datum()
    for e in lift_search(sem, 8):
        raw = factor_check(
            sem.s_matrix, linalg.diag_matrix(sem.t_diag), 8, "projective"
        )
        assert raw.projective_factors is True
    triv = trivial_datum()
    raw = factor_check(
        triv.s_matrix, linalg.diag_matrix(triv.t_diag), 1, "projective"
    )
    assert raw.projective_factors is True


@pytest.mark.parametrize("n", [3, 5])
def test_radford_projective_congruence(n):
    d = radford_datum(n)
    rep = factor_check(
        d.s_matrix, linalg.diag_matrix(d.t_diag), n, "projective"
    )
    assert rep.projective_factors is True


def _keys(extensions):
    return [(str(e.rank), str(e.charge)) for e in extensions]


_DIFFERENTIAL_CASES = (
    [("trivial", m) for m in list(range(1, 13)) + [24]]
    + [("semion", m) for m in list(range(1, 13)) + [24]]
    + [("radford3", m) for m in (1, 2, 3, 4, 6, 8, 9, 12)]
    + [("semion2", m) for m in (1, 2, 3, 4, 6, 8, 9, 12)]
)


def _named_datum(name):
    if name == "trivial":
        return trivial_datum()
    if name == "semion":
        return semion_datum()
    if name == "radford3":
        return radford_datum(3)
    if name == "radford3^2":
        return radford_datum(3, 2)
    return kronecker_product(semion_datum(), semion_datum())


@pytest.mark.parametrize("name,modulus", _DIFFERENTIAL_CASES)
def test_lift_search_matches_exhaustive_oracle(name, modulus):
    d = _named_datum(name)
    assert _keys(lift_search(d, modulus)) == _keys(oracle_lift_search(d, modulus))


@pytest.mark.parametrize("k", range(12))
def test_characters_factor_at_the_order_of_their_twist(k):
    # the character chi(t) = y, chi(s) = y^-3 of the modular group factors
    # through the reduction modulo ord(y); lift_search relies on it
    y = root_of_unity(12, k)
    x = y ** -3
    order = cyclo.root_of_unity_order(y)
    assert order == 12 // gcd(k, 12)
    outcome = factor_check(((x,),), ((y,),), order, "linear")
    assert outcome.linear_factors is True


@pytest.mark.parametrize("name,d", built_in_data(), ids=[n for n, _ in built_in_data()])
def test_family_members_differ_by_a_character(name, d):
    # lift_search and enumerate_ranks rely on these, and no longer check
    # them at run time: r^2 = n, and any two members differ by
    # x = D_b / D_e and y = ell_b / ell_e with x^4 = 1 and y^3 x = 1
    n_int = basic_stats(d).n_int
    if n_int is None:
        return  # SU(2)_k for k > 1: no extension family
    r = sqrt_integer(n_int)
    assert r * r == basic_stats(d).n
    family = extension_family(d)
    assert len(family) == 12
    for b in family:
        for e in family:
            x = b.rank / e.rank
            y = b.charge / e.charge
            assert x ** 4 == 1
            assert y ** 3 * x == 1


def test_lift_search_runs_one_search_and_obeys_it(monkeypatch):
    levels = []
    real = extension.factor_check

    def counting(s_mat, t_mat, modulus, *rest):
        levels.append(modulus)
        return real(s_mat, t_mat, modulus, *rest)

    monkeypatch.setattr(extension, "factor_check", counting)
    sem = semion_datum()
    assert len(lift_search(sem, 8)) == 4
    assert levels == [8]
    levels.clear()
    # no semion extension has T'^4 = I, so nothing is searched
    assert lift_search(sem, 4) == []
    assert levels == []
    # the verdict of the one search on the base decides every candidate
    monkeypatch.setattr(
        extension,
        "factor_check",
        lambda s_mat, t_mat, modulus, *rest: extension.CongruenceReport(
            modulus=modulus, linear_factors=False, projective_factors=None
        ),
    )
    assert lift_search(sem, 8) == []


def test_lift_search_bounds_group_order_without_candidates():
    # no semion extension has T'^23 = I, yet the bound still applies
    with pytest.raises(TooLarge):
        lift_search(semion_datum(), 23, max_group_order=100)
    assert lift_search(semion_datum(), 23) == []


def _outcome(report):
    witness = report.witness and report.witness.to_json()
    return report.linear_factors, report.projective_factors, witness


def _matrix_pairs(d):
    """The raw S and T of a datum, then the homogeneous pair of its first
    extension when it has one."""
    pairs = [(d.s_matrix, linalg.diag_matrix(d.t_diag))]
    if basic_stats(d).n_int is not None:  # SU(2)_k for k > 1 has no family
        pairs.append(homogeneous_matrices(extension_family(d)[0]))
    return pairs


def _assert_matches_the_two_pass_oracle(d, levels):
    for s_mat, t_mat in _matrix_pairs(d):
        for level in levels:
            for mode in ("linear", "projective"):
                got = factor_check(s_mat, t_mat, level, mode)
                expected = oracles.oracle_factor_check(s_mat, t_mat, level, mode)
                assert _outcome(got) == _outcome(expected), (level, mode)


_SMALL_DATA = [(name, d) for name, d in built_in_data() if d.size <= 4]


@pytest.mark.parametrize("name,d", _SMALL_DATA, ids=[n for n, _ in _SMALL_DATA])
def test_factor_check_matches_the_two_pass_oracle(name, d):
    # verdicts and witnesses, both modes, at every level up to 12
    _assert_matches_the_two_pass_oracle(d, range(1, 13))


@pytest.mark.parametrize("d", [trivial_datum(), semion_datum()], ids=["trivial", "semion"])
def test_factor_check_matches_the_two_pass_oracle_at_24(d):
    _assert_matches_the_two_pass_oracle(d, [24])


def test_sl2_enumerate_keeps_the_breadth_first_order():
    for modulus in range(1, 25):
        expected = oracles.oracle_cayley_data(modulus)[0]
        assert sl2_enumerate(modulus).elements == expected, modulus


def test_failing_search_stops_at_its_witness(monkeypatch):
    # radford 5 has projective level 5, so the search at 24 fails; the
    # walk stops at the witness instead of visiting every one of the
    # 2 |G| Cayley edges
    calls = []
    real = extension._flat_mul

    def counting(a, b, modulus):
        calls.append(modulus)
        return real(a, b, modulus)

    monkeypatch.setattr(extension, "_flat_mul", counting)
    d = radford_datum(5)
    report = factor_check(d.s_matrix, linalg.diag_matrix(d.t_diag), 24, "projective")
    assert report.projective_factors is False
    assert report.witness is not None
    assert 0 < len(calls) < 2 * sl2_order(24)
