"""The fusion-ring, Galois law and structural-identity checks decide
their laws from integer and index structure.  Each gives the report of
its dense oracle in oracles.py, check by check: names, verdicts,
witnesses and values, on every built-in datum and on changed tables,
permutations, involutions and Dehn diagonals.  The counts pin that the
structural routes do no matrix products and multiply out no idempotents
on valid data.  The readers of the Galois action (index_action,
is_galois_datum, verlinde_field_index) give the result or exception of
their per-entry oracles, and apply each unit once to each distinct
entry of S.  Axiom 4 and the Verlinde sums give the reports, tables and
TooLarge of their entry-by-entry and ordered-sum oracles, under every
conductor limit up to the lcm of a datum's conductors; a TooLarge names
the conductor of a sum the route makes, over the limit, which need not
be the one the oracle's first sum over it has.  No kernel sum runs over
the limit."""

from collections import Counter
from math import lcm

import pytest

import oracles

from moddata import axioms, cyclo, extension, fusion, galois, linalg
from moddata.axioms import validate_axioms, verify_structural_identities
from moddata.constructors import radford_datum, semion_datum, su2_datum
from moddata.cyclo import root_of_unity
from moddata.datum import ModularDatum, basic_stats, kronecker_product
from moddata.errors import ModdataError
from moddata.fusion import (
    FusionTable,
    fusion_coefficients,
    verify_idempotent_laws,
    verify_ring_homomorphisms,
)
from moddata.galois import GaloisPermutation, verify_action_laws
from moddata.report import jsonable

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
    # below the diagonal: in the noncommutative change the multiplicative
    # law first fails at (q, 4, 2), where b_4 b_2 != b_2 b_4
    ("radford5-below", radford_datum(5), (4, 2, 3)),
]


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("name,d,entry", _CHANGED, ids=[c[0] for c in _CHANGED])
def test_fusion_checks_match_their_oracles_on_a_changed_entry(
    monkeypatch, name, d, entry, commutative
):
    t = _changed(fusion_coefficients(d), *entry, commutative)
    for got, expected in _fusion_checks(d, t):
        assert got == expected
        assert not got["passed"]
    # absorption on a changed table is summed, as on its full route
    got, full, held = _idempotent_routes(monkeypatch, d, t)
    assert got == full and held is False


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


@pytest.mark.parametrize("q0", [4, 5, 6])
def test_multiplicativity_matches_the_oracle_off_the_generators(monkeypatch, q0):
    # the units modulo 7 are generated by 1, 2 and 3; a permutation
    # changed at another unit fails the law at a generator too, and the
    # witness is the oracle's first failing pair
    assert galois._unit_generators(7) == [1, 2, 3]
    d = radford_datum(7)
    real = galois.index_action

    def swapped(d, q):
        gp = real(d, q)
        if q % 7 != q0:
            return gp
        perm = list(gp.perm)
        perm[1], perm[2] = perm[2], perm[1]
        return GaloisPermutation(q=gp.q, perm=tuple(perm))

    monkeypatch.setattr(galois, "index_action", swapped)
    got = verify_action_laws(d)
    assert got.to_json() == oracles.oracle_verify_action_laws(d).to_json()
    assert got["action-multiplicative"].witness[0] == 2


def _result(f, *args):
    try:
        return f(*args)
    except ModdataError as exc:
        return type(exc).__name__, str(exc)


def _action_outcomes(d):
    """(new, oracle) outcome of index_action at every residue modulo N_o,
    of is_galois_datum and of verlinde_field_index."""
    stats = basic_stats(d)
    residues = range(-1, stats.N_o + 1) if stats.integral else [1]
    pairs = [
        (_result(galois.index_action, d, q), _result(oracles.oracle_index_action, d, q))
        for q in residues
    ]
    return pairs + [
        (_result(galois.is_galois_datum, d), _result(oracles.oracle_is_galois_datum, d)),
        (
            _result(galois.verlinde_field_index, d),
            _result(oracles.oracle_verlinde_field_index, d),
        ),
    ]


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_action_readers_match_their_oracles(name, d):
    for got, expected in _action_outcomes(d):
        assert got == expected


def test_twist_condition_matches_the_oracle_on_a_changed_dehn_entry(monkeypatch):
    # t_1 of radford 7 replaced by t_2 breaks the star invariance, so the
    # axioms are bypassed to reach the twist condition itself
    d = radford_datum(7)
    changed = ModularDatum(d.labels, d.unit, d.star, d.s_matrix,
                           d.t_diag[:1] + d.t_diag[2:3] + d.t_diag[2:])
    monkeypatch.setattr(galois, "_axioms_1_to_4", lambda d: ())
    for got, expected in _action_outcomes(changed):
        assert got == expected
    # q = 1 moves nothing; at q = 2, p(1) = 2 and t_2 = z^4 is not
    # t_1^4 = z^16 = z^2
    assert galois.is_galois_datum(changed) == (False, (2, 1))


def _off_field_datum():
    """Labels (a, b) in Z_3 x Z_5 with s = z_3^(a a') z_5^(b b'), each
    entry stored at the conductor of its value (1, 3, 5 or 15), and
    t = i off the unit, so that N_o = 4 and S's conductor is C = 15.
    At q = 3, sigma lifts 3 to 3 for an entry stored at 5, and to 7 for
    one at 15; the images of S lift it once, to 7, at C."""
    labels = [(a, b) for a in range(3) for b in range(5)]

    def entry(x, y):
        u, v = x[0] * y[0] % 3, x[1] * y[1] % 5
        if u and v:
            return root_of_unity(15, 5 * u + 3 * v)
        if u:
            return root_of_unity(3, u)
        return root_of_unity(5, v) if v else cyclo.one(1)

    return ModularDatum(
        tuple(f"{a}{b}" for a, b in labels),
        "00",
        tuple(labels.index((-a % 3, -b % 5)) for a, b in labels),
        tuple(tuple(entry(x, y) for y in labels) for x in labels),
        (cyclo.one(1),) + (root_of_unity(4, 1),) * 14,
    )


def test_action_readers_match_their_oracles_off_the_field_of_n_o():
    d = _off_field_datum()
    assert basic_stats(d).N_o == 4
    for got, expected in _action_outcomes(d):
        assert got == expected
    # index_action at q = 3 is (a, b) -> (a, 2b), z_5 -> z_5^2 on all of
    # S; so is the one automorphism the images apply, and every entry
    # moves with the rows.  sigma moves z_5 = s_01,01, stored at 5, to
    # z_5^3 instead, so the oracle finds that entry out of place.
    assert galois.index_action(d, 3).perm == tuple(
        5 * (i // 5) + 2 * i % 5 for i in range(15)
    )
    got = verify_action_laws(d).to_json()
    expected = oracles.oracle_verify_action_laws(d).to_json()
    moves = {"name": "moves-s-entries", "passed": False, "witness": [3, 1, 1]}
    assert expected["checks"][0] == moves
    expected["checks"][0] = {"name": "moves-s-entries", "passed": True}
    assert got == expected


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


def test_action_readers_image_each_entry_once_per_unit(monkeypatch):
    # no law applies sigma per entry: each image of S is made once, for
    # each unit but 1, by moving each of the 7 distinct entries of S once,
    # so 5 * 7 galois_apply, under |U(7)| 7^2 = 294
    d = radford_datum(7)
    sigmas = _counting(monkeypatch, galois, "sigma")
    applies = _counting(monkeypatch, cyclo, "galois_apply")
    for q in galois.units_mod(7):
        galois.index_action(d, q)
    assert verify_action_laws(d).passed
    assert galois.is_galois_datum(d) == (True, None)
    assert galois.verlinde_field_index(d) == 1
    assert sigmas == []
    assert len(applies) == 5 * 7


def test_analyze_galois_apply_count(monkeypatch):
    # 35 for the images of S, 5 * 7 distinct entries; 24 in
    # sigma for the 6 images of the Gauss sum and the cocycle law at the
    # 3 generators 1, 2, 3 of the units times the 6 units; 5 in the one
    # inverse of g
    from moddata.analysis import build_analysis

    applies = _counting(monkeypatch, cyclo, "galois_apply")
    assert build_analysis(radford_datum(7)).passed
    assert len(applies) == 64


def test_idempotent_laws_multiply_nothing_on_valid_data(monkeypatch):
    # nor make an absorption sum: with the multiplicative law checked,
    # absorption is read off it
    calls = _counting(monkeypatch, fusion, "multiply")
    for name, d in _BUILT_IN:
        t = fusion_coefficients(d)
        assert verify_ring_homomorphisms(d, t).passed, name
        sums = _counting(monkeypatch, fusion, "_sum_is_product")
        assert verify_idempotent_laws(d, t).passed, name
        assert sums == [], name
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
    monkeypatch.setattr(axioms, "require_valid", lambda d: None)
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


def _dehn_changed(d, i, t_i):
    return ModularDatum(d.labels, d.unit, d.star, d.s_matrix,
                        d.t_diag[:i] + (t_i,) + d.t_diag[i + 1:])


# The built-in data; the semion with T[1] = z_p^k, dense Gauss sums when
# z_p^k is not a fourth root of unity, up to p = 60, and at p = 113, whose
# 112 units take the oracle's pair scan past a second; and radford 3, 5,
# 7 with t_1 replaced by t_2, which are not modular data
_SYMBOL_DATA = _BUILT_IN + [
    (f"semion-z{p}^{k}", _dehn_changed(semion_datum(), 1, root_of_unity(p, k % p)))
    for p in list(range(2, 25)) + [31, 60, 113]
    for k in (1, 2)
] + [
    (f"radford{n}-t1=t2", _dehn_changed(radford_datum(n), 1, radford_datum(n).t_diag[2]))
    for n in (3, 5, 7)
]


def _inverse_pairs(d):
    """Up to three pairs (q, q') of units inverse modulo the exponent,
    and one pair that is not."""
    n_exp = basic_stats(d).N
    units = galois.units_mod(n_exp)
    return [(q, pow(q, -1, n_exp)) for q in units[-3:]] + [(units[-1], 1)]


@pytest.mark.parametrize("name,d", _SYMBOL_DATA, ids=[n for n, _ in _SYMBOL_DATA])
def test_symbol_laws_match_their_oracles(name, d):
    assert _outcome(galois.fusion_symbol_analysis, d) == _outcome(
        oracles.oracle_fusion_symbol_analysis, d
    )
    assert _outcome(galois.odd_sign_analysis, d) == _outcome(
        oracles.oracle_odd_sign_analysis, d
    )
    for q, q_prime in _inverse_pairs(d):
        assert _outcome(galois.relact_check, d, q, q_prime) == _outcome(
            oracles.oracle_relact_check, d, q, q_prime
        )


def test_symbol_laws_fail_on_changed_data():
    # the oracles above are compared where the checks fail or raise too
    data = dict(_SYMBOL_DATA)
    report = galois.fusion_symbol_analysis(data["semion-z31^1"])
    assert report["power-2N"].witness == 2
    assert report["character-iff-sign-relation"].value is False
    outcome = _outcome(galois.odd_sign_analysis, data["radford7-t1=t2"])
    assert outcome[0] == "SignMismatch"


def test_power_identities_match_the_oracle_on_changed_data():
    # the powers of g' / g against those of g / g'; some changed semions
    # fail them, and at z_2 and z_4^2 both g and g' are zero
    outcomes = set()
    for name, d in _SYMBOL_DATA:
        got = _outcome(axioms.power_identity_check, d)
        assert got == _outcome(oracles.oracle_power_identity_check, d), name
        outcomes.add(got[0] if isinstance(got, tuple) else got["passed"])
    assert outcomes == {True, False, "DivisionByZero"}


@pytest.mark.parametrize("q0", [4, 5, 6])
def test_cocycle_law_matches_the_oracle_off_the_generators(monkeypatch, q0):
    # sigma_q0(g) of radford 7 times z_7, at a unit past the generators
    # 1, 2, 3: f(q0) is no longer rational, and the cocycle law fails at
    # a generator too
    d = radford_datum(7)
    d = ModularDatum(d.labels, d.unit, d.star, d.s_matrix, d.t_diag)
    real = galois._gauss_images

    def changed(d):
        h = dict(real(d))
        h[q0] = h[q0] * root_of_unity(7, 1)
        return h

    monkeypatch.setattr(galois, "_gauss_images", changed)
    got = _outcome(galois.fusion_symbol_analysis, d)
    assert got == _outcome(oracles.oracle_fusion_symbol_analysis, d)
    assert got["checks"][0]["name"] == "cocycle-law"
    assert got["checks"][0]["witness"][0] == 2


def _star_changed(n, star):
    d = radford_datum(n)
    return ModularDatum(d.labels, d.unit, star, d.s_matrix, d.t_diag)


# none of these is Galois; taken as Galois, relact_check reaches the
# twisted sums.  A changed Dehn entry breaks them at (0, 0); a changed
# involution only at rows i with a changed i*
_TWISTED_SUM_DATA = _SYMBOL_DATA[len(_BUILT_IN):] + [
    ("radford5-star=id", _star_changed(5, (0, 1, 2, 3, 4))),
    ("radford7-star-1-6", _star_changed(7, (0, 6, 2, 3, 4, 5, 1))),
    ("radford7-star-1-6-2-5", _star_changed(7, (0, 6, 5, 3, 4, 2, 1))),
    ("radford9-star=id", _star_changed(9, tuple(range(9)))),
    # first failure (1, 1) by rows, (3, 0) by columns
    ("radford5-star-3-4", _star_changed(5, (0, 1, 2, 4, 3))),
]


def test_twisted_sum_matches_the_oracle_past_the_galois_test(monkeypatch):
    monkeypatch.setattr(galois, "is_galois_datum", lambda d: (True, None))
    witnesses = set()
    for name, d in _TWISTED_SUM_DATA:
        for q, q_prime in _inverse_pairs(d):
            got = _outcome(galois.relact_check, d, q, q_prime)
            assert got == _outcome(oracles.oracle_relact_check, d, q, q_prime), name
            if isinstance(got, dict):
                witnesses.add(tuple(got["checks"][1].get("witness", ())))
    assert {(0, 0), (1, 1), (2, 1), (3, 1)} <= witnesses


def test_jacobi_check_matches_the_oracle_on_changed_symbols(monkeypatch):
    # each odd normalized datum with f(q0) negated, and radford 9 with the
    # symbol (q|3) in place of (q|9) = 1
    real = galois._fusion_symbols
    cases = []
    for name, d in _BUILT_IN:
        stats = basic_stats(d)
        if stats.N % 2 and stats.normalized and stats.integral:
            for q0 in galois.units_mod(stats.N)[1:]:
                f = list(real(d))
                f[q0] = -f[q0]
                cases.append((d, tuple(f)))
    d9 = radford_datum(9)
    cases.append((d9, tuple(cyclo.rational(cyclo.jacobi_symbol(q, 3)) for q in range(9))))
    witnesses = set()
    for d, symbols in cases:
        monkeypatch.setattr(galois, "_fusion_symbols", lambda d, symbols=symbols: symbols)
        got = galois.odd_sign_analysis(d).to_json()
        assert got == oracles.oracle_odd_sign_analysis(d).to_json()
        witnesses.add(got["checks"][2].get("witness"))
    assert None not in witnesses and len(witnesses) > 5


@pytest.mark.parametrize("n,witness", [(3, 2), (5, 2), (7, 3), (9, None), (15, 7)])
def test_jacobi_check_matches_the_oracle_past_the_exponent(n, witness):
    # n labels of dimension 1 with S and T all ones: N = 1, so the first
    # unit q with (q|n) != 1 lies past the exponent.  Not modular data.
    one = cyclo.one(1)
    d = ModularDatum(tuple(map(str, range(n))), "0", tuple(range(n)),
                     ((one,) * n,) * n, (one,) * n)
    got = galois.odd_sign_analysis(d).to_json()
    assert got == oracles.oracle_odd_sign_analysis(d).to_json()
    assert got["checks"][2].get("witness") == witness


def _counting_method(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_symbol_analysis_makes_no_product_per_pair(monkeypatch):
    d = _dehn_changed(semion_datum(), 1, root_of_unity(97, 1))
    galois.fusion_symbol_analysis(d)  # derives g, its images and the symbols
    products = _counting_method(monkeypatch, cyclo.CycloNum, "__mul__")
    inverses = _counting_method(monkeypatch, cyclo.CycloNum, "inverse")
    assert not galois.fusion_symbol_analysis(d).passed
    assert len(products) <= 96 + 25
    assert inverses == []


def test_analyze_inverts_the_gauss_sum_once(monkeypatch):
    from moddata.analysis import build_analysis

    d = radford_datum(7)
    g = basic_stats(d).g
    g_rec = basic_stats(d).g_rec
    inverses = _counting_method(monkeypatch, cyclo.CycloNum, "inverse")
    assert build_analysis(d).passed
    assert sum(x == g for x in inverses) == 1
    assert sum(x == g_rec for x in inverses) == 0


def test_twisted_sum_uses_matrix_products(monkeypatch):
    d = radford_datum(7)
    galois.is_galois_datum(d)  # its axioms make matrix products of their own
    calls = _counting(monkeypatch, linalg, "mat_mul")
    assert galois.relact_check(d, 3, 5).passed
    # the word makes two, the twisted sums two
    assert len(calls) == 4


def _sign_twisted(d, k):
    """d with row and column k of S negated, which keeps S symmetric and
    negates the fusion coefficients with exactly one index k."""
    sign = [-1 if i == k else 1 for i in range(d.size)]
    s = tuple(tuple(x * (sign[i] * sign[j]) for j, x in enumerate(row))
              for i, row in enumerate(d.s_matrix))
    return ModularDatum(d.labels, d.unit, d.star, s, d.t_diag)


def test_fusion_coefficients_match_the_verlinde_fold():
    # each built-in datum, and its twin for each label k but the unit;
    # most twins have no global dimension, the rest have violations
    data = [d for _, d in _BUILT_IN]
    data += [_sign_twisted(d, k) for d in data for k in range(d.size) if k != d.o]
    violations = 0
    for d in data:
        got = _result(fusion.fusion_coefficients.__wrapped__, d)
        expected = _result(oracles.oracle_fusion_coefficients, d)
        if isinstance(got, tuple):
            assert got == expected
            continue
        # through the wire form, so that conductors are compared too
        assert jsonable(got.coeffs) == jsonable(expected.coeffs)
        assert jsonable(got.violations) == jsonable(expected.violations)
        violations += len(got.violations)
    # 12 of them in the twins of radford3*semion-unit-last, as many as in
    # those of radford3*semion, whose relabelling it is
    assert violations == 338 + 12


# -- axiom 4 and the Verlinde sums against their entry-by-entry routes -------


def _axiom_outcome(f, d):
    """The (name, passed, witness, wire value) of each check, or the
    exception, of f on a copy of d that has nothing derived yet."""
    fresh = ModularDatum(d.labels, d.unit, d.star, d.s_matrix, d.t_diag)
    try:
        return [(n, p, w, jsonable(v)) for n, p, w, v in f(fresh)]
    except ModdataError as exc:
        return type(exc).__name__, str(exc)


def _verlinde_outcome(f, d):
    fresh = ModularDatum(d.labels, d.unit, d.star, d.s_matrix, d.t_diag)
    try:
        t = f(fresh)
    except ModdataError as exc:
        return type(exc).__name__, str(exc)
    return jsonable(t.coeffs), jsonable(t.violations)


def _axiom4_variants(d):
    """d with its last Dehn entry negated and multiplied by z_3 and z_5,
    in turn; the products gain conductors 3 and 5."""
    t = d.t_diag[-1]
    return [_dehn_changed(d, d.size - 1, x)
            for x in (-t, t * root_of_unity(3, 1), t * root_of_unity(5, 2))]


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_axioms_match_the_entry_by_entry_oracle(name, d):
    got = _axiom_outcome(axioms._axioms_1_to_4.__wrapped__, d)
    assert got == _axiom_outcome(oracles.oracle_axioms_1_to_4, d)
    assert all(passed for _, passed, _, _ in got)
    witnesses = []
    for changed in _axiom4_variants(d):
        got = _axiom_outcome(axioms._axioms_1_to_4.__wrapped__, changed)
        assert got == _axiom_outcome(oracles.oracle_axioms_1_to_4, changed)
        assert got[-1][0] == "axiom4-proportionality"
        witnesses.append(got[-1][2])
    # the semion with -t_1 is the anti-semion, whose axiom 4 holds
    assert d.size == 1 or witnesses[1] is not None


def _lifted(d, conductors):
    """d with each diagonal entry s_ii, for i in conductors, stored at a
    multiple of its conductor: the same values, mixed conductors."""
    s = [list(row) for row in d.s_matrix]
    for i, c in conductors.items():
        s[i][i] = s[i][i].lift(c)
    return ModularDatum(d.labels, d.unit, d.star, tuple(map(tuple, s)), d.t_diag)


def _ones_datum(entries):
    """Three labels, T = 1 and S all ones but for the given entries, with
    s_00, s_11 and s_22 stored at conductors 3, 5 and 7.  S^2 is not nC,
    so only axiom 4 decides; every pair of rows of S lies within 35."""
    s = [[cyclo.one(1)] * 3 for _ in range(3)]
    for i, c in enumerate((3, 5, 7)):
        s[i][i] = cyclo.one(c)
    for (i, j), x in entries.items():
        s[i][j] = s[j][i] = x
    one = cyclo.one(1)
    return ModularDatum(("0", "1", "2"), "0", (0, 1, 2), tuple(map(tuple, s)),
                        (one,) * 3)


# (name, datum, largest limit tried, or None for the lcm of its conductors)
_LIMIT_DATA = [
    # S at 3, 15 and 21, T at 3: the Verlinde sums reach 105
    ("radford3-lifted", _lifted(radford_datum(3), {1: 15, 2: 21}), None),
    ("radford3*semion-lifted",
     _lifted(kronecker_product(radford_datum(3), semion_datum()), {1: 15, 4: 21}),
     None),
    ("su2_2-lifted", _lifted(su2_datum(2), {0: 24, 2: 40}), None),
    # rows 1 to 4 at 3 times 5, 7, 11 and 13: every two rows lie within
    # 429 and every three past it, and 2* = 4, so the first sum over the
    # limit in (i, j, k) order, N_12^2, is F(1, 2, 4) at 1365, not the
    # first unordered triple F(1, 2, 3) at 1155
    ("radford3*semion-four-primes",
     _lifted(kronecker_product(radford_datum(3), semion_datum()),
             {1: 15, 2: 21, 3: 33, 4: 39}),
     1365),
    # axiom 4 holds on every entry, and the sides of (1, 2) reach 105
    ("ones", _ones_datum({}), None),
    # axiom 4 fails at (0, 1), before any entry reaches past 35
    ("ones-twos", _ones_datum({(0, 1): cyclo.from_rational(2)}), None),
]


def _names_a_sum(outcome, limit, conductors):
    """Whether outcome is a TooLarge that names one of the conductors of
    sums, over the limit."""
    return outcome in {("TooLarge", f"conductor {c} exceeds limit {limit}")
                       for c in conductors if c > limit}


def _verlinde_conductors(monkeypatch, d):
    """The conductors of the Verlinde sums on d, under the default limit."""
    conductors = _recording_conductors(monkeypatch)
    fusion.fusion_coefficients.__wrapped__(_fresh(d))
    monkeypatch.undo()
    return conductors


@pytest.mark.parametrize("name,d,top", _LIMIT_DATA, ids=[c[0] for c in _LIMIT_DATA])
def test_axiom4_and_verlinde_raise_where_their_oracles_do(monkeypatch, name, d, top):
    # the Verlinde sums are made once per unordered triple, the oracle's
    # in (i, j, k) order: on four primes the first over the limit differ
    sums = _verlinde_conductors(monkeypatch, d) if name == "radford3*semion-four-primes" else None
    conductors = {x.conductor for row in d.s_matrix for x in row}
    conductors |= {t.conductor for t in d.t_diag}
    # every conductor met divides their lcm, so each limit between two
    # divisors of it acts as the lower one
    limits = {e for c in cyclo.divisors(lcm(*conductors)) for e in (c - 1, c)}
    outcomes = set()
    for limit in sorted(e for e in limits if top is None or e <= top):
        token = cyclo.set_conductor_limit(limit)
        try:
            got = _axiom_outcome(axioms._axioms_1_to_4.__wrapped__, d)
            expected = _axiom_outcome(oracles.oracle_axioms_1_to_4, d)
            got_f = _verlinde_outcome(fusion.fusion_coefficients.__wrapped__, d)
            expected_f = _verlinde_outcome(oracles.oracle_verlinde_rows, d)
        finally:
            cyclo.reset_conductor_limit(token)
        assert got == expected, limit
        if sums is not None and expected_f[0] == "TooLarge":
            assert _names_a_sum(got_f, limit, sums), limit
        else:
            assert got_f == expected_f, limit
        outcomes.add(got if isinstance(got, tuple) else got[-1][1:3])
        outcomes.add(got_f if isinstance(got_f[0], str) else "table")
    assert len(outcomes) > 2
    if top is None:  # decided at the lcm
        assert isinstance(got, list) and got_f[0] != "TooLarge"


def _fresh(d):
    return ModularDatum(d.labels, d.unit, d.star, d.s_matrix, d.t_diag)


def _lifted_route_outcomes(d):
    """(lifted route, oracle) outcomes on d: the Verlinde sums, then, if
    they give a table, the ring-homomorphism and idempotent laws and the
    fusion products of the first idempotents.  Each check runs on a copy
    of d that has nothing derived yet."""
    table = _verlinde_outcome(fusion.fusion_coefficients.__wrapped__, d)
    pairs = [(table, _verlinde_outcome(oracles.oracle_verlinde_rows, d))]
    if isinstance(table[0], str):  # an exception: no table
        return pairs
    for check, oracle in (
        (verify_ring_homomorphisms, oracles.oracle_verify_ring_homomorphisms),
        (verify_idempotent_laws, oracles.oracle_verify_idempotent_laws),
    ):
        got, expected = _fresh(d), _fresh(d)
        pairs.append((_outcome(check, got, fusion_coefficients(got)),
                      _outcome(oracle, expected, fusion_coefficients(expected))))
    fresh = _fresh(d)
    t = fusion_coefficients(fresh)
    ps = _result(fusion.idempotents, fresh, t)
    for x in ps[:2] if isinstance(ps, list) else []:
        for y in ps[:2]:
            pairs.append((_result(lambda: jsonable(fusion.multiply(x, y, t).coeffs)),
                          _result(lambda: jsonable(oracles.oracle_multiply(x, y, t)))))
    return pairs


def _recording_conductors(monkeypatch):
    """The set that the conductors of kernel sums are added to from now."""
    conductors = set()
    real = cyclo._sum_terms

    def recording(m, terms):
        conductors.add(m)
        return real(m, terms)

    monkeypatch.setattr(cyclo, "_sum_terms", recording)
    return conductors


@pytest.mark.parametrize("name,d,top", _LIMIT_DATA, ids=[c[0] for c in _LIMIT_DATA])
def test_lifted_routes_match_their_oracles_under_every_limit(monkeypatch, name, d, top):
    if name == "radford3-lifted":
        # the Verlinde triples do not share one conductor, so each row is
        # lifted to more than one
        conductors = _recording_conductors(monkeypatch)
        fusion_coefficients.__wrapped__(_fresh(d))
        monkeypatch.undo()
        assert conductors == {3, 15, 21, 105}
    # on four primes the Verlinde sums name their own first sum over the
    # limit, as in test_axiom4_and_verlinde_raise_where_their_oracles_do
    sums = _verlinde_conductors(monkeypatch, d) if name == "radford3*semion-four-primes" else None
    conductors = {x.conductor for row in d.s_matrix for x in row}
    conductors |= {t.conductor for t in d.t_diag}
    limits = {e for c in cyclo.divisors(lcm(*conductors)) for e in (c - 1, c)}
    reached = set()
    for limit in sorted(e for e in limits if top is None or e <= top):
        token = cyclo.set_conductor_limit(limit)
        try:
            pairs = _lifted_route_outcomes(d)
        finally:
            cyclo.reset_conductor_limit(token)
        for got, expected in pairs:
            if sums is not None and isinstance(expected, tuple) and expected[0] == "TooLarge":
                assert _names_a_sum(got, limit, sums), limit
            else:
                assert got == expected, limit
        reached.add(len(pairs))
    if name != "radford3*semion-four-primes" and name[:4] != "ones":
        # some limits stop at the table; at the lcm every route runs
        assert len(reached) > 1 and len(pairs) == 7


_LOWERED = [(name, d) for name, d in _BUILT_IN
            if name in ("radford3^1", "radford5^2", "radford3*semion", "su2_2", "su2_3")]


@pytest.mark.parametrize("name,d", _LOWERED, ids=[name for name, _ in _LOWERED])
def test_law_checks_under_a_lower_limit_than_their_derivation(name, d):
    # the table and xi kept on the datum from the default limit, the laws
    # checked under every lower one: rows over the limit are folded with *
    # and +, which raise where the oracles do
    d = _fresh(d)
    t = fusion_coefficients(d)
    top = lcm(*[x.conductor for row in fusion._xi_matrix(d) for x in row])
    raised = 0
    for limit in range(1, top):
        token = cyclo.set_conductor_limit(limit)
        try:
            for check, oracle in (
                (verify_ring_homomorphisms, oracles.oracle_verify_ring_homomorphisms),
                (verify_idempotent_laws, oracles.oracle_verify_idempotent_laws),
            ):
                got = _outcome(check, d, t)
                assert got == _outcome(oracle, d, t), (check, limit)
                raised += got[0] == "TooLarge"
        finally:
            cyclo.reset_conductor_limit(token)
    assert raised == 2 * (top - 1)


def test_law_rows_that_mix_conductors_sum_at_their_laws_conductors(monkeypatch):
    # rows 1 and 2 of xi on radford3-lifted mix 3 with 15 and 21; each law
    # (q, i, j) is summed at the lcm of the entries i, j and k of row q it
    # involves, for the k with N_ij^k != 0, so the laws that avoid the
    # entry at 15 or 21 are summed at 3, and none at 105
    d = _fresh(_LIMIT_DATA[0][1])
    t = fusion_coefficients(d)
    xi = fusion._xi_matrix(d)
    assert [len({x.conductor for x in row}) for row in xi] == [1, 2, 2]
    sums = []
    real = cyclo._sum_terms
    monkeypatch.setattr(cyclo, "_sum_terms", lambda m, terms: sums.append(m) or real(m, terms))
    assert fusion._multiplicative_witness(d, t.terms) is None
    m = d.size
    laws = Counter(lcm(*[xi[q][k].conductor for k in (i, j, *[k for k, _ in t.terms[i][j]])])
                   for q in range(m) for i in range(m) for j in range(i, m))
    assert Counter(sums) == laws
    assert set(sums) == {3, 15, 21} and laws[3] > m * (m + 1) // 2


def _limits(d, top):
    """Each limit c - 1 and c, for c dividing the lcm of the conductors of
    d, up to top if it is not None."""
    conductors = {x.conductor for row in d.s_matrix for x in row}
    conductors |= {t.conductor for t in d.t_diag}
    limits = {e for c in cyclo.divisors(lcm(*conductors)) for e in (c - 1, c)}
    return sorted(e for e in limits if top is None or e <= top)


def test_no_kernel_sum_runs_over_the_limit(monkeypatch):
    # the one limit rule: every route raises TooLarge before it makes a sum
    # over the limit, but for a sum at 1 or 2 over operands all at it,
    # which the fold of * and + makes under any limit too
    conductors = _recording_conductors(monkeypatch)
    runs = []
    for name, d, top in _LIMIT_DATA:
        for limit in _limits(d, top):
            conductors.clear()
            token = cyclo.set_conductor_limit(limit)
            try:
                _axiom_outcome(axioms._axioms_1_to_4.__wrapped__, d)
                _lifted_route_outcomes(d)
            finally:
                cyclo.reset_conductor_limit(token)
            assert all(c <= max(limit, 2) for c in conductors), (name, limit)
            runs.append(max(conductors, default=0))
    for name, d in _LOWERED:
        d = _fresh(d)
        t = fusion_coefficients(d)
        top = lcm(*[x.conductor for row in fusion._xi_matrix(d) for x in row])
        for limit in range(top + 1):
            conductors.clear()
            token = cyclo.set_conductor_limit(limit)
            try:
                _outcome(verify_ring_homomorphisms, d, t)
                _outcome(verify_idempotent_laws, d, t)
            finally:
                cyclo.reset_conductor_limit(token)
            assert all(c <= max(limit, 2) for c in conductors), (name, limit)
            runs.append(max(conductors, default=0))
    # sums ran up to their limit, and past 2
    assert max(runs) > 1000


def test_fusion_coefficients_make_one_sum_per_unordered_triple(monkeypatch):
    # counted in the kernel, under every route to it, with S^2 derived
    # first: no triple holding the unit is summed, so one sum per
    # unordered triple of the other m - 1 labels
    sums = _counting(monkeypatch, cyclo, "_sum_terms")
    for name, d in _BUILT_IN:
        axioms._global_dimension_from_square(d)
        del sums[:]
        fusion_coefficients.__wrapped__(d)
        m = d.size
        assert len(sums) == (m - 1) * m * (m + 1) // 6, name


def test_power_identities_make_no_product_but_the_ratio(monkeypatch):
    # the powers of g' / g are read off the table of roots of unity, and
    # the ratio is one product with the inverse of g kept on the datum
    for name, d in _BUILT_IN:
        axioms._gauss_sum_inverse(d)
        products = _counting_method(monkeypatch, cyclo.CycloNum, "__mul__")
        inverses = _counting_method(monkeypatch, cyclo.CycloNum, "inverse")
        assert axioms.power_identity_check(d).passed, name
        assert (len(products), inverses) == (1, []), name
        monkeypatch.undo()


def test_validate_axioms_product_counts(monkeypatch):
    # 162 products as measured; on the symmetric S, S^2 and A S T of
    # axiom 4 are made on and above the diagonal without linalg.mat_mul,
    # and the Verlinde sums make no vector p[o, b] of the unit row
    d = radford_datum(5)
    products = _counting_method(monkeypatch, cyclo.CycloNum, "__mul__")
    mat_muls = _counting(monkeypatch, linalg, "mat_mul")
    assert validate_axioms(d).passed
    assert len(products) <= 162
    assert mat_muls == []


# -- laws by the symmetry of S, the unit row and the family by exponent -------
#
# With S symmetric in representation the laws symmetric in (i, j) are
# decided on the pairs j >= i, the Verlinde sums skip the triples holding
# the unit, and the extension family is decided on exponents.  Each is
# compared with its full route through the wire form, so that witnesses
# and values are compared with their conductors.


def _wire(f, *args):
    try:
        return jsonable(f(*args))
    except ModdataError as exc:
        return type(exc).__name__, str(exc)


def _with_s(d, entries):
    s = [list(row) for row in d.s_matrix]
    for (i, j), x in entries.items():
        s[i][j] = x
    return ModularDatum(d.labels, d.unit, d.star, tuple(map(tuple, s)), d.t_diag)


_R3, _R5 = radford_datum(3), radford_datum(5)
_ASYMMETRIC = [
    # s_01 at 3 and s_10 the same value lifted to 6: symmetric in value
    # only, so every law takes its full route
    ("radford3-s10-at-6", _with_s(_R3, {(1, 0): _R3.s(1, 0).lift(6)})),
    ("radford3-s01-twisted", _with_s(_R3, {(0, 1): _R3.s(0, 1) * root_of_unity(3, 1)})),
    # symmetric S, and a star that is not an involution: S^2 = nC fails
    ("radford5-star-cycle",
     ModularDatum(_R5.labels, _R5.unit, (0, 2, 3, 1, 4), _R5.s_matrix, _R5.t_diag)),
]
_SYMMETRY_DATA = _BUILT_IN + _ASYMMETRIC
_FULL_ROUTES = [
    (axioms._global_dimension_from_square.__wrapped__,
     oracles.oracle_global_dimension_from_square),
    (axioms._axioms_1_to_4.__wrapped__, oracles.oracle_axioms_1_to_4),
    (fusion.fusion_coefficients.__wrapped__, oracles.oracle_verlinde_triples),
]


def test_s_is_symmetric_in_representation_only_where_it_is():
    assert all(axioms._s_symmetric(d) for _, d in _BUILT_IN)
    assert [axioms._s_symmetric(d) for _, d in _ASYMMETRIC] == [False, False, True]
    # the first is still symmetric in value
    assert validate_axioms(_ASYMMETRIC[0][1]).passed


@pytest.mark.parametrize("name,d", _SYMMETRY_DATA, ids=[n for n, _ in _SYMMETRY_DATA])
def test_symmetric_routes_match_the_full_routes(name, d):
    for route, oracle in _FULL_ROUTES:
        assert _wire(route, _fresh(d)) == _wire(oracle, _fresh(d)), route
    got = _outcome(verify_structural_identities, _fresh(d))
    assert got == _outcome(oracles.oracle_verify_structural_identities, _fresh(d))


@pytest.mark.parametrize("name,d", _SYMMETRY_DATA, ids=[n for n, _ in _SYMMETRY_DATA])
def test_images_of_s_and_their_scans_match_the_full_routes(name, d):
    d = _fresh(d)
    got = _outcome(verify_action_laws, d)
    assert got == _outcome(oracles.oracle_verify_action_laws, _fresh(d))
    if not basic_stats(d).integral:
        return
    for q in galois.units_mod(basic_stats(d).N_o):
        assert _wire(galois._s_image, d, q) == _wire(oracles.oracle_s_image, d, q)
        assert _wire(galois.index_action, d, q) == _wire(oracles.oracle_index_action, d, q)


def test_s_symmetric_at_its_conductor_takes_no_scan(monkeypatch):
    # s_12 stored at 15 and s_21 at 5: symmetric in value only, and
    # symmetric once S is lifted to its conductor 15, which is all the
    # Galois layer reads, so no image of S is scanned
    d = _with_s(_R5, {(1, 2): _R5.s(1, 2).lift(15)})
    assert not axioms._s_symmetric(d)
    scans = _counting(monkeypatch, galois, "_first_moved")
    units = galois.units_mod(basic_stats(d).N_o)
    perms = [galois.index_action(d, q) for q in units]
    assert perms == [galois.index_action(_fresh(_R5), q) for q in units]
    assert _outcome(verify_action_laws, d) == _outcome(verify_action_laws, _fresh(_R5))
    assert scans == []


@pytest.mark.parametrize("name", ["radford5^1", "radford7^3", "radford3*semion",
                                  "radford3-s10-at-6"])
def test_first_moved_entry_matches_the_full_scan(name):
    # each image with one entry, and the entry across the diagonal with
    # it when S is symmetric, replaced by 7: the first pair out of place
    # is found on and above the diagonal where the full scan finds it
    d = _fresh(dict(_SYMMETRY_DATA)[name])
    symmetric = axioms._s_symmetric(d)
    m = d.size
    witnesses = set()
    for q in galois.units_mod(basic_stats(d).N_o):
        perm = galois.index_action(d, q).perm
        image = oracles.oracle_s_image(d, q)
        assert galois._first_moved(d, image, perm) is None
        for i in range(m):
            for j in range(m):
                changed = [list(row) for row in image]
                changed[i][j] = cyclo.from_rational(7)
                if symmetric:
                    changed[j][i] = changed[i][j]
                got = galois._first_moved(d, changed, perm)
                assert got == oracles.oracle_first_moved(d, changed, perm), (q, i, j)
                witnesses.add(got)
    assert len(witnesses) == (m * (m + 1) // 2 if symmetric else m * m)


def _family_changed(monkeypatch, change):
    real = extension._family_choices
    monkeypatch.setattr(extension, "_family_choices",
                        lambda d: tuple(change(list(real(d)))))


def _twisted(member, rank=1, charge=1):
    return (member[0] * rank, member[1] * charge, member[2])


# families changed past enumerate_ranks and enumerate_charges
_FAMILY_CHANGES = {
    "unchanged": lambda f: f,
    "charge-swapped": lambda f: f[:5] + [(f[5][0], f[7][1], f[5][2])] + f[6:],
    "charge-times-z24": lambda f: f[:8] + [_twisted(f[8], charge=root_of_unity(24, 1))] + f[9:],
    "charge-times-z12": lambda f: f[:2] + [_twisted(f[2], charge=root_of_unity(12, 1))] + f[3:],
    "charge-not-a-root": lambda f: f[:3] + [_twisted(f[3], charge=2)] + f[4:],
    "rank-times-i": lambda f: f[:6] + [_twisted(f[6], rank=root_of_unity(4, 1))] + f[7:],
    "rank-doubled": lambda f: f[:10] + [_twisted(f[10], rank=2)] + f[11:],
    "member-dropped": lambda f: f[:4] + f[5:],
    "first-dropped": lambda f: f[1:],
    "ranks-rotated": lambda f: [_twisted(x, rank=root_of_unity(4, 1)) for x in f],
}


@pytest.mark.parametrize("change", list(_FAMILY_CHANGES), ids=list(_FAMILY_CHANGES))
def test_family_check_by_exponent_matches_the_check_by_value(monkeypatch, change):
    from moddata.analysis import extension_family_check

    _family_changed(monkeypatch, _FAMILY_CHANGES[change])
    failing = set()
    for name, d in _SYMMETRY_DATA:
        got = _outcome(extension_family_check, _fresh(d))
        assert got == _outcome(oracles.oracle_extension_family_check, _fresh(d)), name
        if isinstance(got, dict):
            failing |= {(c["name"], c.get("witness")) for c in got["checks"] if not c["passed"]}
    if change in ("unchanged", "ranks-rotated"):
        assert not failing
    else:
        assert failing


_SWEEP_DATA = _LIMIT_DATA + [
    (name, d, None) for name, d in _SYMMETRY_DATA
    if name in ("radford3*semion", "su2_3", "radford3-s10-at-6")
] + [
    # s_00 at 2 * 5 reaches every Verlinde sum through the weights, and
    # s_11, s_22, s_44 at 3, 7, 11 times 5, with 2* = 3 and 4* = 1: under
    # a limit of 385 to 769 S^2 = nC is decided, and the first sum over
    # it is F(0, 2, 4) at 770, where the first without the unit would be
    # F(1, 2, 4) at 2310
    ("radford5-five-primes", _lifted(_R5, {0: 10, 1: 15, 2: 35, 4: 55}), None),
    # s_33 at 55 in place of s_44: S^2 = nC is decided under a limit of
    # 385 to 769 too, though s2_23, at 385, and n, at 10, lie within 770
    ("radford5-four-primes", _lifted(_R5, {0: 10, 1: 15, 2: 35, 3: 55}), None),
]


@pytest.mark.parametrize("name,d,top", _SWEEP_DATA, ids=[c[0] for c in _SWEEP_DATA])
def test_symmetric_routes_raise_where_the_full_routes_do(name, d, top):
    outcomes = set()
    for limit in _limits(d, top):
        token = cyclo.set_conductor_limit(limit)
        try:
            for route, oracle in _FULL_ROUTES:
                got = _wire(route, _fresh(d))
                assert got == _wire(oracle, _fresh(d)), (route, limit)
                outcomes.add(got[0] if isinstance(got, tuple) else "done")
        finally:
            cyclo.reset_conductor_limit(token)
    assert {"TooLarge", "done"} <= outcomes


def test_global_dimension_compares_each_entry_at_its_own_conductor():
    # a comparison of s2_23 with n by != would lift both to 770, which no
    # sum of S^2 reaches
    d = dict((name, d) for name, d, _ in _SWEEP_DATA)["radford5-four-primes"]
    for limit in (385, 500, 769):
        token = cyclo.set_conductor_limit(limit)
        try:
            n, witness = axioms._global_dimension_from_square.__wrapped__(_fresh(d))
        finally:
            cyclo.reset_conductor_limit(token)
        assert (n, witness) == (5, None)
    n = axioms._global_dimension_from_square(_fresh(d))[0]
    s2 = oracles.oracle_mat_mul(d.s_matrix, d.s_matrix)
    assert (n.conductor, s2[2][3].conductor) == (10, 385)


def test_action_laws_keep_no_image_of_s():
    import tracemalloc

    d = radford_datum(45)
    basic_stats(d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert verify_action_laws(d).passed
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the 24 images of S hold 13.9 MiB; the lifted S, its row keys and the
    # 24 permutations kept on the datum 0.7 MiB
    assert retained < 2**20


# -- laws from work the chain already did --------------------------------------
#
# Eigenvalue absorption follows from the Verlinde theorem on a datum's own
# table, moves-s-entries from the dimensions the permutation keeps, and the
# charges of -r, ir and -ir from the exponent of the first rank's.  Each is
# compared with its full route: the absorption sums, the scan of the image
# of S and one division per rank.


def _idempotent_routes(monkeypatch, d, t):
    """(route taken, full route, gate) for the idempotent laws of t: the
    outcome of the route taken on d, on which t may be the table kept,
    that of the full route on a copy of d that has nothing derived yet,
    with the Verlinde gate switched off, and whether the gate held on d,
    or None if the laws raised before reaching it."""
    held = []
    gate = fusion._verlinde_laws_hold

    def recorded(*args):
        held.append(gate(*args))
        return held[-1]

    with monkeypatch.context() as m:
        m.setattr(fusion, "_verlinde_laws_hold", recorded)
        got = _outcome(verify_idempotent_laws, d, t)
        m.setattr(fusion, "_verlinde_laws_hold", lambda *args: False)
        full = _outcome(verify_idempotent_laws, _fresh(d), t)
    return got, full, held[0] if held else None


def _moved_routes(d):
    """(kept, full scan) of the first pair out of place for each unit
    modulo N_o, or the exception of index_action."""
    d = _fresh(d)
    stats = _result(basic_stats, d)
    if isinstance(stats, tuple) or not stats.integral:
        return [(_result(galois.index_action, d, 1),
                 _result(oracles.oracle_index_action, _fresh(d), 1))]
    pairs = []
    for q in galois.units_mod(stats.N_o):
        got = _wire(lambda: galois._index_action(d, q)[1])
        pairs.append((got, _wire(lambda: oracles.oracle_first_moved(
            d, oracles.oracle_s_image(d, q), galois.index_action(d, q).perm))))
    return pairs


def _family_routes(d):
    return (_wire(extension._family_choices.__wrapped__, _fresh(d)),
            _wire(oracles.oracle_family_choices, _fresh(d)))


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_routes_from_earlier_work_match_their_full_routes(monkeypatch, name, d):
    kept = _fresh(d)
    got, full, held = _idempotent_routes(monkeypatch, kept, fusion_coefficients(kept))
    assert got == full and got["passed"] and held
    for got, full in _moved_routes(d):
        assert got == full
    got, full = _family_routes(d)
    assert got == full
    if basic_stats(d).n_int is None:  # SU(2)_k for k > 1
        assert got[0] == "NotIntegral"
    else:
        assert len(got) == 12


@pytest.mark.parametrize("name,d,top", _LIMIT_DATA, ids=[c[0] for c in _LIMIT_DATA])
def test_routes_from_earlier_work_match_under_every_limit(monkeypatch, name, d, top):
    # the idempotent laws run, under each limit, on a copy of d that keeps
    # only its own table, made under the default limit
    outcomes, gates = set(), set()
    for limit in _limits(d, top):
        kept = _fresh(d)
        table = fusion_coefficients(kept) if name[:4] != "ones" else None
        token = cyclo.set_conductor_limit(limit)
        try:
            pairs = [_family_routes(d)] + _moved_routes(d)
            if table is not None:
                got, full, held = _idempotent_routes(monkeypatch, kept, table)
                pairs.append((got, full))
                gates.add(held)
        finally:
            cyclo.reset_conductor_limit(token)
        for got, full in pairs:
            assert got == full, limit
            outcomes.add(got[0] if isinstance(got, tuple) else "done")
    # the ones data have no global dimension, and no integral ranks
    assert {"TooLarge", "done"} <= outcomes or name[:4] == "ones"
    # the gate is taken once the limit reaches S's common conductor, which
    # the four-primes sweep stops short of, and is off or not reached below
    if table is not None and top is None:
        assert True in gates and len(gates) > 1


def test_absorption_falls_back_on_a_table_that_is_not_reciprocal(monkeypatch):
    # S and T all ones: every xi_q(b_i) is 1, so the law is multiplicative
    # for any table whose products each have one term, and each p_i is
    # (1/3) sum b_j.  Here b_i b_j = b_0, and N_kj^0 = 1 != N_k0^j* for
    # j != 0: b_k p_i = b_0, not p_i, which only the absorption sums find
    one = cyclo.one(1)
    d = ModularDatum(("0", "1", "2"), "0", (0, 2, 1), ((one,) * 3,) * 3, (one,) * 3)
    t = FusionTable(size=3, coeffs=(((1, 0, 0),) * 3,) * 3)
    assert verify_ring_homomorphisms(d, t)["multiplicative"].passed
    got, full, held = _idempotent_routes(monkeypatch, d, t)
    assert got == full == _outcome(oracles.oracle_verify_idempotent_laws, d, t)
    assert held is False
    assert not got["passed"]
    assert {c["name"]: c.get("witness") for c in got["checks"]}["eigenvalue-absorption"] == [0, 0]


def _dimension_swapping_datum():
    """S = [[1, 1, 2], [1, i, -2i], [2, -2i, 4i]], dimensions 1, 1, 2, and
    t = i off the unit: complex conjugation matches row 1 of its image with
    row 2 of S once each is divided by its dimension, and row 2 with row
    1, so q = 3 swaps labels of dimensions 1 and 2."""
    one, i = cyclo.one(1), root_of_unity(4, 1)
    s = ((one, one, 2 * one), (one, i, -2 * i), (2 * one, -2 * i, 4 * i))
    return ModularDatum(("0", "1", "2"), "0", (0, 1, 2), s, (one, i, i))


def test_moved_entries_fall_back_on_a_permutation_across_dimensions():
    d = _dimension_swapping_datum()
    assert axioms._s_symmetric(d) and basic_stats(d).dims_int == (1, 1, 2)
    assert galois.index_action(d, 3).perm == (0, 2, 1)
    for got, full in _moved_routes(d):
        assert got == full
    got = _outcome(verify_action_laws, _fresh(d))
    assert got == _outcome(oracles.oracle_verify_action_laws, _fresh(d))
    assert got["checks"][0] == {"name": "moves-s-entries", "passed": False,
                                "witness": [3, 0, 1]}


def _all_ones_t(d):
    return ModularDatum(d.labels, d.unit, d.star, d.s_matrix, (cyclo.one(1),) * d.size)


@pytest.mark.parametrize("name,d", [
    ("radford3", _R3),
    ("su2_3", su2_datum(3)),
    # g = 3 with T = 1: w = 3 / sqrt(3) is not a root of unity
    ("radford3-t-ones", _all_ones_t(_R3)),
    ("radford3-s10-at-6", _ASYMMETRIC[0][1]),
], ids=lambda x: x if isinstance(x, str) else "")
def test_family_choices_raise_as_the_per_rank_route(name, d):
    got, full = _family_routes(d)
    assert got == full
    expected = {"su2_3": "NotIntegral", "radford3-t-ones": "ChargeNotRootOfUnity"}
    assert got[0] == expected[name] if name in expected else len(got) == 12


def test_charges_check_the_rank_before_the_charge():
    # 2 is no generalized rank of radford 3 with T = 1, whose charges are
    # no roots of unity for any rank
    d = _all_ones_t(_R3)
    r = extension.enumerate_ranks(d)[0].value
    assert _wire(extension.enumerate_charges, d, r)[0] == "ChargeNotRootOfUnity"
    assert _wire(extension.enumerate_charges, d, 2 * r)[0] == "InvalidExtension"


@pytest.mark.parametrize("degree", [1, 2, 4, 8, 16])
def test_family_choices_fall_back_past_the_inverse_degree_bound(monkeypatch, degree):
    # below the degree of the divisions by -r, ir and -ir their inverses
    # raise TooLarge, and the family does where the per-rank route does
    monkeypatch.setattr(cyclo, "MAX_INVERSE_DEGREE", degree)
    outcomes = set()
    for name, d in _BUILT_IN[:12]:
        got, full = _family_routes(d)
        assert got == full, name
        outcomes.add(got[0] if isinstance(got[0], str) else "family")
    assert outcomes == ({"TooLarge", "family"} if degree < 16 else {"family"})


def test_family_choices_fall_back_under_a_limit_below_the_later_divisions():
    # radford 5 with t_0 stored at 15: g and the first division lie at 15,
    # ir = i sqrt(5) at 20, and the division by it at 60, which a limit
    # from 20 to 59 refuses only there
    t = list(_R5.t_diag)
    t[0] = t[0].lift(15)
    d = ModularDatum(_R5.labels, _R5.unit, _R5.star, _R5.s_matrix, tuple(t))
    for limit in range(1, 62):
        token = cyclo.set_conductor_limit(limit)
        try:
            got, full = _family_routes(d)
        finally:
            cyclo.reset_conductor_limit(token)
        assert got == full, limit
        if limit < 60:
            reached = 15 if limit < 15 else 20 if limit < 20 else 60
            assert got == ("TooLarge", f"conductor {reached} exceeds limit {limit}")
        else:
            assert len(got) == 12


# -- the Verlinde theorem on a datum's own table --------------------------------
#
# On the table fusion_coefficients keeps on a datum, with no violation and
# S symmetric, every evaluation map is multiplicative and every constructed
# idempotent absorbs, so neither law is summed.  The gate is checked
# against the scan, the absorption sums and the oracles; off the gate the
# laws are summed as before.


def _routes_agree(checks):
    return all(got == expected for got, expected in checks)


@pytest.mark.parametrize("name,d", _BUILT_IN, ids=_IDS)
def test_verlinde_theorem_holds_where_the_scan_finds_it(monkeypatch, name, d):
    d = _fresh(d)
    t = fusion_coefficients(d)
    assert fusion._verlinde_laws_hold(d, t)
    # each row of xi lies at a divisor of S's common conductor
    c = linalg.common_conductor(d.s_matrix)
    assert all(c % x.conductor == 0 for row in fusion._xi_matrix(d) for x in row)
    sums = _counting(monkeypatch, fusion, "_sum_is_product")
    checks = _fusion_checks(d, t)
    assert sums == [] and _routes_agree(checks)
    assert fusion._multiplicative_witness(d, t.terms) is None and sums
    monkeypatch.setattr(fusion, "_verlinde_laws_hold", lambda *args: False)
    assert _fusion_checks(d, t) == checks


def test_s_symmetric_in_value_only_takes_the_gate(monkeypatch):
    # radford 5 with s_12 stored at conductor 15: S is compared at its
    # common conductor, and its table and reports are radford 5's
    d = _with_s(_R5, {(1, 2): _R5.s(1, 2).lift(15)})
    assert not axioms._s_symmetric(d)
    t = fusion_coefficients(d)
    assert fusion._verlinde_laws_hold(d, t)
    sums = _counting(monkeypatch, fusion, "_sum_is_product")
    checks = _fusion_checks(d, t)
    assert sums == [] and _routes_agree(checks)
    assert checks == _fusion_checks(_R5, fusion_coefficients(_R5))


def _kept_table(monkeypatch, d):
    """The table fusion_coefficients keeps on d, made with S^2 = nC taken
    as given, for n = 5 of radford 5."""
    with monkeypatch.context() as m:
        m.setattr(fusion, "_global_dimension_from_square", lambda d: (cyclo.from_rational(5), None))
        t = fusion_coefficients(d)
    assert fusion_coefficients(d) is t
    return d, t


def _gate_off_cases(monkeypatch):
    """(name, datum, table) on which the gate is off, each with one of its
    conditions failing."""
    d = _fresh(_R5)
    t = fusion_coefficients(d)
    s = [list(row) for row in _R5.s_matrix]
    s[1], s[2] = s[2], s[1]  # rows of labels 1 and 2 swapped: no longer symmetric
    two = cyclo.from_rational(2)
    # S^2 = 5I, and N_11^1 = (8 - 1/2) / 5 is not an integer
    violating = ModularDatum(("0", "1"), "0", (0, 1), ((cyclo.one(1), two), (two, -cyclo.one(1))),
                             (cyclo.one(1),) * 2)
    return [
        ("equal-table", d, FusionTable(size=t.size, coeffs=t.coeffs, violations=t.violations)),
        ("changed-table", d, _changed(t, 2, 4, 3, True)),
        ("violations", violating, fusion_coefficients(violating)),
        ("star-not-involution", *_kept_table(
            monkeypatch, ModularDatum(_R5.labels, _R5.unit, (0, 2, 3, 4, 1), _R5.s_matrix, _R5.t_diag))),
        ("asymmetric-s", *_kept_table(
            monkeypatch, ModularDatum(_R5.labels, _R5.unit, _R5.star, tuple(map(tuple, s)), _R5.t_diag))),
    ]


def test_gate_is_off_where_a_condition_of_the_theorem_fails(monkeypatch):
    cases = _gate_off_cases(monkeypatch)
    # only the violations case has violations
    assert [bool(t.violations) for _, _, t in cases] == [False, False, True, False, False]
    for name, d, t in cases:
        assert not fusion._verlinde_laws_hold(d, t), name
        assert _routes_agree(_fusion_checks(d, t)), name


def test_gate_is_off_under_a_limit_below_a_row_of_xi():
    # radford3-lifted: rows of xi at 3, 15 and 21, and S at 105, of which
    # each is a divisor; its table kept from the default limit, the laws
    # checked under each lower one
    d = _fresh(_LIMIT_DATA[0][1])
    t = fusion_coefficients(d)
    xi = fusion._xi_matrix(d)
    assert [lcm(*[x.conductor for x in row]) for row in xi] == [3, 15, 21]
    taken = []
    for limit in range(1, 106):
        token = cyclo.set_conductor_limit(limit)
        try:
            taken.append(fusion._verlinde_laws_hold(d, t))
            assert _routes_agree(_fusion_checks(d, t)), limit
        finally:
            cyclo.reset_conductor_limit(token)
    assert taken == [False] * 104 + [True]
