"""Galois actions on integral modular data.

The unit group modulo the normalized exponent acts on the index set by
matching rows of the dimension-normalized Verlinde matrix.  On top of
that action sit the fusion symbol (the 1-cocycle of the Gaussian sum),
its full law suite, the sign analysis for odd exponents, and the
divisibility relations between the exponent and the global dimension.
"""

from __future__ import annotations

from math import gcd, lcm

from . import cyclo, linalg
from .axioms import _axioms_1_to_4, _gauss_sum_inverse, _s_at_common_conductor
from .cyclo import CycloNum
from .datum import DatumStats, ModularDatum, basic_stats, derived
from .errors import (
    BadInversePair,
    EvenExponent,
    NotAUnit,
    NotGalois,
    NotIntegral,
    NotRootOfUnity,
    NoUniqueMatch,
    SignMismatch,
    TooLarge,
)
from .report import CheckReport, Frozen


class GaloisPermutation(Frozen):
    """Index permutation induced by the unit q."""

    __match_args__ = ("q", "perm")

    def __init__(self, q: int, perm: tuple):
        self.__dict__.update(q=q, perm=perm)

    def matrix(self, conductor: int = 1) -> tuple:
        return perm_matrix(self.perm, conductor)


def perm_matrix(perm, conductor: int = 1) -> tuple:
    """Permutation matrix with entry 1 at (perm[j], j)."""
    m = len(perm)
    one = cyclo.one(conductor)
    z = cyclo.zero(conductor)
    return tuple(
        tuple(one if i == perm[j] else z for j in range(m)) for i in range(m)
    )


class FusionSymbolTable(Frozen):
    """Values of the fusion symbol per residue class; zero off the units."""

    __match_args__ = ("modulus", "values")

    def __init__(self, modulus: int, values: dict):
        self.__dict__.update(modulus=modulus, values=values)


# Most coefficients that the images of S or of the Gauss sum under all
# units may hold, checked before the first image is made: radford 49,
# the largest generated datum, needs 4.2 * 10^6 for S.
MAX_IMAGE_COEFFICIENTS = 10**7


def units_mod(m: int):
    return [q for q in range(m) if gcd(q, m) == 1]


def _bounded_images(what: str, n: int, per_unit: int) -> list:
    """The units modulo n, for a walk that makes an image of what, of
    per_unit coefficients, under each; TooLarge over
    MAX_IMAGE_COEFFICIENTS in all."""
    units = units_mod(n)
    total = len(units) * per_unit
    if total > MAX_IMAGE_COEFFICIENTS:
        raise TooLarge(
            f"the images of {what} under the {len(units)} units modulo {n} "
            f"hold {total} coefficients; the bound is {MAX_IMAGE_COEFFICIENTS}"
        )
    return units


def _unit_generators(n: int) -> list:
    """1 % n, then each unit modulo n, in increasing order, outside the
    subgroup generated by those before it.  A law f(qr) = f(q) o f(r)
    that holds for each generator q and every r holds for every q, by
    induction on q as a word in them; as each unit is a word in the
    generators up to it, the first pair (q, r) of units in row-major
    order at which such a law fails has a generator q."""
    gens, group = [1 % n], {1 % n}
    for u in units_mod(n):
        if u not in group:
            gens.append(u)
            frontier = group
            while frontier:
                frontier = {x * u % n for x in frontier} - group
                group |= frontier
    return gens


def unit_lift(q: int, n: int, m: int) -> int:
    """A representative of q mod n that is a unit mod m, for n | m.

    Exists because the unit groups surject along divisors; found by a
    short scan of the arithmetic progression q + k*n.
    """
    q %= n
    cand = q
    for _ in range(m // n + 2):
        if gcd(cand, m) == 1:
            return cand
        cand += n if n > 0 else 1
    raise NotAUnit(f"no unit lift of {q} mod {n} to modulus {m}")


def sigma(x: CycloNum, q: int, level: int) -> CycloNum:
    """Apply the level-th automorphism z -> z^q to x, however x is stored.

    x must lie in the field of the given level; its stored conductor may
    be larger or coprime in part, so q is first lifted to a unit modulo
    the lcm of both.
    """
    if gcd(q, level) != 1:
        raise NotAUnit(f"{q} is not a unit modulo {level}")
    common = lcm(x.conductor, level)
    lifted = unit_lift(q, level, common)
    return cyclo.galois_apply(x.lift(common), lifted)


def _require_integral(d: ModularDatum) -> DatumStats:
    stats = basic_stats(d)
    if not stats.integral:
        raise NotIntegral("operation requires an integral datum")
    return stats


def _normalized_keys(d: ModularDatum, s) -> tuple:
    """Keys of the rows s_ik / n_i of a matrix s whose entries share one
    conductor; n_i is the integer dimension of label i.  A row of
    dimension 1 is its own normalized row, in canonical form."""
    dims = basic_stats(d).dims_int
    return linalg.mat_key([row if n == 1 else [x / n for x in row]
                           for row, n in zip(s, dims)])


@derived
def _row_lookup(d: ModularDatum) -> dict:
    """The lookup from the key of each normalized row s_ik / n_i of S at
    its common conductor C to the indices of the rows that have it."""
    lookup = {}
    for i, key in enumerate(_normalized_keys(d, _s_at_common_conductor(d)[1])):
        lookup.setdefault(key, []).append(i)
    return lookup


def _s_image(d: ModularDatum, q: int) -> tuple:
    """S at C under the automorphism z -> z^q of Q(zeta_N_o), for
    0 <= q < N_o a unit: q lifted to a unit modulo lcm(C, N_o) and read
    modulo C, the automorphism index_action matches rows by.  Each
    distinct entry of S at C is moved once."""
    n_o = basic_stats(d).N_o
    c, s, _ = _s_at_common_conductor(d)
    u = unit_lift(q, n_o, lcm(c, n_o)) % c
    if u == 1 % c:
        return s
    distinct = {(x.den, x.nums): x for row in s for x in row}
    images = {key: cyclo.galois_apply(x, u) for key, x in distinct.items()}
    return tuple(tuple(images[x.den, x.nums] for x in row) for row in s)


def _action_units(d: ModularDatum) -> list:
    """The units modulo N_o, for a walk that makes the image of S under
    each: m^2 phi(C) coefficients, none when C <= 2 and every unit fixes
    S."""
    c = _s_at_common_conductor(d)[0]
    per_unit = d.size ** 2 * cyclo.euler_phi(c) if c > 2 else 0
    return _bounded_images("S", basic_stats(d).N_o, per_unit)


def index_action(d: ModularDatum, q: int) -> GaloisPermutation:
    """The permutation sending each row of the normalized Verlinde matrix
    to its image under the automorphism z -> z^q.

    Fails with NoUniqueMatch when zero or several rows match, which
    signals a corrupted or non-integral datum.
    """
    n_o = _require_integral(d).N_o
    if gcd(q, n_o) != 1:
        raise NotAUnit(f"{q} is not a unit modulo {n_o}")
    return _index_action(d, q % n_o)[0]


@derived
def _index_action(d: ModularDatum, q: int) -> tuple:
    """(the permutation of q, the first pair at which the image of S
    under q is not moved by it, see _first_moved).  The image is made
    once, here, and not kept; it is scanned only where the permutation
    moves some label to one of another dimension, or S at C is not
    symmetric."""
    lookup, image = _row_lookup(d), _s_image(d, q)
    perm = []
    for i, key in enumerate(_normalized_keys(d, image)):
        matches = lookup.get(key, [])
        if len(matches) != 1:
            raise NoUniqueMatch(
                f"row {i} has {len(matches)} matches under q={q}"
            )
        perm.append(matches[0])
    # row i of the image and row p(i) of S have one key once divided by
    # n_i and n_p(i); where those are equal, so are the rows, and with S
    # symmetric, its image is too, so image_ij = s_p(j)i = s_i,p(j)
    dims = basic_stats(d).dims_int
    if _s_at_common_conductor(d)[2] and all(dims[j] == n for j, n in zip(perm, dims)):
        moved = None
    else:
        moved = _first_moved(d, image, perm)
    return GaloisPermutation(q=q, perm=tuple(perm)), moved


def _first_moved(d: ModularDatum, image, perm) -> tuple | None:
    """The first (i, j) in row-major order at which an image of S is not
    S with its rows, or its columns, moved by perm, or None."""
    s = _s_at_common_conductor(d)[1]
    return next(((i, j) for i, row in enumerate(image) for j, x in enumerate(row)
                 if x != s[perm[i]][j] or x != s[i][perm[j]]), None)


def verify_action_laws(d: ModularDatum) -> CheckReport:
    """For every unit q: the action moves S-entries by rows and columns,
    preserves dimensions, fixes the unit, commutes with the involution,
    and its permutation matrix conjugates S to its inverse image and
    commutes with the conjugation matrix; the action of -1 is the
    involution itself."""
    stats = _require_integral(d)
    n_o = stats.N_o
    units = _action_units(d)
    rep = CheckReport("galois-action-laws")
    m = d.size
    o = d.o
    _, s, symmetric = _s_at_common_conductor(d)
    perms = {q: index_action(d, q) for q in units}

    # the first pair at which each image of S fails is kept with the
    # permutation it was found for; a permutation that index_action did
    # not take from there is checked on a new image
    w = None
    for q, gp in perms.items():
        try:
            recorded, moved = _index_action(d, q)
        except NoUniqueMatch:
            recorded = None
        if recorded != gp:
            moved = _first_moved(d, _s_image(d, q), gp.perm)
        if moved is not None:
            w = (q, *moved)
            break
    rep.add("moves-s-entries", w is None, w)

    w = next(
        (
            (q, i)
            for q, gp in perms.items()
            for i in range(m)
            if stats.dims[gp.perm[i]] != stats.dims[i]
        ),
        None,
    )
    rep.add("preserves-dimensions", w is None, w)
    w = next((q for q, gp in perms.items() if gp.perm[o] != o), None)
    rep.add("fixes-unit", w is None, w)
    # each unit whose action does not commute with star, with the first
    # label where it fails
    unstarred = {}
    for q, gp in perms.items():
        i = next((i for i in range(m) if gp.perm[d.star[i]] != d.star[gp.perm[i]]),
                 None)
        if i is not None:
            unstarred[q] = i
    w = next(iter(unstarred.items()), None)
    rep.add("commutes-with-star", w is None, w)

    # P[i][j] = 1 iff i = p(j), so S P = P^T S iff s_i,p(j) = s_p(i),j,
    # which is symmetric in (i, j) with S; and P C = C P iff
    # p^-1 star = star p^-1, that is iff p commutes with star
    w = next((
        q for q, gp in perms.items()
        if q in unstarred
        or any(s[i][gp.perm[j]] != s[gp.perm[i]][j]
               for i in range(m) for j in range(i if symmetric else 0, m))
    ), None)
    rep.add("permutation-matrix-relations", w is None, w)

    gamma = perms[(-1) % n_o]
    rep.add(
        "conjugation-is-star",
        gamma.perm == d.star,
        None if gamma.perm == d.star else gamma.perm,
    )

    w = next(((q, r) for q in _unit_generators(n_o) for r in perms
              if tuple(perms[q].perm[perms[r].perm[i]] for i in range(m))
              != perms[(q * r) % n_o].perm), None)
    rep.add("action-multiplicative", w is None, w)
    return rep


@derived
def is_galois_datum(d: ModularDatum):
    """Whether d is a valid integral datum whose Dehn entries transform
    by the squared automorphism along the induced index action, for
    every unit modulo the exponent.

    Being Galois presupposes being a modular datum, so the axioms that
    do not need the fusion table are checked first (integrality of the
    fusion coefficients is left to validate_axioms).  Returns
    (True, None), or (False, witness) where the witness is either the
    name of a failed axiom or the offending (q, i) pair.
    """
    stats = _require_integral(d)
    failed = next((name for name, ok, *_ in _axioms_1_to_4(d) if not ok), None)
    if failed is not None:
        return False, failed
    # t_i = z_N^e_i, as basic_stats found every order to divide N; so
    # t_p(i) = sigma_q^2(t_i) iff e_p(i) = q^2 e_i mod N
    n_exp = stats.N
    exps = [a * (n_exp // o) for o, a in map(cyclo.root_of_unity_exponent, d.t_diag)]
    _action_units(d)  # index_action below makes one image per unit mod N_o
    for q in units_mod(n_exp):
        perm = index_action(d, q).perm
        for i, e in enumerate(exps):
            if (exps[perm[i]] - q * q * e) % n_exp:
                return False, (q, i)
    return True, None


@derived
def _gauss_images(d: ModularDatum) -> dict:
    """sigma_q(g) for each unit q modulo the exponent N, of phi(lcm(c_g, N))
    coefficients each."""
    stats = basic_stats(d)
    phi = cyclo.euler_phi(lcm(stats.g.conductor, stats.N))
    units = _bounded_images("the Gauss sum", stats.N, phi)
    return {q: sigma(stats.g, q, stats.N) for q in units}


@derived
def _fusion_symbols(d: ModularDatum) -> tuple:
    """sigma_q(g) / g for each residue q modulo the exponent N, zero off
    the units.  The one inverse of g per datum, taken before the images,
    so that a g over the degree bound raises before any sigma_q runs."""
    stats = basic_stats(d)
    g_inv = _gauss_sum_inverse(d)
    images = _gauss_images(d)
    return tuple(
        images[q] * g_inv if q in images else cyclo.zero(1)
        for q in range(stats.N)
    )


def fusion_symbol(d: ModularDatum, q: int) -> CycloNum:
    """sigma_q of the Gaussian sum divided by the Gaussian sum; zero when
    q shares a factor with the exponent."""
    n_exp = _require_integral(d).N
    if gcd(q, n_exp) != 1:
        return cyclo.zero(1)
    return _fusion_symbols(d)[q % n_exp]


def fusion_symbol_table(d: ModularDatum) -> FusionSymbolTable:
    n_exp = _require_integral(d).N
    return FusionSymbolTable(modulus=n_exp, values=dict(enumerate(_fusion_symbols(d))))


def fusion_symbol_analysis(d: ModularDatum) -> CheckReport:
    """Cocycle law, root-of-unity powers, the character criterion against
    the sign relation of the two Gaussian sums, and the sharpened twelfth
    power plus 24th power of t_o in the Galois case."""
    stats = _require_integral(d)
    rep = CheckReport("fusion-symbol-analysis")
    n_exp = stats.N
    f = _fusion_symbols(d)
    us = units_mod(n_exp)
    # f(q) = h_q / g for h_q = sigma_q(g); as g lies in Q(zeta_N), where
    # sigma_q is one automorphism whatever lift of q it takes,
    # f(qr) = f(q) sigma_q(f(r)) iff h_qr = sigma_q(h_r), and
    # f(-1) = g' / g iff h_-1 = g'
    h = _gauss_images(d)

    w = next(((q, r) for q in _unit_generators(n_exp) for r in us
              if h[(q * r) % n_exp] != sigma(h[r], q, n_exp)), None)
    rep.add("cocycle-law", w is None, w)
    rep.add("value-at-one", f[1 % n_exp] == 1)
    rep.add("inverse-value", h[(-1) % n_exp] == stats.g_rec)

    w = next((q for q in us if f[q] ** (2 * n_exp) != 1), None)
    rep.add("power-2N", w is None, w)
    if n_exp % 2 == 0:
        w = next((q for q in us if f[q] ** n_exp != 1), None)
        rep.add("power-N", w is None, w)

    # the cocycle law holds on Q(zeta_N), so f(qr) = f(q) f(r) for all
    # q, r iff every sigma_q fixes every f(r), that is iff each f(r) is
    # rational
    is_character = all(cyclo.is_rational(f[r]) is not None for r in us)
    sign_related = stats.g_rec == stats.g or stats.g_rec == -stats.g
    rep.add(
        "character-iff-sign-relation",
        is_character == sign_related,
        value=is_character,
    )
    if is_character:
        w = next((q for q in us if f[q] != 1 and f[q] != -1), None)
        rep.add("character-values-are-signs", w is None, w)

    galois_ok, _ = is_galois_datum(d)
    if galois_ok:
        w = next((q for q in us if f[q] ** 12 != 1), None)
        rep.add("twelfth-power", w is None, w)
        rep.add("t_o-24th-power", stats.t_o ** 24 == 1)
    return rep


def definition_of_24_check(x: CycloNum) -> bool:
    """Whether x is fixed by every squared automorphism of its order's
    cyclotomic field: x = z_o^a, a a unit mod o, is fixed by z -> z^(q^2)
    iff q^2 = 1 mod o, which holds for every unit q iff o divides 24."""
    hit = cyclo.root_of_unity_exponent(x)
    if hit is None:
        raise NotRootOfUnity("input is not a root of unity")
    return 24 % hit[0] == 0


def verlinde_field_index(d: ModularDatum) -> int:
    """Number of units modulo the normalized exponent whose automorphism
    fixes every Verlinde entry; equals the degree of the cyclotomic field
    over the field the entries generate.

    Asserts that the count is a power of two in the Galois case, and
    that the exponent divides 24 when the entries are all rational.
    """
    stats = _require_integral(d)
    units = _action_units(d)
    # index_action matches each row of the image of S with the row of S
    # of the same normalized key, so it is the identity iff the image is S
    count = sum(index_action(d, q).perm == tuple(range(d.size)) for q in units)
    galois_ok, _ = is_galois_datum(d)
    if galois_ok:
        if count & (count - 1):
            raise NotGalois(
                f"field index {count} is not a power of two"
            )
        if count == len(units) and stats.N and 24 % stats.N != 0:
            raise NotGalois(
                f"rational Verlinde entries but exponent {stats.N} "
                "does not divide 24"
            )
    return count


def d_matrix(q: int, r: int):
    """The word s t^r s^-1 t^q s t^r in the generators of the modular
    group, in closed form [[q, qr-1], [1-qr, r(2-qr)]]; relact_check
    evaluates its image S T^r S^-1 T^q S T^r."""
    return ((q, q * r - 1), (1 - q * r, r * (2 - q * r)))


def relact_check(d: ModularDatum, q: int, q_prime: int) -> CheckReport:
    """Exact matrix identity for the word S T^q' S^-1 T^q S T^q' of a
    Galois datum with q q' inverse modulo the exponent, plus the
    two-sided twisted sum identity that holds for any valid datum."""
    stats = _require_integral(d)
    n_exp = stats.N
    galois_ok, witness = is_galois_datum(d)
    if not galois_ok:
        raise NotGalois(f"datum is not Galois: witness {witness}")
    if (q * q_prime) % n_exp != 1 % n_exp:
        raise BadInversePair(
            f"{q} * {q_prime} is not 1 modulo the exponent {n_exp}"
        )
    rep = CheckReport("inverse-pair-word-identity")
    m = d.size

    t_pow_q = [d.t(i) ** q for i in range(m)]
    t_pow_qp = [d.t(i) ** q_prime for i in range(m)]
    s = d.s_matrix
    # S^-1 = S C / n, and S C permutes the columns of S by star
    s_c = tuple(tuple(row[d.star[j]] for j in range(m)) for row in s)
    s_inv = linalg.mat_scale(s_c, stats.n.inverse())
    word = linalg.mat_mul_diag(s, t_pow_qp)
    word = linalg.mat_mul(word, s_inv)
    word = linalg.mat_mul_diag(word, t_pow_q)
    word = linalg.mat_mul(word, s)
    word = linalg.mat_mul_diag(word, t_pow_qp)

    perm_inv = index_action(d, q_prime)
    scalar = (
        (stats.t_o ** (2 * q)) * sigma(stats.g, q, n_exp) / stats.n_o
    )
    rhs = linalg.mat_scale(perm_inv.matrix(), scalar)
    rep.add("word-equals-scaled-permutation", linalg.mat_eq(word, rhs))

    # g (C S T^-2 S^T)_ij = g' (t_i t_j / t_o^4) (S T^2 S^T)_ij, where
    # (C S)_ik = s_i*k
    t_sq = [d.t(k) ** 2 for k in range(m)]
    t_negsq = [x.inverse() for x in t_sq]
    t_o4 = stats.t_o ** 4
    s_t = tuple(zip(*s))
    c_s = tuple(s[d.star[i]] for i in range(m))
    lhs = linalg.mat_mul(linalg.mat_mul_diag(c_s, t_negsq), s_t)
    rhs_sum = linalg.mat_mul(linalg.mat_mul_diag(s, t_sq), s_t)
    w = next(((i, j) for i in range(m) for j in range(m)
              if stats.g * lhs[i][j] * t_o4
              != stats.g_rec * d.t(i) * d.t(j) * rhs_sum[i][j]), None)
    rep.add("twisted-sum-identity", w is None, w)
    return rep


def odd_sign_analysis(d: ModularDatum) -> CheckReport:
    """For odd exponent: the sign v with g = v t_o^2 g'; equal to
    (-1)^((n-1)/2) when the global dimension is odd too; and, in the
    normalized case, the fusion symbol agrees with the Jacobi symbol and
    the Gaussian sum with the classical one up to sign."""
    stats = _require_integral(d)
    if stats.N % 2 == 0:
        raise EvenExponent(f"exponent {stats.N} is even")
    rep = CheckReport("odd-exponent-sign")
    rhs = stats.t_o * stats.t_o * stats.g_rec
    if stats.g == rhs:
        v = 1
    elif stats.g == -rhs:
        v = -1
    else:
        raise SignMismatch(
            "Gaussian sum is not +- t_o^2 times the reciprocal sum"
        )
    rep.add("sign-determined", True, value=v)
    n_int = stats.n_int
    if n_int is not None and n_int % 2 == 1:
        expected = 1 if n_int % 4 == 1 else -1
        rep.add("sign-matches-dimension-residue", v == expected, value=v)
        if stats.normalized:
            # the symbol has period N and (q|n) period n; the units modulo
            # lcm(N, n) and N n have the same primes, so the first failing
            # unit is below lcm(N, n)
            symbols = _fusion_symbols(d)
            w = next((q for q in units_mod(lcm(stats.N, n_int))
                      if symbols[q % stats.N] != cyclo.jacobi_symbol(q, n_int)), None)
            rep.add("fusion-symbol-is-jacobi", w is None, w)
            classical = cyclo.gauss_sum(n_int)
            rep.add(
                "gauss-sum-is-classical-up-to-sign",
                stats.g == classical or stats.g == -classical,
            )
    return rep


def arithmetic_divisibility_checks(
    d: ModularDatum, galois_projective_congruence: bool = False
) -> CheckReport:
    """Odd primes dividing the global dimension an odd number of times
    divide the exponent; when the datum is a Galois projective congruence
    datum (flag supplied by the caller) and n is 2 mod 4, the exponent is
    divisible by 4.  The sharper residue-8 statement and the squared-sign
    relation are reported as data, never asserted."""
    stats = _require_integral(d)
    rep = CheckReport("divisibility")
    n_int = stats.n_int
    w = next(
        (
            p
            for p, e in cyclo.factorize(n_int)
            if p % 2 == 1 and e % 2 == 1 and stats.N % p != 0
        ),
        None,
    )
    rep.add("odd-prime-divides-exponent", w is None, w)
    if galois_projective_congruence and n_int % 4 == 2:
        rep.add("exponent-divisible-by-4", stats.N % 4 == 0, value=stats.N)
    conjecture = {
        "applies": bool(galois_projective_congruence and n_int % 4 == 2),
        "exponent_is_4_mod_8": stats.N % 8 == 4,
        "squared_sign_relation": stats.g ** 2
        == -(stats.t_o ** 4) * stats.g_rec ** 2,
    }
    rep.add("open-residue-8-statement", True, value=conjecture)
    return rep
