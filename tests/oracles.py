"""Independent oracles used by the test suite.

These recompute expected values by routes that do not share code with
the implementations they check, or, for the congruence search and
level, the central charges, the fusion-ring and Galois law checks and
the Kronecker product, by the exhaustive, dense or entry-by-entry route
that the fast path replaces.

Seven of them do share the sum-of-products kernel with the routes they
check.  oracle_verlinde_rows, oracle_verify_ring_homomorphisms,
oracle_factor_check and oracle_global_dimension_from_square sum through
linalg.mat_mul, and so does oracle_axioms_1_to_4 for S T S and, through
oracle_global_dimension_from_square, for S^2; oracle_verlinde_triples
sums through cyclo.Lifted.  oracle_verify_idempotent_laws sums through
fusion.multiply and fusion.xi_evaluate.  All seven so run
cyclo._sum_terms and the limit check of cyclo.Lifted.at.  That kernel
is compared with the left fold of * and + in tests/test_dot.py.

The laws that a symmetric S lets the library decide on the pairs j >= i
(S^2, axiom 4, the images of S and the scans over them), the Verlinde
sums it skips for triples holding the unit, and the extension family it
decides on exponents keep their full routes here: every entry, every
unordered triple and every CycloNum comparison.  So do the charges of
the twelve extensions, which the library reads for three of the four
ranks off the first rank's exponent: oracle_family_choices divides once
per rank.
"""

import json
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

from moddata import axioms, cli, cyclo, extension, fusion, galois, linalg
from moddata.constructors import (
    classical_gauss_sum,
    radford_datum,
    semion_datum,
    su2_datum,
    trivial_datum,
)
from moddata.cyclo import root_of_unity
from moddata.datum import ModularDatum, basic_stats, kronecker_product
from moddata.errors import (
    BadInversePair,
    EvenExponent,
    InvalidDatum,
    NoUniqueMatch,
    NotAUnit,
    NotGalois,
    SchemaError,
    SignMismatch,
)
from moddata.extension import (
    CongruenceReport,
    Witness,
    extension_family,
    factor_check,
    homogeneous_matrices,
)
from moddata.report import CheckReport


def built_in_data():
    """(name, datum) for each built-in datum the differential tests run
    over: every Galois conjugate of radford 3 to 9, radford 11, the
    products semion x semion and radford 3 x semion, SU(2)_k for k <= 6,
    whose fusion products have up to k/2 + 1 terms where every other
    datum here has one, and radford 3 x semion with its unit moved last."""
    data = [("trivial", trivial_datum()), ("semion", semion_datum())]
    for n in (3, 5, 7, 9):
        data += [
            (f"radford{n}^{e}", radford_datum(n, e))
            for e in range(1, n)
            if gcd(e, n) == 1
        ]
    data.append(("radford11", radford_datum(11)))
    data.append(("semion2", kronecker_product(semion_datum(), semion_datum())))
    product = kronecker_product(radford_datum(3), semion_datum())
    data.append(("radford3*semion", product))
    data += [(f"su2_{k}", su2_datum(k)) for k in range(1, 7)]
    # every other datum here has its unit at index 0
    data.append(("radford3*semion-unit-last", unit_last(product)))
    return data


def unit_last(d):
    """d with its labels reordered so that the unit is the last one."""
    order = [i for i in range(d.size) if i != d.o] + [d.o]
    where = {old: new for new, old in enumerate(order)}
    return ModularDatum(
        labels=tuple(d.labels[i] for i in order),
        unit=d.unit,
        star=tuple(where[d.star[i]] for i in order),
        s_matrix=tuple(tuple(d.s_matrix[i][j] for j in order) for i in order),
        t_diag=tuple(d.t_diag[i] for i in order),
    )


def oracle_cyclic_datum(n):
    """Recompute S and T of the cyclic datum from the R-matrix
    (1/n) sum z^(-ij) g^i (x) g^j by direct summation: S from the
    characters of the double braiding, T from the inverse of the
    canonical central element, inverted honestly in the group algebra."""
    zeta = [root_of_unity(n, k % n) for k in range(n)]

    # R'R as an n x n coefficient array over (g^p, g^q)
    coeff = [[cyclo.zero(n) for _ in range(n)] for _ in range(n)]
    inv_n2 = cyclo.rational(1, n * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    p = (j + k) % n
                    q = (i + l) % n
                    coeff[p][q] = coeff[p][q] + zeta[(-i * j - k * l) % n] * inv_n2

    def char_pair(a, b):
        acc = cyclo.zero(n)
        for p in range(n):
            for q in range(n):
                if not coeff[p][q].is_zero():
                    acc = acc + coeff[p][q] * zeta[(a * p + b * q) % n]
        return acc

    s = [[char_pair(a, (-b) % n) for b in range(n)] for a in range(n)]

    # u = sum over the R-matrix of antipode(second leg) * first leg
    u = [cyclo.zero(n) for _ in range(n)]
    inv_n = cyclo.rational(1, n)
    for i in range(n):
        for j in range(n):
            u[(i - j) % n] = u[(i - j) % n] + zeta[(-i * j) % n] * inv_n
    # invert u in the group algebra by solving the convolution system
    conv = tuple(
        tuple(u[(p - m) % n] for m in range(n)) for p in range(n)
    )
    inv_matrix = linalg.mat_inverse(conv)
    u_inv = [inv_matrix[p][0] for p in range(n)]

    def char_of(a, vec):
        acc = cyclo.zero(n)
        for m in range(n):
            if not vec[m].is_zero():
                acc = acc + vec[m] * zeta[(a * m) % n]
        return acc

    t = [char_of(a, u_inv) for a in range(n)]
    return s, t


def oracle_dot(xs, ys):
    """x0 * y0 + x1 * y1 + ... as the left fold of * and +; zero(1) when
    empty."""
    pairs = list(zip(xs, ys))
    if not pairs:
        return cyclo.zero(1)
    acc = pairs[0][0] * pairs[0][1]
    for x, y in pairs[1:]:
        acc = acc + x * y
    return acc


def oracle_mat_mul(a, b):
    """The matrix product, each entry the left fold over the inner index."""
    return tuple(
        tuple(oracle_dot(row, [b[k][j] for k in range(len(b))])
              for j in range(len(b[0])))
        for row in a
    )


def perm_matrix(perm):
    """The permutation matrix with entry 1 at (perm[j], j)."""
    one, zero = cyclo.one(1), cyclo.zero(1)
    return tuple(
        tuple(one if i == p else zero for p in perm) for i in range(len(perm))
    )


def transpose(a):
    return tuple(zip(*a))


def oracle_multiply(x, y, t):
    """Coefficient k of the fusion product: (x_i y_j) N_ij^k added to
    zero(1) over the nonzero x_i and y_j, in (i, j) order."""
    m = t.size
    out = [cyclo.zero(1) for _ in range(m)]
    for i in range(m):
        if x.coeffs[i].is_zero():
            continue
        for j in range(m):
            if y.coeffs[j].is_zero():
                continue
            prod = x.coeffs[i] * y.coeffs[j]
            for k in range(m):
                if t.coeffs[i][j][k]:
                    out[k] = out[k] + prod * t.coeffs[i][j][k]
    return out


def oracle_gauss_sum(n, q=1):
    """The quadratic Gauss sum as n separate additions of z^(q i^2)."""
    acc = root_of_unity(n, 0)
    for i in range(1, n):
        acc = acc + root_of_unity(n, (q * i * i) % n)
    return acc


@lru_cache(maxsize=None)
def oracle_cayley_data(modulus):
    """The Cayley graph of SL(2, Z/modulus) over s and t, built whole by a
    breadth-first search from the identity, s before t: the elements in
    discovery order, every (element, generator, target) edge in that
    order, and the (parent, letter) each element was first reached from."""
    gens = ((0, -1, 1, 0), (1, 1, 0, 1))

    def mul(a, b):
        return tuple(
            (a[2 * i] * b[j] + a[2 * i + 1] * b[2 + j]) % modulus
            for i in range(2)
            for j in range(2)
        )

    identity = (1 % modulus, 0, 0, 1 % modulus)
    index = {identity: 0}
    elements = [identity]
    parents = [(-1, "")]
    edges = []
    queue = deque([0])
    while queue:
        gi = queue.popleft()
        for gen_idx, x in enumerate(gens):
            h = mul(elements[gi], x)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
                parents.append((gi, "st"[gen_idx]))
                queue.append(index[h])
            edges.append((gi, gen_idx, index[h]))
    return tuple(elements), tuple(edges), tuple(parents)


def oracle_factor_check(s_mat, t_mat, modulus, mode="linear"):
    """factor_check in two passes: the whole Cayley graph first, then every
    element assigned the matrix of its defining word along the stored
    edges in order, each later edge compared with the assignment it
    meets.  Projective mode compares matrices scaled so that their first
    nonzero entry is one.  The first disagreeing edge is the witness."""
    projective = mode == "projective"
    elements, edges, parents = oracle_cayley_data(modulus)
    conductor = lcm(linalg.common_conductor(s_mat), linalg.common_conductor(t_mat))
    gens = (linalg.mat_lift(s_mat, conductor), linalg.mat_lift(t_mat, conductor))

    def normal(mat):
        if projective:
            pivot = next(x for row in mat for x in row if not x.is_zero())
            mat = linalg.mat_scale(mat, pivot.inverse())
        return mat

    # distinct matrices are kept once, and each edge compares their indices
    matrices = []
    index = {}
    products = {}

    def intern(mat):
        key = tuple((x.conductor, x.den, x.nums) for row in mat for x in row)
        if key not in index:
            index[key] = len(matrices)
            matrices.append(mat)
        return index[key]

    assigned = {0: intern(normal(linalg.mat_identity(len(s_mat), conductor)))}
    for gi, gen_idx, hi in edges:
        k = (assigned[gi], gen_idx)
        if k not in products:
            products[k] = intern(normal(linalg.mat_mul(matrices[k[0]], gens[gen_idx])))
        computed = products[k]
        held = assigned.setdefault(hi, computed)
        if held != computed:
            word, idx = "st"[gen_idx], gi
            while idx > 0:
                idx, letter = parents[idx]
                word = letter + word
            witness = Witness(
                element=elements[hi],
                word=word,
                assigned=matrices[held],
                computed=matrices[computed],
            )
            return CongruenceReport(
                modulus=modulus,
                linear_factors=None if projective else False,
                projective_factors=False if projective else None,
                witness=witness,
            )
    return CongruenceReport(
        modulus=modulus,
        linear_factors=None if projective else True,
        projective_factors=True,
    )


def oracle_lift_search(d, modulus):
    """The extensions of d whose homogeneous matrices factor linearly at
    the modulus, by one exhaustive Cayley-graph check per extension."""
    survivors = []
    for e in extension_family(d):
        s_prime, t_prime = homogeneous_matrices(e)
        if factor_check(s_prime, t_prime, modulus, "linear").linear_factors:
            survivors.append(e)
    return survivors


def oracle_congruence_classify(e):
    """(modulus, projective, congruence, minimal_level) of an extension by
    one search per level: projective and linear at the normalized
    exponent N_o, then linear at each divisor L of 24 N_o in ascending
    order until one factors, skipping the L with T'^L != I, which cannot
    be levels because t^L = I modulo L."""
    d = e.datum
    n_o = basic_stats(d).N_o
    projective = factor_check(
        d.s_matrix, linalg.diag_matrix(d.t_diag), n_o, "projective"
    ).projective_factors
    s_prime, t_prime = homogeneous_matrices(e)
    congruence = factor_check(s_prime, t_prime, n_o, "linear").linear_factors
    t_diag = [t_prime[i][i] for i in range(d.size)]
    minimal = None
    for level in cyclo.divisors(24 * n_o):
        if any(t ** level != 1 for t in t_diag):
            continue
        if factor_check(s_prime, t_prime, level, "linear").linear_factors:
            minimal = level
            break
    return n_o, bool(projective), bool(congruence), minimal


def oracle_additive_charge(e):
    """The c in 0..23 with ell = root_of_unity(24, c), by a scan over the
    24th roots of unity, or None when ell is not one of them."""
    if e.charge ** 24 != 1:
        return None
    return next(k for k in range(24) if e.charge == root_of_unity(24, k))


def oracle_enumerate_charges(d, rank):
    """The cube roots of g / (n_o t_o D) by exhaustive search through
    +-z^j over the 3 ord(w)-th roots of unity, in the order met."""
    stats = basic_stats(d)
    w = stats.g / (stats.n_o * stats.t_o * rank)
    bound = 3 * cyclo.root_of_unity_order(w)
    found = []
    for j in range(bound):
        for candidate in (root_of_unity(bound, j), -root_of_unity(bound, j)):
            if candidate ** 3 == w and all(candidate != c for c in found):
                found.append(candidate)
    return found


def oracle_family_choices(d):
    """extension._family_choices with the charges of each rank that
    extension.enumerate_ranks lists made by enumerate_charges, one
    division of g / (n_o t_o D) per rank, in family order."""
    return tuple(
        (option.value, charge, option.is_rank)
        for option in extension.enumerate_ranks(d)
        for charge in extension.enumerate_charges(d, option.value)
    )


# -- the fusion-ring and Galois law checks by dense arithmetic ----------------
#
# Each law is checked as it is stated: associativity and the idempotent
# laws by products over the full table, the homomorphisms by one matrix
# product per basis element, and the permutation-matrix relations on the
# permutation matrices themselves.


def oracle_global_dimension_from_square(d):
    """axioms._global_dimension_from_square with all of S^2 made by one
    linalg.mat_mul, whether S is symmetric or not.  Entries off the
    star-diagonal are compared with zero at their own conductors, and
    those on it with n as rationals when n is rational."""
    m = d.size
    s2 = linalg.mat_mul(d.s_matrix, d.s_matrix)
    n = s2[d.o][d.star[d.o]]
    for i in range(m):
        for k in range(m):
            x = s2[i][k]
            if k != d.star[i]:
                equal = x.is_zero()
            elif cyclo.is_rational(n) is not None:
                equal = cyclo.is_rational(x) == cyclo.is_rational(n)
            else:
                equal = x == n
            if not equal:
                return None, (i, k, x)
    if n.is_zero():
        return None, ("n", "zero")
    return n, None


def oracle_axioms_1_to_4(d):
    """axioms._axioms_1_to_4 with S^2 made in full and axiom 4 checked
    entry by entry on every (i, j): S T S by one matrix product, then
    g s_ij t_o^2 against n_o t_i t_j (S T S)_ij for each (i, j) in turn,
    five products per entry."""
    rep = CheckReport("axioms")
    m = d.size
    o = d.o
    rep.add("structure-star-involution",
            all(d.star[d.star[i]] == i for i in range(m)))
    w = next(((i, j) for i in range(m) for j in range(i + 1, m)
              if d.s(i, j) != d.s(j, i)), None)
    rep.add("axiom1-s-symmetric", w is None, w)
    w = next((i for i, t in enumerate(d.t_diag)
              if cyclo.root_of_unity_order(t) is None), None)
    rep.add("axiom1-t-finite-order", w is None, w)
    w = next((i for i in range(m) if d.t(d.star[i]) != d.t(i)), None)
    rep.add("axiom2-t-star-invariant", w is None, w)
    w = next((i for i in range(m) if d.s(i, o).is_zero()), None)
    rep.add("axiom2-dimensions-nonzero", w is None, w)
    rep.add("axiom2-unit-self-dual", d.star[o] == o)
    n, witness3 = oracle_global_dimension_from_square(d)
    rep.add("axiom3-s-squared", n is not None, witness3, value=n)
    if any(t.is_zero() for t in d.t_diag):
        rep.add("axiom4-proportionality", False, "T is not invertible")
    else:
        dims = [d.s(i, o) for i in range(m)]
        g = cyclo.zero(1)
        for i in range(m):
            g = g + dims[i] * dims[i] * d.t(i)
        n_o = dims[o]
        t_o2 = d.t(o) * d.t(o)
        sts = linalg.mat_mul(linalg.mat_mul_diag(d.s_matrix, d.t_diag), d.s_matrix)
        w = next(((i, j) for i in range(m) for j in range(m)
                  if g * d.s(i, j) * t_o2 != n_o * d.t(i) * d.t(j) * sts[i][j]),
                 None)
        rep.add("axiom4-proportionality", w is None, w, value=g)
    return tuple((c.name, c.passed, c.witness, c.value) for c in rep.checks)


def oracle_pow(x, k):
    """x ** k by repeated squaring, through the inverse for k < 0."""
    if k < 0:
        return oracle_pow(x.inverse(), -k)
    result = cyclo.one(x.conductor)
    base = x
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def oracle_verlinde_rows(d):
    """fusion.fusion_coefficients with all m^3 sums made as one matrix
    product: row (i, j) holds s_il s_jl / (s_ol n) over l, and column k
    holds s_k*l.  Its TooLarge names the first (i, j, k) whose sum would
    raise it."""
    n, witness = oracle_global_dimension_from_square(d)
    if n is None:
        raise InvalidDatum(f"no global dimension: witness {witness}")
    m = d.size
    s = d.s_matrix
    o = d.o
    if any(s[o][l].is_zero() for l in range(m)):
        raise InvalidDatum("unit row of S has a zero entry")
    weights = [(s[o][l] * n).inverse() for l in range(m)]
    sw = [[s[j][l] * weights[l] for l in range(m)] for j in range(m)]
    partial = tuple(tuple(s[i][l] * sw[j][l] for l in range(m))
                    for i in range(m) for j in range(m))
    dual = tuple(tuple(s[d.star[k]][l] for k in range(m)) for l in range(m))
    sums = linalg.mat_mul(partial, dual)
    violations = []
    coeffs = tuple(
        tuple(tuple(_as_coefficient(sums[i * m + j][k], (i, j, k), violations)
                    for k in range(m)) for j in range(m))
        for i in range(m)
    )
    return fusion.FusionTable(size=m, coeffs=coeffs, violations=tuple(violations))


def oracle_verlinde_triples(d):
    """fusion.fusion_coefficients with every unordered triple summed, the
    triples holding the unit too, in the same order and at the same
    conductors: its TooLarge is the one the sums raise under any limit."""
    n, witness = oracle_global_dimension_from_square(d)
    if n is None:
        raise InvalidDatum(f"no global dimension: witness {witness}")
    m = d.size
    o = d.o
    s = d.s_matrix
    if any(s[o][l].is_zero() for l in range(m)):
        raise InvalidDatum("unit row of S has a zero entry")
    weights = [(s[o][l] * n).inverse() for l in range(m)]
    sw = [[s[j][l] * weights[l] for l in range(m)] for j in range(m)]
    rows = [cyclo.Lifted(row) for row in s]
    sums = {}
    for a, b in combinations_with_replacement(range(m), 2):
        pab = cyclo.Lifted([s[a][l] * sw[b][l] for l in range(m)])
        for c in range(b, m):
            mc = lcm(pab.conductor, rows[c].conductor)
            sums[a, b, c] = cyclo._lifted_dot(mc, pab.at(mc), rows[c].at(mc))
    violations = []
    coeffs = tuple(
        tuple(tuple(_as_coefficient(sums[tuple(sorted((i, j, d.star[k])))],
                                    (i, j, k), violations)
                    for k in range(m)) for j in range(m))
        for i in range(m)
    )
    return fusion.FusionTable(size=m, coeffs=coeffs, violations=tuple(violations))


def _as_coefficient(value, entry, violations):
    as_int = cyclo.is_integer(value)
    if as_int is None or as_int < 0:
        violations.append((*entry, value))
        return 0
    return as_int


def oracle_fusion_coefficients(d):
    """fusion.fusion_coefficients with each N_ij^k folded on its own from
    the Verlinde formula, sum over l of s_il s_jl s_k*l / s_ol, and then
    divided by the global dimension n."""
    n, witness = fusion._global_dimension_from_square(d)
    if n is None:
        raise InvalidDatum(f"no global dimension: witness {witness}")
    m = d.size
    s = d.s_matrix
    o = d.o
    if any(s[o][l].is_zero() for l in range(m)):
        raise InvalidDatum("unit row of S has a zero entry")
    n_inv = n.inverse()
    weights = [s[o][l].inverse() for l in range(m)]
    violations = []
    coeffs = tuple(
        tuple(tuple(_verlinde_entry(s, weights, n_inv, d.star, i, j, k, violations)
                    for k in range(m)) for j in range(m))
        for i in range(m)
    )
    return fusion.FusionTable(size=m, coeffs=coeffs, violations=tuple(violations))


def _verlinde_entry(s, weights, n_inv, star, i, j, k, violations):
    acc = cyclo.zero(1)
    for l in range(len(s)):
        acc = acc + s[i][l] * (s[j][l] * weights[l]) * s[star[k]][l]
    value = acc * n_inv
    as_int = cyclo.is_integer(value)
    if as_int is None or as_int < 0:
        violations.append((i, j, k, value))
        return 0
    return as_int


def oracle_verify_invariants(t):
    """FusionTable.verify_invariants with associativity as the O(m^5) sum
    over every k of N_ij^k N_kl^p against N_jl^k N_ik^p."""
    rep = CheckReport("fusion-table")
    m = t.size
    rep.add("no-integrality-violations", not t.violations,
            t.violations[:8] or None)
    w = next(
        ((i, j) for i in range(m) for j in range(i + 1, m)
         if t.coeffs[i][j] != t.coeffs[j][i]),
        None,
    )
    rep.add("commutative", w is None, w)
    w = next(
        ((i, j, k) for i in range(m) for j in range(m) for k in range(m)
         if t.coeff(i, j, k) < 0),
        None,
    )
    rep.add("nonnegative", w is None, w)
    w = next(
        (
            (i, j, l, p)
            for i in range(m)
            for j in range(m)
            for l in range(m)
            for p in range(m)
            if sum(t.coeff(i, j, k) * t.coeff(k, l, p) for k in range(m))
            != sum(t.coeff(j, l, k) * t.coeff(i, k, p) for k in range(m))
        ),
        None,
    )
    rep.add("associative", w is None, w)
    return rep


def oracle_verify_ring_homomorphisms(d, t):
    """verify_ring_homomorphisms with sum_k N_ij^k xi_q(b_k) taken from
    the matrix product of the table plane i with the evaluation matrix."""
    rep = CheckReport("fusion-homomorphisms")
    m = d.size
    xi = fusion._xi_matrix(d)
    xi_t = transpose(xi)
    sums = [
        linalg.mat_mul(
            tuple(
                tuple(cyclo.from_rational(nijk) for nijk in t.coeffs[i][j])
                for j in range(m)
            ),
            xi_t,
        )
        for i in range(m)
    ]
    w = next(
        ((q, i, j) for q in range(m) for i in range(m) for j in range(m)
         if sums[i][j][q] != xi[q][i] * xi[q][j]),
        None,
    )
    rep.add("multiplicative", w is None, w)
    w = next(
        ((q, r) for q in range(m) for r in range(q + 1, m)
         if all(xi[q][i] == xi[r][i] for i in range(m))),
        None,
    )
    rep.add("maps-pairwise-distinct", w is None, w)
    w = next(
        ((i, j) for i in range(m) for j in range(i + 1, m)
         if all(xi[q][i] == xi[q][j] for q in range(m))),
        None,
    )
    rep.add("basis-separated", w is None, w)
    return rep


def oracle_verify_idempotent_laws(d, t):
    """verify_idempotent_laws with every law checked on the products
    themselves, each multiplied out by fusion.multiply."""
    rep = CheckReport("idempotent-laws")
    m = d.size
    o = d.o
    stats = basic_stats(d)
    ps = fusion.idempotents(d, t)
    w = next((i for i in range(m) if fusion.multiply(ps[i], ps[i], t) != ps[i]), None)
    rep.add("idempotent", w is None, w)
    w = next(
        ((i, j) for i in range(m) for j in range(m)
         if i != j and not fusion.multiply(ps[i], ps[j], t).is_zero()),
        None,
    )
    rep.add("orthogonal", w is None, w)
    total = ps[0]
    for p in ps[1:]:
        total = total + p
    rep.add("partition-of-unity", total == fusion.basis_element(m, o))
    w = next(
        ((i, j) for i in range(m) for j in range(m)
         if fusion.xi_evaluate(d, j, ps[i]) != (1 if i == j else 0)),
        None,
    )
    rep.add("dual-to-evaluations", w is None, w)
    xi = fusion._xi_matrix(d)
    w = next(
        ((k, i) for k in range(m) for i in range(m)
         if fusion.multiply(fusion.basis_element(m, k), ps[i], t)
         != ps[i].scale(xi[i][k])),
        None,
    )
    rep.add("eigenvalue-absorption", w is None, w)
    n_o_inv = stats.n_o.inverse()
    w = next(
        (k for k in range(m)
         if fusion.multiply(fusion.basis_element(m, k), ps[o], t)
         != ps[o].scale(stats.dims[k] * n_o_inv)),
        None,
    )
    rep.add("unit-idempotent-dimensions", w is None, w)
    return rep


def oracle_verify_action_laws(d):
    """galois.verify_action_laws with the permutation-matrix relations
    checked as S P = P^T S and P C = C P on the matrices themselves.  The
    permutations come from galois.index_action, looked up on each call."""
    stats = galois._require_integral(d)
    rep = CheckReport("galois-action-laws")
    m = d.size
    o = d.o
    n_o = stats.N_o
    c = perm_matrix(d.star)
    perms = {q: galois.index_action(d, q) for q in galois.units_mod(n_o)}
    w = next(
        ((q, i, j) for q, gp in perms.items() for i in range(m) for j in range(m)
         if (img := galois.sigma(d.s(i, j), q, n_o)) != d.s(gp.perm[i], j)
         or img != d.s(i, gp.perm[j])),
        None,
    )
    rep.add("moves-s-entries", w is None, w)
    w = next(
        ((q, i) for q, gp in perms.items() for i in range(m)
         if stats.dims[gp.perm[i]] != stats.dims[i]),
        None,
    )
    rep.add("preserves-dimensions", w is None, w)
    w = next((q for q, gp in perms.items() if gp.perm[o] != o), None)
    rep.add("fixes-unit", w is None, w)
    w = next(
        ((q, i) for q, gp in perms.items() for i in range(m)
         if gp.perm[d.star[i]] != d.star[gp.perm[i]]),
        None,
    )
    rep.add("commutes-with-star", w is None, w)
    w = next(
        (
            q
            for q, gp in perms.items()
            if not linalg.mat_eq(
                linalg.mat_mul(d.s_matrix, gp.matrix()),
                linalg.mat_mul(transpose(gp.matrix()), d.s_matrix),
            )
            or not linalg.mat_eq(
                linalg.mat_mul(gp.matrix(), c), linalg.mat_mul(c, gp.matrix())
            )
        ),
        None,
    )
    rep.add("permutation-matrix-relations", w is None, w)
    gamma = perms[(-1) % n_o] if n_o > 1 else perms[0]
    rep.add(
        "conjugation-is-star",
        gamma.perm == d.star,
        None if gamma.perm == d.star else gamma.perm,
    )
    w = next(
        ((q, r) for q in perms for r in perms
         if tuple(perms[q].perm[perms[r].perm[i]] for i in range(m))
         != perms[(q * r) % n_o if n_o > 1 else 0].perm),
        None,
    )
    rep.add("action-multiplicative", w is None, w)
    return rep


def oracle_s_image(d, q):
    """galois._s_image with each of the m^2 entries of S at C moved on
    its own."""
    n_o = basic_stats(d).N_o
    c = linalg.common_conductor(d.s_matrix)
    u = galois.unit_lift(q, n_o, lcm(c, n_o)) % c
    return tuple(tuple(cyclo.galois_apply(x.lift(c), u) for x in row)
                 for row in d.s_matrix)


def oracle_index_action(d, q):
    """galois.index_action with every normalized row lifted to
    lcm(C, N_o), for C the common conductor of S, and each entry moved
    there by one lift of q, recomputed on every call."""
    n_o = galois._require_integral(d).N_o
    if gcd(q, n_o) != 1:
        raise NotAUnit(f"{q} is not a unit modulo {n_o}")
    q %= n_o
    m = d.size
    conductor = lcm(linalg.common_conductor(d.s_matrix), n_o)
    rows = [
        [(d.s(i, k) * d.s(i, d.o).inverse()).lift(conductor) for k in range(m)]
        for i in range(m)
    ]
    lookup = {}
    for j, key in enumerate(linalg.mat_key(rows)):
        lookup.setdefault(key, []).append(j)
    lifted = galois.unit_lift(q, n_o, conductor)
    images = linalg.mat_key(
        [[cyclo.galois_apply(x, lifted) for x in row] for row in rows]
    )
    perm = []
    for i, image in enumerate(images):
        matches = lookup.get(image, [])
        if len(matches) != 1:
            raise NoUniqueMatch(f"row {i} has {len(matches)} matches under q={q}")
        perm.append(matches[0])
    if sorted(perm) != list(range(m)):
        raise NoUniqueMatch("matched rows do not form a permutation")
    return galois.GaloisPermutation(q=q, perm=tuple(perm))


def oracle_is_galois_datum(d):
    """galois.is_galois_datum with the twist condition checked by
    galois.sigma on each Dehn entry instead of by exponents; the axioms
    are galois._axioms_1_to_4, looked up on each call."""
    stats = galois._require_integral(d)
    failed = next((name for name, ok, *_ in galois._axioms_1_to_4(d) if not ok), None)
    if failed is not None:
        return False, failed
    n_exp = stats.N
    for q in galois.units_mod(n_exp):
        perm = oracle_index_action(d, q).perm
        for i in range(d.size):
            if d.t(perm[i]) != galois.sigma(d.t(i), (q * q) % n_exp, n_exp):
                return False, (q, i)
    return True, None


def oracle_verlinde_field_index(d):
    """galois.verlinde_field_index with every entry of S moved by
    galois.sigma on its own, for every unit modulo N_o."""
    stats = galois._require_integral(d)
    n_o = stats.N_o
    m = d.size
    count = 0
    for q in galois.units_mod(n_o):
        identity_perm = oracle_index_action(d, q).perm == tuple(range(m))
        fixes_entries = all(
            galois.sigma(d.s(i, j), q, n_o) == d.s(i, j)
            for i in range(m)
            for j in range(m)
        )
        if identity_perm != fixes_entries:
            raise NoUniqueMatch(f"identity action and entry fixing disagree at q={q}")
        count += fixes_entries
    if oracle_is_galois_datum(d)[0]:
        if count & (count - 1):
            raise NotGalois(f"field index {count} is not a power of two")
        if count == len(galois.units_mod(n_o)) and 24 % stats.N != 0:
            raise NotGalois(
                f"rational Verlinde entries but exponent {stats.N} does not divide 24"
            )
    return count


def oracle_fusion_symbol_analysis(d):
    """galois.fusion_symbol_analysis with the cocycle law checked as
    f(qr) = f(q) sigma_q(f(r)), one product per pair of units; the
    inverse value as f(-1) = g' / g; and the character test as
    f(qr) = f(q) f(r) over all pairs.  The symbols come from
    galois._fusion_symbols, looked up on each call."""
    stats = galois._require_integral(d)
    rep = CheckReport("fusion-symbol-analysis")
    n_exp = stats.N
    f = galois._fusion_symbols(d)
    us = galois.units_mod(n_exp)
    w = next(((q, r) for q in us for r in us
              if f[(q * r) % n_exp] != f[q] * galois.sigma(f[r], q, n_exp)), None)
    rep.add("cocycle-law", w is None, w)
    rep.add("value-at-one", f[1 % n_exp] == 1)
    rep.add("inverse-value", f[(-1) % n_exp] == stats.g_rec / stats.g)
    w = next((q for q in us if f[q] ** (2 * n_exp) != 1), None)
    rep.add("power-2N", w is None, w)
    if n_exp % 2 == 0:
        w = next((q for q in us if f[q] ** n_exp != 1), None)
        rep.add("power-N", w is None, w)
    is_character = all(f[(q * r) % n_exp] == f[q] * f[r] for q in us for r in us)
    sign_related = stats.g_rec == stats.g or stats.g_rec == -stats.g
    rep.add(
        "character-iff-sign-relation",
        is_character == sign_related,
        value=is_character,
    )
    if is_character:
        w = next((q for q in us if f[q] != 1 and f[q] != -1), None)
        rep.add("character-values-are-signs", w is None, w)
    if galois.is_galois_datum(d)[0]:
        w = next((q for q in us if f[q] ** 12 != 1), None)
        rep.add("twelfth-power", w is None, w)
        rep.add("t_o-24th-power", stats.t_o ** 24 == 1)
    return rep


def oracle_relact_check(d, q, q_prime):
    """galois.relact_check with the twisted sums folded entry by entry,
    a triple loop over (i, j, k); galois.is_galois_datum is looked up on
    each call."""
    stats = galois._require_integral(d)
    n_exp = stats.N
    galois_ok, witness = galois.is_galois_datum(d)
    if not galois_ok:
        raise NotGalois(f"datum is not Galois: witness {witness}")
    if (q * q_prime) % n_exp != 1 % n_exp:
        raise BadInversePair(f"{q} * {q_prime} is not 1 modulo the exponent {n_exp}")
    rep = CheckReport("inverse-pair-word-identity")
    m = d.size
    s = d.s_matrix
    t_q = linalg.diag_matrix([d.t(i) ** q for i in range(m)])
    t_qp = linalg.diag_matrix([d.t(i) ** q_prime for i in range(m)])
    s_inv = linalg.mat_scale(oracle_mat_mul(s, perm_matrix(d.star)), stats.n.inverse())
    word = t_qp
    for factor in (s, t_q, s_inv, t_qp, s):
        word = oracle_mat_mul(factor, word)
    scalar = stats.t_o ** (2 * q) * galois.sigma(stats.g, q, n_exp) / stats.n_o
    rhs = linalg.mat_scale(galois.index_action(d, q_prime).matrix(), scalar)
    rep.add("word-equals-scaled-permutation", linalg.mat_eq(word, rhs))
    t_sq = [d.t(k) ** 2 for k in range(m)]
    t_negsq = [x.inverse() for x in t_sq]
    t_o4 = stats.t_o ** 4
    w = None
    for i in range(m):
        for j in range(m):
            lhs = cyclo.zero(1)
            rhs = cyclo.zero(1)
            for k in range(m):
                lhs = lhs + s[d.star[i]][k] * s[j][k] * t_negsq[k]
                rhs = rhs + s[i][k] * s[j][k] * t_sq[k]
            if stats.g * lhs * t_o4 != stats.g_rec * d.t(i) * d.t(j) * rhs:
                w = (i, j)
                break
        if w:
            break
    rep.add("twisted-sum-identity", w is None, w)
    return rep


def oracle_odd_sign_analysis(d):
    """galois.odd_sign_analysis with the fusion symbol compared with the
    Jacobi symbol over every unit modulo N n, and the Gauss sum with
    constructors.classical_gauss_sum; the symbols come from
    galois._fusion_symbols, looked up on each call."""
    stats = galois._require_integral(d)
    if stats.N % 2 == 0:
        raise EvenExponent(f"exponent {stats.N} is even")
    rep = CheckReport("odd-exponent-sign")
    rhs = stats.t_o * stats.t_o * stats.g_rec
    if stats.g == rhs:
        v = 1
    elif stats.g == -rhs:
        v = -1
    else:
        raise SignMismatch("Gaussian sum is not +- t_o^2 times the reciprocal sum")
    rep.add("sign-determined", True, value=v)
    n_int = stats.n_int
    if n_int is not None and n_int % 2 == 1:
        expected = 1 if n_int % 4 == 1 else -1
        rep.add("sign-matches-dimension-residue", v == expected, value=v)
        if stats.normalized:
            symbols = galois._fusion_symbols(d)
            w = next((q for q in galois.units_mod(stats.N * n_int)
                      if symbols[q % stats.N] != cyclo.jacobi_symbol(q, n_int)), None)
            rep.add("fusion-symbol-is-jacobi", w is None, w)
            classical = classical_gauss_sum(n_int)
            rep.add(
                "gauss-sum-is-classical-up-to-sign",
                stats.g == classical or stats.g == -classical,
            )
    return rep


def oracle_power_identity_check(d):
    """axioms.power_identity_check with the powers taken of g / g', g'
    inverted on each call."""
    stats = basic_stats(d)
    rep = CheckReport("power-identities")
    ratio = stats.g / stats.g_rec
    rep.add("ratio-power-2Nm", ratio ** (2 * stats.N * d.size) == 1)
    if stats.integral:
        rep.add("ratio-power-2N", ratio ** (2 * stats.N) == 1)
        if stats.N % 2 == 0:
            rep.add("ratio-power-N", ratio ** stats.N == 1)
    return rep


def oracle_verify_structural_identities(d):
    """axioms.verify_structural_identities with C S = S C and C T = T C
    checked on the matrices themselves: the conjugation matrix, diag(T)
    and four matrix products."""
    axioms.require_valid(d)
    rep = CheckReport("structural-identities")
    m = d.size
    o = d.o
    star = d.star
    stats = basic_stats(d)
    w = next(
        ((i, j) for i in range(m) for j in range(m)
         if d.s(star[i], star[j]) != d.s(i, j)),
        None,
    )
    rep.add("s-star-symmetry", w is None, w)
    w = next((j for j in range(m) if d.dim(star[j]) != d.dim(j)), None)
    rep.add("dims-star-invariant", w is None, w)
    c = perm_matrix(d.star)
    rep.add(
        "c-commutes-with-s",
        linalg.mat_eq(linalg.mat_mul(c, d.s_matrix),
                      linalg.mat_mul(d.s_matrix, c)),
    )
    t_mat = linalg.diag_matrix(d.t_diag)
    rep.add(
        "c-commutes-with-t",
        linalg.mat_eq(linalg.mat_mul(c, t_mat), linalg.mat_mul(t_mat, c)),
    )
    table = fusion.fusion_coefficients(d)
    w = next(
        ((i, j) for i in range(m) for j in range(m)
         if table.coeff(o, i, j) != (1 if i == j else 0)
         or table.coeff(i, o, j) != (1 if i == j else 0)
         or table.coeff(i, j, o) != (1 if star[i] == j else 0)),
        None,
    )
    rep.add("unit-row-and-duality", w is None, w)
    w = next(
        ((i, j) for i in range(m) for j in range(m)
         if d.s(i, j) * d.t(i) * d.t(j) != stats.t_o * sum(
             (table.coeff(i, k, j) * stats.dims[k] * d.t(k) for k in range(m)),
             cyclo.zero(1),
         )),
        None,
    )
    rep.add("s-from-fusion-table", w is None, w)
    rep.add(
        "gauss-product",
        stats.g * stats.g_rec == stats.n * stats.n_o * stats.n_o,
        value=stats.g,
    )
    return rep


# -- dense-Fraction cyclotomic arithmetic ------------------------------------
#
# An element at conductor m is a list of phi(m) Fractions on the power basis
# 1, z, ..., z^(phi-1).  Phi_m comes from the Moebius product formula, every
# product is reduced by long division, and the inverse solves the linear
# system of multiplication by the element.  No step shares code with
# moddata.cyclo.


def _mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _dense_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _long_division(a, b):
    """Quotient and remainder of a by b (b's top coefficient nonzero)."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        if not c:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            if bj:
                a[i + j] -= c * bj
    return q, a[: len(b) - 1]


@lru_cache(maxsize=None)
def oracle_cyclotomic(m):
    """Phi_m = prod over d | m of (x^d - 1)^mu(m/d), low degree first."""
    num, den = [Fraction(1)], [Fraction(1)]
    for d in range(1, m + 1):
        mu = _mobius(m // d) if m % d == 0 else 0
        factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
        if mu == 1:
            num = _dense_mul(num, factor)
        elif mu == -1:
            den = _dense_mul(den, factor)
    quot, rem = _long_division(num, den)
    assert not any(rem)
    return tuple(quot)


def oracle_reduce(poly, m):
    """Coordinates of the polynomial poly(z) at conductor m."""
    phi_m = oracle_cyclotomic(m)
    phi = len(phi_m) - 1
    if len(poly) <= phi:
        return [Fraction(c) for c in poly] + [Fraction(0)] * (phi - len(poly))
    return _long_division(poly, phi_m)[1]


def oracle_mul(a, b, m):
    return oracle_reduce(_dense_mul(a, b), m)


def _monomial_map(a, target, exponent):
    """sum a_i z_target^(exponent * i), reduced at the target conductor."""
    poly = [Fraction(0)] * target
    for i, c in enumerate(a):
        poly[exponent * i % target] += c
    return oracle_reduce(poly, target)


def oracle_lift(a, m, target):
    return _monomial_map(a, target, target // m)


def oracle_galois(a, m, q):
    return _monomial_map(a, m, q % m)


def oracle_inverse(a, m):
    """Solve (a * x) = 1 by Gaussian elimination on the matrix whose
    column j holds a * z^j."""
    phi = len(a)
    columns = [
        oracle_mul(a, [Fraction(0)] * j + [Fraction(1)], m) for j in range(phi)
    ]
    rows = [
        [columns[j][i] for j in range(phi)] + [Fraction(1 if i == 0 else 0)]
        for i in range(phi)
    ]
    for col in range(phi):
        pivot = next(r for r in range(col, phi) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(phi):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[phi] for row in rows]


def oracle_to_json(a, m):
    return {"conductor": m, "coeffs": [str(c) for c in a]}


def oracle_common(a, m, b, n):
    """Both operands at the conductor lcm(m, n)."""
    k = lcm(m, n)
    return oracle_lift(a, m, k), oracle_lift(b, n, k), k


def oracle_serialize_datum_text(d):
    """The wire text as the standard library prints the whole datum."""
    return json.dumps(cli.serialize_datum(d), indent=2) + "\n"


def oracle_datum_from_obj(obj, path="$"):
    """datum_from_obj with every scalar node read afresh, in document
    order, by cli._cyclo_from_node."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "datum must be a JSON object")
    for key in ("labels", "unit", "star", "S", "T"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required field")
    labels = obj["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or any(not isinstance(x, str) for x in labels)
    ):
        raise SchemaError(f"{path}.labels", "must be a nonempty list of strings")
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{path}.labels", "labels must be distinct")
    m = len(labels)
    unit = obj["unit"]
    if unit not in labels:
        raise SchemaError(f"{path}.unit", f"unit {unit!r} is not a label")
    star_map = obj["star"]
    if not isinstance(star_map, dict):
        raise SchemaError(f"{path}.star", "must map labels to labels")
    index = {lab: i for i, lab in enumerate(labels)}
    star = []
    for lab in labels:
        target = star_map.get(lab)
        if not isinstance(target, str) or target not in index:
            raise SchemaError(
                f"{path}.star.{lab}", f"maps to unknown label {target!r}"
            )
        star.append(index[target])
    for i in range(m):
        if star[star[i]] != i:
            raise SchemaError(f"{path}.star", "star is not an involution")
    s_rows = obj["S"]
    if not isinstance(s_rows, list) or len(s_rows) != m:
        raise SchemaError(f"{path}.S", f"must be a {m}x{m} matrix")
    s_matrix = []
    for i, row in enumerate(s_rows):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError(f"{path}.S[{i}]", f"must have {m} entries")
        s_matrix.append(
            tuple(
                cli._cyclo_from_node(x, f"{path}.S[{i}][{j}]")
                for j, x in enumerate(row)
            )
        )
    t_row = obj["T"]
    if not isinstance(t_row, list) or len(t_row) != m:
        raise SchemaError(f"{path}.T", f"must have {m} entries")
    t_diag = tuple(
        cli._cyclo_from_node(x, f"{path}.T[{i}]") for i, x in enumerate(t_row)
    )
    return ModularDatum(
        labels=tuple(labels),
        unit=unit,
        star=tuple(star),
        s_matrix=tuple(s_matrix),
        t_diag=t_diag,
    )


def oracle_kronecker_product(d1, d2):
    """kronecker_product with one product per entry, in row-major order,
    S before T."""
    axioms.require_valid(d1)
    axioms.require_valid(d2)
    m1, m2 = d1.size, d2.size
    return ModularDatum(
        labels=tuple(f"({a},{b})" for a in d1.labels for b in d2.labels),
        unit=f"({d1.unit},{d2.unit})",
        star=tuple(
            d1.star[i] * m2 + d2.star[j] for i in range(m1) for j in range(m2)
        ),
        s_matrix=tuple(
            tuple(
                d1.s(i1, j1) * d2.s(i2, j2)
                for j1 in range(m1)
                for j2 in range(m2)
            )
            for i1 in range(m1)
            for i2 in range(m2)
        ),
        t_diag=tuple(
            d1.t(i1) * d2.t(i2) for i1 in range(m1) for i2 in range(m2)
        ),
    )


# -- the extension family by value -------------------------------------------


def oracle_extension_family_check(d):
    """analysis.extension_family_check by CycloNum arithmetic: each
    member's charge divided by the first's, its 12th and 3rd powers, and
    each of the twelve twists of the first member looked up by value
    among the members of extension.extension_family."""
    rep = CheckReport("extension-family")
    family = extension_family(d)
    rep.add("family-size-twelve", len(family) == 12, value=len(family))
    base = family[0]
    w = None
    for idx, other in enumerate(family):
        zeta = other.charge / base.charge
        if zeta ** 12 != 1 or other.rank * zeta ** 3 != base.rank:
            w = idx
            break
    rep.add("related-by-twelfth-roots", w is None, w)
    w = None
    for k in range(12):
        zeta = root_of_unity(12, k)
        rank, charge = base.rank / zeta ** 3, zeta * base.charge
        if not any(e.rank == rank and e.charge == charge for e in family):
            w = k
            break
    rep.add("closed-under-twisting", w is None, w)
    return rep


def oracle_first_moved(d, image, perm):
    """galois._first_moved by a row-major scan of all m^2 entries."""
    c = linalg.common_conductor(d.s_matrix)
    s = linalg.mat_lift(d.s_matrix, c)
    m = d.size
    return next(((i, j) for i in range(m) for j in range(m)
                 if image[i][j] != s[perm[i]][j] or image[i][j] != s[i][perm[j]]),
                None)
