"""Fusion rings from the Verlinde formula.

The structure constants N_ij^k are evaluated exactly from the Verlinde
expression; integrality is decided by exact rationality testing, never
by rounding.  The ring comes with its evaluation homomorphisms, the
canonical central element built from the duality, and the primitive
idempotents, each with a full law-verification suite.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import lcm

from . import cyclo, linalg
from .axioms import _global_dimension_from_square, _s_at_common_conductor, _s_symmetric
from .cyclo import CycloNum
from .datum import ModularDatum, basic_stats, derived, kept
from .errors import DimensionMismatch, InvalidDatum
from .report import CheckReport, Frozen


class FusionTable(Frozen):
    """Structure constants N_ij^k as nonnegative integers.

    Entries that failed the integrality test are listed in violations as
    (i, j, k, exact_value) and stored as 0 in the integer array.  terms
    holds the same table sparsely: terms[i][j] lists the nonzero
    (k, N_ij^k) by increasing k.
    """

    __match_args__ = ("size", "coeffs", "violations")

    def __init__(self, size: int, coeffs: tuple, violations: tuple = ()):
        terms = tuple(tuple(
            tuple((k, n) for k, n in enumerate(row) if n) for row in plane
        ) for plane in coeffs)
        self.__dict__.update(size=size, coeffs=coeffs, violations=violations,
                             terms=terms)

    def coeff(self, i: int, j: int, k: int) -> int:
        return self.coeffs[i][j][k]

    def verify_invariants(self) -> CheckReport:
        """Integrality, commutativity, nonnegativity and associativity of
        the table.  The unit row and duality need the datum; they are
        checked by the structural-identity suite."""
        rep = CheckReport("fusion-table")
        m = self.size
        terms = self.terms
        rep.add("no-integrality-violations", not self.violations,
                self.violations[:8] or None)
        w = None
        for i in range(m):
            for j in range(i + 1, m):
                if self.coeffs[i][j] != self.coeffs[j][i]:
                    w = (i, j)
                    break
            if w:
                break
        rep.add("commutative", w is None, w)
        w = next(
            (
                (i, j, k)
                for i in range(m)
                for j in range(m)
                for k, n in terms[i][j]
                if n < 0
            ),
            None,
        )
        rep.add("nonnegative", w is None, w)
        # (b_i b_j) b_l against b_i (b_j b_l), each a sparse integer sum
        w = None
        for i, j, l in product(range(m), repeat=3):
            lhs, rhs = [0] * m, [0] * m
            for k, a in terms[i][j]:
                for p, b in terms[k][l]:
                    lhs[p] += a * b
            for k, a in terms[j][l]:
                for p, b in terms[i][k]:
                    rhs[p] += a * b
            if lhs != rhs:
                w = (i, j, l, next(p for p in range(m) if lhs[p] != rhs[p]))
                break
        rep.add("associative", w is None, w)
        return rep


def _sum_is_product(terms, u: cyclo.Lifted, v: cyclo.Lifted, a: int, b: int) -> bool:
    """Whether the sum of n u_k over the sparse terms (k, n) is v_a u_b:
    one kernel sum of the difference, over the vectors lifted once, at
    the lcm conductor of the entries it involves."""
    m = lcm(v.xs[a].conductor, u.xs[b].conductor,
            *[u.xs[k].conductor for k, _ in terms])
    us, vs = u.at(m), v.at(m)
    diff = [(us[k], cyclo._ONE, n) for k, n in terms if us[k]]
    if vs[a] and us[b]:
        diff.append((vs[a], us[b], -1))
    return not cyclo._sum_terms(m, diff)


class FusionElement(Frozen):
    """Element of the fusion ring over cyclotomic scalars, in the basis
    indexed by the datum labels."""

    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        self.__dict__["coeffs"] = coeffs

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, FusionElement):
            return NotImplemented
        if other.size != self.size:
            raise DimensionMismatch("fusion elements of different sizes")
        return FusionElement(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "FusionElement":
        return FusionElement(tuple(a * c for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def basis_element(m: int, i: int) -> FusionElement:
    return FusionElement(
        tuple(cyclo.one(1) if j == i else cyclo.zero(1) for j in range(m))
    )


@derived
def fusion_coefficients(d: ModularDatum) -> FusionTable:
    """Evaluate every N_ij^k exactly from the Verlinde expression.

    Entries that are not nonnegative integers are collected as
    violations; the caller decides whether that is fatal.
    """
    n, witness = _global_dimension_from_square(d)
    if n is None:
        raise InvalidDatum(f"no global dimension: witness {witness}")
    m = d.size
    o = d.o
    star = d.star
    s = d.s_matrix
    if any(s[o][l].is_zero() for l in range(m)):
        raise InvalidDatum("unit row of S has a zero entry")
    # N_ij^k = F(i, j, k*) for F(a, b, c) = sum over l of s_al s_bl s_cl
    # / (s_ol n), which is symmetric in a, b, c and so is made once for
    # each a <= b <= c, as one sum over l of p[a, b][l] s_cl, where
    # p[a, b][l] = s_al sw[b][l] and sw[b][l] = s_bl / (s_ol n).  Its
    # conductor, the lcm of those of rows a, b and c of S and of the
    # weights, is symmetric too, and is the lcm of the conductors of
    # p[a, b] and of row c of S.  TooLarge names the first of these
    # conductors over the limit, in the order the sums are made.
    weights = [(s[o][l] * n).inverse() for l in range(m)]
    sw = [[s[j][l] * weights[l] for l in range(m)] for j in range(m)]
    rows = [cyclo.Lifted(row) for row in s]
    # With S symmetric, S^2 = nC gives F(o, b, c) = (S^2)_bc / n, which is
    # 1 if c = b* and 0 otherwise: no triple holding the unit is summed.
    # Every conductor met divides the lcm of those of S and the weights;
    # over the limit every triple is summed, so that TooLarge is raised
    # where those sums raise it.
    unit_row = _s_symmetric(d) and lcm(
        *[row.conductor for row in rows], *[w.conductor for w in weights]
    ) <= cyclo.get_conductor_limit()
    sums = {}
    for a, b in combinations_with_replacement(range(m), 2):
        if unit_row and o in (a, b):
            continue
        # each p[a, b] is lifted once per conductor and dropped after its
        # last sum, each row of S once per conductor in all
        pab = cyclo.Lifted([s[a][l] * sw[b][l] for l in range(m)])
        for c in range(b, m):
            if unit_row and c == o:
                continue
            sums[a, b, c] = pab.dot(rows[c])
    violations = []
    coeffs = []
    for i in range(m):
        plane = []
        for j in range(m):
            row = []
            for k in range(m):
                triple = [i, j, star[k]]
                if unit_row and o in triple:
                    triple.remove(o)  # F(o, a, b) = 1 iff b = a*
                    row.append(int(star[triple[0]] == triple[1]))
                    continue
                value = sums[tuple(sorted(triple))]
                as_int = cyclo.is_integer(value)
                if as_int is None or as_int < 0:
                    violations.append((i, j, k, value))
                    row.append(0)
                else:
                    row.append(as_int)
            plane.append(tuple(row))
        coeffs.append(tuple(plane))
    return FusionTable(
        size=m, coeffs=tuple(coeffs), violations=tuple(violations)
    )


# the function that keeps d's own table, which rebinding the name does not change
_OWN_TABLE = fusion_coefficients


def multiply(x: FusionElement, y: FusionElement, t: FusionTable) -> FusionElement:
    """Bilinear extension of the basis product given by the table.

    Coefficient k is the sum of N_ij^k x_i y_j over the nonzero x_i and
    y_j, one kernel sum each.  It is exactly what adding (x_i y_j) N_ij^k
    to zero(1) in (i, j) order returns, at the lcm conductor of those x_i
    and y_j, which TooLarge names when it is over the limit.
    """
    m = t.size
    if x.size != m or y.size != m:
        raise DimensionMismatch("element size does not match the table")
    terms = [[] for _ in range(m)]  # terms[k] = [(i, j, N_ij^k), ...]
    for i, xi in enumerate(x.coeffs):
        for j, yj in enumerate(y.coeffs):
            if xi and yj:
                for k, nijk in t.terms[i][j]:
                    terms[k].append((i, j, nijk))
    # x beside the zero(1) that the fold adds to, so a sum at 2 lifts, as
    # the fold's does; each vector is lifted once to each conductor
    xl = cyclo.Lifted(x.coeffs + (cyclo.zero(1),))
    yl = cyclo.Lifted(y.coeffs)
    out = []
    for tk in terms:
        mk = lcm(*[x.coeffs[i].conductor for i, _, _ in tk],
                 *[y.coeffs[j].conductor for _, j, _ in tk])
        xs, ys = xl.at(mk), yl.at(mk)
        out.append(cyclo._sum_terms(mk, [(xs[i], ys[j], n) for i, j, n in tk]))
    return FusionElement(tuple(out))


def xi_evaluate(d: ModularDatum, q: int, x: FusionElement) -> CycloNum:
    """Value of the q-th evaluation homomorphism: basis element i goes to
    s_iq / n_q, extended linearly."""
    m = d.size
    if x.size != m:
        raise DimensionMismatch("element size does not match the datum")
    if d.s(q, d.o).is_zero():
        raise InvalidDatum(f"dimension n_{q} vanishes")
    row = _xi_matrix(d)[q]
    nonzero = [i for i in range(m) if x.coeffs[i]]
    return cyclo.dot([x.coeffs[i] for i in nonzero], [row[i] for i in nonzero])


@derived
def _xi_matrix(d: ModularDatum) -> tuple:
    """xi[q][i] = s_iq / n_q."""
    m = d.size
    o = d.o
    rows = []
    for q in range(m):
        inv = d.s(q, o).inverse()
        rows.append(tuple(d.s(i, q) * inv for i in range(m)))
    return tuple(rows)


def _verlinde_laws_hold(d: ModularDatum, t: FusionTable) -> bool:
    """Whether the multiplicative law holds on t by the Verlinde theorem,
    raising nothing: t is the table fusion_coefficients keeps on d, with
    no violation, star is an involution, and S is symmetric in value at a
    common conductor under the limit, at a divisor of which lie every
    entry of xi and of the kept idempotents, and every sum of the scan and
    of absorption.  There N_ij^k = F(i, j, k*), and S^2 = nC gives
    S C S = nI, so the sum over k of N_ij^k s_kq is s_iq s_jq / s_oq."""
    return (kept(d, _OWN_TABLE) is t and not t.violations
            and all(d.star[d.star[i]] == i for i in range(d.size))
            and linalg.common_conductor(d.s_matrix) <= cyclo.get_conductor_limit()
            and _s_at_common_conductor(d)[2])


def _multiplicative_witness(d: ModularDatum, terms: tuple):
    """The first (q, i, j) with xi_q(b_i b_j) != xi_q(b_i) xi_q(b_j), or
    None, for the table of these sparse terms, by one sum per law."""
    m = d.size
    rows = [cyclo.Lifted(row) for row in _xi_matrix(d)]
    # xi_q(b_i b_j) is the sum over the nonzero N_ij^k of N_ij^k xi_q(b_k);
    # where b_i b_j = b_j b_i, the law at (q, i, j) for j < i is the one
    # at (q, j, i), already checked
    return next(((q, i, j) for q, row in enumerate(rows)
                 for i in range(m) for j in range(m)
                 if (j >= i or terms[i][j] != terms[j][i])
                 and not _sum_is_product(terms[i][j], row, row, i, j)),
                None)


def verify_ring_homomorphisms(d: ModularDatum, t: FusionTable) -> CheckReport:
    """Each evaluation map is multiplicative, they are pairwise distinct,
    and no two basis elements evaluate identically."""
    rep = CheckReport("fusion-homomorphisms")
    m = d.size
    xi = _xi_matrix(d)
    w = None if _verlinde_laws_hold(d, t) else _multiplicative_witness(d, t.terms)
    rep.add("multiplicative", w is None, w)
    w = next(
        (
            (q, r)
            for q in range(m)
            for r in range(q + 1, m)
            if all(xi[q][i] == xi[r][i] for i in range(m))
        ),
        None,
    )
    rep.add("maps-pairwise-distinct", w is None, w)
    w = next(
        (
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if all(xi[q][i] == xi[q][j] for q in range(m))
        ),
        None,
    )
    rep.add("basis-separated", w is None, w)
    return rep


def duality_element(d: ModularDatum, t: FusionTable) -> FusionElement:
    """Sum over the basis of each element times its dual."""
    return _duality_element(d, t.terms)


def _duality_element(d: ModularDatum, terms: tuple) -> FusionElement:
    coeffs = [0] * d.size
    for j, dual in enumerate(d.star):
        for k, n in terms[j][dual]:
            coeffs[k] += n
    return FusionElement(tuple(map(cyclo.from_rational, coeffs)))


def idempotents(d: ModularDatum, t: FusionTable):
    """The primitive idempotents p_i, built from the evaluation maps and
    the duality element whose evaluations are n / n_i^2."""
    return list(_idempotents(d, t.terms, cyclo.get_conductor_limit()))


@derived
def _idempotents(d: ModularDatum, terms: tuple, limit: int) -> tuple:
    """The idempotents of the table of these sparse terms, kept per table
    by its terms (a table with violations has no hash) and per limit."""
    m = d.size
    stats = basic_stats(d)
    b_a = _duality_element(d, terms)
    xi = _xi_matrix(d)
    out = []
    for i in range(m):
        xi_ba = cyclo.dot(b_a.coeffs, xi[i])
        expected = stats.n / (stats.dims[i] * stats.dims[i])
        if xi_ba != expected or xi_ba.is_zero():
            raise InvalidDatum(
                f"evaluation of the duality element at {i} is not n/n_i^2"
            )
        scale = xi_ba.inverse()
        coeffs = tuple(
            xi[i][d.star[j]] * scale for j in range(m)
        )
        out.append(FusionElement(coeffs))
    return tuple(out)


def verify_idempotent_laws(d: ModularDatum, t: FusionTable) -> CheckReport:
    """Orthogonal idempotents summing to the unit, dual to the evaluation
    maps, and absorbing multiplication by their eigenvalue.  Where p_j
    absorbs every b_k, p_i p_j = xi_j(p_i) p_j by bilinearity, so its
    idempotent and orthogonality laws are read off the values xi_j(p_i);
    products with any other p_j are multiplied out.  Absorption is summed
    unless _verlinde_laws_hold and each p_i is the kept c_i (xi_i(b_j*))_j:
    F is symmetric, so N_kj^l = N_kl*^j*, and absorption at (i, k, l) is
    the multiplicative law at (i, k, l*)."""
    rep = CheckReport("idempotent-laws")
    m = d.size
    o = d.o
    ps = idempotents(d, t)
    xi = _xi_matrix(d)
    rows = [cyclo.Lifted(row) for row in xi]
    lifted = [cyclo.Lifted(p.coeffs) for p in ps]
    # unabsorbed[i]: the first k with b_k p_i != xi_i(b_k) p_i, or None
    unabsorbed = [None] * m
    built = _verlinde_laws_hold(d, t) and _idempotents(
        d, t.terms, cyclo.get_conductor_limit())
    if not (built and all(p is q for p, q in zip(ps, built))):
        # by_output[k][l]: the nonzero (j, N_kj^l); coefficient l of b_k x
        # is the sum of N_kj^l x_j
        by_output = [[[] for _ in range(m)] for _ in range(m)]
        for k, j in product(range(m), repeat=2):
            for l, n in t.terms[k][j]:
                by_output[k][l].append((j, n))
        unabsorbed = [next((k for k in range(m) if not all(
            _sum_is_product(by_output[k][l], p, rows[i], k, l)
            for l in range(m)
        )), None) for i, p in enumerate(lifted)]

    # values[i][j] = xi_j(p_i), compared by value only
    values = [[p.dot(row) for row in rows] for p in lifted]

    def product_is(i, j, c):  # whether p_i p_j == c p_j
        if unabsorbed[j] is None:
            return values[i][j] == c or ps[j].is_zero()
        return multiply(ps[i], ps[j], t) == ps[j].scale(c)

    pairs = list(product(range(m), repeat=2))
    w = next((i for i in range(m) if not product_is(i, i, 1)), None)
    rep.add("idempotent", w is None, w)
    w = next(((i, j) for i, j in pairs if i != j and not product_is(i, j, 0)), None)
    rep.add("orthogonal", w is None, w)
    rep.add("partition-of-unity", sum(ps[1:], ps[0]) == basis_element(m, o))
    w = next(((i, j) for i, j in pairs if values[i][j] != (1 if i == j else 0)), None)
    rep.add("dual-to-evaluations", w is None, w)
    w = min(((k, i) for i, k in enumerate(unabsorbed) if k is not None), default=None)
    rep.add("eigenvalue-absorption", w is None, w)
    # xi_o(b_k) = n_k / n_o, so this law is absorption at p_o
    rep.add("unit-idempotent-dimensions", unabsorbed[o] is None, unabsorbed[o])
    return rep
