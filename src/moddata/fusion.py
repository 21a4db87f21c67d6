"""Fusion rings from the Verlinde formula.

The structure constants N_ij^k are evaluated exactly from the Verlinde
expression; integrality is decided by exact rationality testing, never
by rounding.  The ring comes with its evaluation homomorphisms, the
canonical central element built from the duality, and the primitive
idempotents, each with a full law-verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cyclo, linalg
from .cyclo import CycloNum
from .datum import ModularDatum, _global_dimension_from_square, basic_stats, derived
from .errors import DimensionMismatch, InvalidDatum
from .report import CheckReport


@dataclass(frozen=True)
class FusionTable:
    """Structure constants N_ij^k as nonnegative integers.

    Entries that failed the integrality test are listed in violations as
    (i, j, k, exact_value) and stored as 0 in the integer array.
    """

    size: int
    coeffs: tuple
    violations: tuple = ()

    def coeff(self, i: int, j: int, k: int) -> int:
        return self.coeffs[i][j][k]

    def verify_invariants(self) -> CheckReport:
        """Commutativity, unit row, duality against star is not known to
        the table; associativity is.  Duality and unit checks live in the
        structural-identity suite, which knows the datum."""
        rep = CheckReport("fusion-table")
        m = self.size
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
                for k in range(m)
                if self.coeff(i, j, k) < 0
            ),
            None,
        )
        rep.add("nonnegative", w is None, w)
        w = None
        for i in range(m):
            for j in range(m):
                for l in range(m):
                    for p in range(m):
                        lhs = sum(
                            self.coeff(i, j, k) * self.coeff(k, l, p)
                            for k in range(m)
                        )
                        rhs = sum(
                            self.coeff(j, l, k) * self.coeff(i, k, p)
                            for k in range(m)
                        )
                        if lhs != rhs:
                            w = (i, j, l, p)
                            break
                    if w:
                        break
                if w:
                    break
            if w:
                break
        rep.add("associative", w is None, w)
        return rep


@dataclass(frozen=True)
class FusionElement:
    """Element of the fusion ring over cyclotomic scalars, in the basis
    indexed by the datum labels."""

    coeffs: tuple

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

    def __sub__(self, other):
        if not isinstance(other, FusionElement):
            return NotImplemented
        if other.size != self.size:
            raise DimensionMismatch("fusion elements of different sizes")
        return FusionElement(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "FusionElement":
        return FusionElement(tuple(a * c for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, FusionElement):
            return NotImplemented
        return self.size == other.size and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

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
    n_inv = n.inverse()
    # sw[j][l] = s_jl / s_ol, and row (i, j) of partial holds s_il sw[j][l]
    weights = [s[o][l].inverse() for l in range(m)]
    sw = [[s[j][l] * weights[l] for l in range(m)] for j in range(m)]
    partial = tuple(
        tuple(s[i][l] * sw[j][l] for l in range(m))
        for i in range(m)
        for j in range(m)
    )
    # N_ij^k n = sum over l of partial[i m + j][l] s_(k*)l
    dual = tuple(tuple(s[star[k]][l] for k in range(m)) for l in range(m))
    sums = linalg.mat_mul(partial, dual)
    violations = []
    coeffs = []
    for i in range(m):
        plane = []
        for j in range(m):
            row = []
            for k, acc in enumerate(sums[i * m + j]):
                value = acc * n_inv
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


def multiply(x: FusionElement, y: FusionElement, t: FusionTable) -> FusionElement:
    """Bilinear extension of the basis product given by the table.

    Coefficient k is the sum of N_ij^k x_i y_j over the nonzero x_i and
    y_j, one sum-of-products call each.  It is exactly what adding
    (x_i y_j) N_ij^k to zero(1) in (i, j) order returns, at the conductor
    and with the TooLarge that this fold would give.
    """
    m = t.size
    if x.size != m or y.size != m:
        raise DimensionMismatch("element size does not match the table")
    xs = [(i, c) for i, c in enumerate(x.coeffs) if c]
    ys = [(j, c) for j, c in enumerate(y.coeffs) if c]
    conductors = [1] * m
    terms = [[] for _ in range(m)]  # terms[k] = [(i, j, N_ij^k), ...]
    for i, xi in xs:
        for j, yj in ys:
            c = cyclo._product_conductor(xi.conductor, yj.conductor)
            for k, nijk in enumerate(t.coeffs[i][j]):
                if nijk:
                    conductors[k] = cyclo._sum_conductor(conductors[k], c)
                    terms[k].append((i, j, nijk))
    sides = (x.coeffs, y.coeffs)
    operands = {}  # (side, index, conductor) -> operand

    def operand(side, idx, mk):
        key = (side, idx, mk)
        op = operands.get(key)
        if op is None:
            op = operands[key] = cyclo._operand(sides[side][idx], mk)
        return op

    out = []
    for k, mk in enumerate(conductors):
        out.append(cyclo._sum_terms(mk, [
            (operand(0, i, mk), operand(1, j, mk), nijk)
            for i, j, nijk in terms[k]
        ]))
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


def verify_ring_homomorphisms(d: ModularDatum, t: FusionTable) -> CheckReport:
    """Each evaluation map is multiplicative, they are pairwise distinct,
    and no two basis elements evaluate identically."""
    rep = CheckReport("fusion-homomorphisms")
    m = d.size
    xi = _xi_matrix(d)
    # sums[i][j][q] = sum over k of N_ij^k xi[q][k]
    xi_t = linalg.mat_transpose(xi)
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
        (
            (q, i, j)
            for q in range(m)
            for i in range(m)
            for j in range(m)
            if sums[i][j][q] != xi[q][i] * xi[q][j]
        ),
        None,
    )
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
    m = d.size
    coeffs = []
    for k in range(m):
        total = 0
        for j in range(m):
            total += t.coeff(j, d.star[j], k)
        coeffs.append(cyclo.from_rational(total))
    return FusionElement(tuple(coeffs))


def idempotents(d: ModularDatum, t: FusionTable):
    """The primitive idempotents p_i, built from the evaluation maps and
    the duality element whose evaluations are n / n_i^2."""
    m = d.size
    stats = basic_stats(d)
    b_a = duality_element(d, t)
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
    return out


def verify_idempotent_laws(d: ModularDatum, t: FusionTable) -> CheckReport:
    """Orthogonal idempotents summing to the unit, dual to the evaluation
    maps, and absorbing multiplication by their eigenvalue."""
    rep = CheckReport("idempotent-laws")
    m = d.size
    o = d.o
    stats = basic_stats(d)
    ps = idempotents(d, t)
    w = next(
        (i for i in range(m) if multiply(ps[i], ps[i], t) != ps[i]), None
    )
    rep.add("idempotent", w is None, w)
    w = next(
        (
            (i, j)
            for i in range(m)
            for j in range(m)
            if i != j and not multiply(ps[i], ps[j], t).is_zero()
        ),
        None,
    )
    rep.add("orthogonal", w is None, w)
    total = ps[0]
    for p in ps[1:]:
        total = total + p
    rep.add("partition-of-unity", total == basis_element(m, o))
    w = None
    for i in range(m):
        for j in range(m):
            val = xi_evaluate(d, j, ps[i])
            if val != (1 if i == j else 0):
                w = (i, j)
                break
        if w:
            break
    rep.add("dual-to-evaluations", w is None, w)
    xi = _xi_matrix(d)
    w = None
    for k in range(m):
        b_k = basis_element(m, k)
        for i in range(m):
            if multiply(b_k, ps[i], t) != ps[i].scale(xi[i][k]):
                w = (k, i)
                break
        if w:
            break
    rep.add("eigenvalue-absorption", w is None, w)
    n_o_inv = stats.n_o.inverse()
    w = next(
        (
            k
            for k in range(m)
            if multiply(basis_element(m, k), ps[o], t)
            != ps[o].scale(stats.dims[k] * n_o_inv)
        ),
        None,
    )
    rep.add("unit-idempotent-dimensions", w is None, w)
    return rep
