"""The defining axioms of a modular datum and the identities that follow.

This module validates the five defining axioms, derives the report of a
validated datum and verifies the elementary identities that follow from
the axioms (structural and Gaussian-sum power identities).  The datum
itself, its cheap invariants and the Kronecker product are in
``moddata.datum``, which a congruence request needs without any of this.
"""

from __future__ import annotations

from math import lcm

# basic_stats is looked up on datum at each call, as fusion, galois and
# extension are, so a wrapper installed on those modules sees these calls
from . import cyclo, datum, linalg
from .cyclo import CycloNum
from .datum import ModularDatum, derived
from .errors import InvalidDatum
from .report import CheckReport, Frozen


class DatumReport(Frozen):
    """Derived quantities of a validated datum."""

    __match_args__ = ("n", "N", "N_o", "dims", "g", "g_rec", "normalized",
                      "integral")

    def __init__(self, n: CycloNum, N: int, N_o: int, dims: tuple,
                 g: CycloNum, g_rec: CycloNum, normalized: bool,
                 integral: bool):
        self.__dict__.update(n=n, N=N, N_o=N_o, dims=dims, g=g, g_rec=g_rec,
                             normalized=normalized, integral=integral)


@derived
def _gauss_sum_inverse(d: ModularDatum) -> CycloNum:
    """The inverse of the Gaussian sum g, the one taken per datum."""
    return datum.basic_stats(d).g.inverse()


@derived
def _s_symmetric(d: ModularDatum) -> bool:
    """Whether S equals its transpose in representation: s_ij and s_ji
    have the same conductor, denominator and numerators, not only the
    same value.  Then row i of S is column i, so a sum over row i and
    column j has the conductor, value and TooLarge of the one over row j
    and column i, and a law symmetric in (i, j) first fails, in
    row-major order, on or above the diagonal."""
    s, m = d.s_matrix, d.size

    def key(x):
        return x.conductor, x.den, x.nums

    return all(key(s[i][j]) == key(s[j][i]) for i in range(m) for j in range(i + 1, m))


def _symmetric_product(rows, cols) -> tuple:
    """The product of the matrices with these cyclo.Lifted rows and
    columns, known to be symmetric in representation: each entry on and
    above the diagonal is made as linalg.mat_mul makes it, in row-major
    order, and mirrored below, so TooLarge is raised at the same first
    entry over the limit."""
    m = len(rows)
    out = [[None] * m for _ in range(m)]
    for i, row in enumerate(rows):
        for j in range(i, m):
            col = cols[j]
            c = lcm(row.conductor, col.conductor)
            out[i][j] = out[j][i] = cyclo._lifted_dot(c, row.at(c), col.at(c))
    return tuple(map(tuple, out))


@derived
def _global_dimension_from_square(d: ModularDatum):
    """The constant n with S^2 = nC, or (None, witness) when no such
    constant exists.  With S symmetric in representation, S^2 is made on
    and above the diagonal only, each row of S serving as its column."""
    m = d.size
    if _s_symmetric(d):
        rows = [cyclo.Lifted(row) for row in d.s_matrix]
        s2 = _symmetric_product(rows, rows)
    else:
        s2 = linalg.mat_mul(d.s_matrix, d.s_matrix)
    n = s2[d.o][d.star[d.o]]
    n_rational = cyclo.is_rational(n)
    for i in range(m):
        for k in range(m):
            # each entry at its own conductor: != would lift two entries to
            # the lcm of theirs, which no sum meets, and refuse it over the
            # limit; an irrational entry is not a rational n
            x = s2[i][k]
            if k != d.star[i]:
                equal = x.is_zero()
            elif n_rational is not None:
                equal = cyclo.is_rational(x) == n_rational
            else:
                equal = x == n
            if not equal:
                return None, (i, k, x)
    if n.is_zero():
        return None, ("n", "zero")
    return n, None


@derived
def _axioms_1_to_4(d: ModularDatum) -> tuple:
    """(name, passed, witness, value) of each check of the axioms that do
    not require the fusion table; see validate_axioms."""
    rep = CheckReport("axioms")
    m = d.size
    o = d.o

    # structural invariants of the quintuple itself
    involutive = all(d.star[d.star[i]] == i for i in range(m))
    rep.add("structure-star-involution", involutive)

    # axiom 1: S symmetric, T of finite order
    w = next(((i, j) for i in range(m) for j in range(i + 1, m)
              if d.s(i, j) != d.s(j, i)), None)
    rep.add("axiom1-s-symmetric", w is None, w)
    t_orders = [cyclo.root_of_unity_order(t) for t in d.t_diag]
    bad_t = next((i for i, r in enumerate(t_orders) if r is None), None)
    rep.add("axiom1-t-finite-order", bad_t is None, bad_t)

    # axiom 2: t invariant under star, first column nonzero, unit self-dual
    w = next((i for i in range(m) if d.t(d.star[i]) != d.t(i)), None)
    rep.add("axiom2-t-star-invariant", w is None, w)
    w = next((i for i in range(m) if d.s(i, o).is_zero()), None)
    rep.add("axiom2-dimensions-nonzero", w is None, w)
    rep.add("axiom2-unit-self-dual", d.star[o] == o)

    # axiom 3: S^2 = nC for some nonzero n
    n, witness3 = _global_dimension_from_square(d)
    rep.add("axiom3-s-squared", n is not None, witness3, value=n)

    # axiom 4, constant form: g * T^-1 S T^-1 = (n_o / t_o^2) * S T S,
    # cleared of denominators to avoid inversions (valid iff every t_i != 0),
    # as c s_ij = (A S T)_ij for c = g t_o^2 and A = diag(n_o t) S T.  Each
    # conductor met divides the lcm of g's and those of S T; over the limit
    # the sides are formed as S T S and then entry by entry, so that
    # TooLarge is raised where those products raise it.
    evaluable = all(not t.is_zero() for t in d.t_diag)
    if not evaluable:
        rep.add("axiom4-proportionality", False, "T is not invertible")
    else:
        g = cyclo.zero(1)
        for i in range(m):
            g = g + d.dim(i) * d.dim(i) * d.t(i)
        n_o, t = d.dim(o), d.t_diag
        t_o2 = t[o] * t[o]
        st = linalg.mat_mul_diag(d.s_matrix, t)
        conductors = [x.conductor for row in st for x in row]
        if lcm(g.conductor, *conductors) > cyclo.get_conductor_limit():
            sts = linalg.mat_mul(st, d.s_matrix)
            rhs = (n_o * t[i] * t[j] * sts[i][j]
                   for i in range(m) for j in range(m))
            c = g * t_o2
            lhs = (c * x for row in d.s_matrix for x in row)
            witness4 = next(
                (divmod(k, m) for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y),
                None,
            )
        else:
            c = g * t_o2
            a = [[u * x for x in row] for u, row in zip([n_o * x for x in t], st)]
            if _s_symmetric(d):
                # A S T is symmetric with S, and so is c s_ij: the first
                # failing (i, j) lies on or above the diagonal
                pairs = [(i, j) for i in range(m) for j in range(i, m)]
                rhs = _symmetric_product([cyclo.Lifted(row) for row in a],
                                         [cyclo.Lifted(col) for col in zip(*st)])
            else:
                pairs = [(i, j) for i in range(m) for j in range(m)]
                rhs = linalg.mat_mul(a, st)
            witness4 = next(((i, j) for i, j in pairs
                             if c * d.s(i, j) != rhs[i][j]), None)
        rep.add("axiom4-proportionality", witness4 is None, witness4, value=g)
    return tuple((c.name, c.passed, c.witness, c.value) for c in rep.checks)


def validate_axioms(d: ModularDatum) -> CheckReport:
    """Check the five defining axioms in order, recording witnesses.

    Total: any well-formed ModularDatum yields a report, never a crash.
    Later axioms that cannot be evaluated once an earlier one failed are
    reported as failures with an explanatory witness.  The report is new
    on every call; the checks of axioms 1 to 4 are kept on the datum.
    """
    rep = CheckReport("axioms")
    for check in _axioms_1_to_4(d):
        rep.add(*check)
    n = rep["axiom3-s-squared"].value

    # axiom 5: Verlinde numbers are nonnegative integers
    if n is None:
        rep.add("axiom5-verlinde-integrality", False,
                "no global dimension available")
    else:
        from . import fusion

        try:
            table = fusion.fusion_coefficients(d)
        except InvalidDatum as exc:
            rep.add("axiom5-verlinde-integrality", False, str(exc))
        else:
            rep.add(
                "axiom5-verlinde-integrality",
                not table.violations,
                [(i, j, k) for i, j, k, _ in table.violations[:8]],
            )
    return rep


def derive_report(d: ModularDatum) -> DatumReport:
    """Derived quantities with the global dimension cross-checked against
    the matrix square of S."""
    stats = datum.basic_stats(d)
    n, witness = _global_dimension_from_square(d)
    if n is None:
        raise InvalidDatum(f"S^2 is not a multiple of C: witness {witness}")
    if n != stats.n:
        raise InvalidDatum(
            "global dimension from S^2 disagrees with the sum of squared "
            "dimensions"
        )
    return DatumReport(
        n=n,
        N=stats.N,
        N_o=stats.N_o,
        dims=stats.dims,
        g=stats.g,
        g_rec=stats.g_rec,
        normalized=stats.normalized,
        integral=stats.integral,
    )


def require_valid(d: ModularDatum) -> CheckReport:
    rep = validate_axioms(d)
    if not rep.passed:
        failed = ", ".join(c.name for c in rep.failures())
        raise InvalidDatum(f"datum fails: {failed}")
    return rep


def verify_structural_identities(d: ModularDatum) -> CheckReport:
    """The elementary identities that every valid datum satisfies:
    star-symmetry of S, commutation of C with S and T, the unit row of
    the fusion table, reconstruction of S from the fusion table, and the
    product of the two Gaussian sums."""
    require_valid(d)
    from . import fusion

    rep = CheckReport("structural-identities")
    m = d.size
    o = d.o
    star = d.star
    stats = datum.basic_stats(d)

    # symmetric in (i, j) with S: its first failure lies on or above the
    # diagonal
    symmetric = _s_symmetric(d)
    w = next(((i, j) for i in range(m) for j in range(i if symmetric else 0, m)
              if d.s(star[i], star[j]) != d.s(i, j)), None)
    rep.add("s-star-symmetry", w is None, w)
    w = next((j for j in range(m) if d.dim(star[j]) != d.dim(j)), None)
    rep.add("dims-star-invariant", w is None, w)

    # C permutes indices by star: (C S)[i][j] = S[i*][j] and
    # (S C)[i][j] = S[i][j*], and C T = T C iff t_i* = t_i
    rep.add(
        "c-commutes-with-s",
        all(d.s(star[i], j) == d.s(i, star[j])
            for i in range(m) for j in range(m)),
    )
    rep.add(
        "c-commutes-with-t",
        all(d.t(star[i]) == d.t(i) for i in range(m)),
    )

    table = fusion.fusion_coefficients(d)
    w = None
    for i in range(m):
        for j in range(m):
            if (
                table.coeff(o, i, j) != (1 if i == j else 0)
                or table.coeff(i, o, j) != (1 if i == j else 0)
                or table.coeff(i, j, o) != (1 if star[i] == j else 0)
            ):
                w = (i, j)
                break
        if w:
            break
    rep.add("unit-row-and-duality", w is None, w)

    # s_ij = (t_o / (t_i t_j)) * sum_k N_ik^j n_k t_k
    nt = [n_k * t_k for n_k, t_k in zip(stats.dims, d.t_diag)]
    w = None
    for i in range(m):
        for j in range(m):
            acc = cyclo.zero(1)
            for k in range(m):
                nijk = table.coeff(i, k, j)
                if nijk:
                    acc = acc + nijk * nt[k]
            if d.s(i, j) * d.t(i) * d.t(j) != stats.t_o * acc:
                w = (i, j)
                break
        if w:
            break
    rep.add("s-from-fusion-table", w is None, w)

    rep.add(
        "gauss-product",
        stats.g * stats.g_rec == stats.n * stats.n_o * stats.n_o,
        value=stats.g,
    )
    return rep


def power_identity_check(d: ModularDatum) -> CheckReport:
    """Root-of-unity powers of the ratio of the two Gaussian sums: the
    2Nm-th power is always 1; the 2N-th for integral data; the N-th for
    integral data of even exponent."""
    stats = datum.basic_stats(d)
    rep = CheckReport("power-identities")
    # (g'/g)^K = 1 iff (g/g')^K = 1; for real dimensions g' = conj(g)
    ratio = stats.g_rec * _gauss_sum_inverse(d)
    m = d.size
    rep.add("ratio-power-2Nm", ratio ** (2 * stats.N * m) == 1)
    if stats.integral:
        rep.add("ratio-power-2N", ratio ** (2 * stats.N) == 1)
        if stats.N % 2 == 0:
            rep.add("ratio-power-N", ratio ** stats.N == 1)
    return rep
