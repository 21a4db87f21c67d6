"""Concrete modular data and number-theoretic generators.

Provides the cyclic datum attached to the nonstandard R-matrix on an
odd-order cyclic group ring, the two-label semion datum, the SU(2)_k
datum, classical quadratic Gauss sums with their square table, and the
standard 3-cocycle on a cyclic group together with a generic cocycle
checker.
"""

from __future__ import annotations

from math import gcd

from . import cyclo
from .cyclo import CycloNum, root_of_unity
from .datum import ModularDatum
from .errors import BadLevel, EvenOrder, NotAUnit, TooLarge
from .report import CheckReport, Frozen

# Largest number of labels a constructor builds.  Validating a datum of
# rank m holds its m(m+1)(m+2)/6 Verlinde sums at once, and m of their
# partial products at a time, so its memory grows as m^3 phi(conductor):
# on a 2-core Xeon VM (Python 3.11), `validate` of the cyclic datum of
# order 45 peaks at 26 MiB (1.4 s), and of order 49 at 32 MiB (1.7 s),
# also within a 600 MB address-space cap.
MAX_RANK = 50

# Most coefficients of a 3-cocycle on Z_n: its table holds n^3 values of
# phi(n) coefficients, and verify_3cocycle multiplies such values in n^4
# identities.  On a 2-core Xeon VM (Python 3.11), `cocycle --n 40 --json`
# (1.0e6) took 1.8 s and 252 MiB, --n 60 (3.5e6) 5.1 s and 814 MiB, and
# `cocycle --n 16 --check` (5.2e5) 1.0 s, --n 20 (1.3e6) 2.4 s.
MAX_COCYCLE_COEFFICIENTS = 10**6


def _check_size(rank: int, conductor: int) -> None:
    """Refuse a datum over the conductor limit, then one of more than
    MAX_RANK labels, before anything of its size is built."""
    cyclo._check_limit(conductor)
    if rank > MAX_RANK:
        raise TooLarge(f"rank {rank} exceeds limit {MAX_RANK}")


def _check_cocycle_size(n: int, power: int) -> None:
    """Refuse n^power values of phi(n) coefficients over the bound."""
    size = n**power * cyclo.euler_phi(n)
    if size > MAX_COCYCLE_COEFFICIENTS:
        raise TooLarge(f"cocycle of order {n} needs {size} coefficients; "
                       f"the bound is {MAX_COCYCLE_COEFFICIENTS}")


def radford_datum(n: int, zeta_exponent: int = 1) -> ModularDatum:
    """Cyclic datum of odd order n: labels Z_n with a* = -a, Verlinde
    entries z^(-2ab) and Dehn entries z^(a^2), all dimensions 1.

    Its Gaussian sum is the classical quadratic Gauss sum.  The
    construction only exists for odd n.  zeta_exponent selects the
    primitive root used; other choices give Galois-conjugate data.
    The n powers of the root are built once, and each entry is one of
    them.
    """
    n = int(n)
    if n < 1 or n % 2 == 0:
        raise EvenOrder(f"cyclic datum requires odd positive order, got {n}")
    if gcd(zeta_exponent, n) != 1:
        raise NotAUnit(f"{zeta_exponent} is not a unit modulo {n}")
    e = zeta_exponent % n
    _check_size(n, n)
    roots = [root_of_unity(n, k) for k in range(n)]
    t_diag = tuple(roots[(a * a * e) % n] for a in range(n))
    labels = tuple(str(a) for a in range(n))
    star = tuple((-a) % n for a in range(n))
    s_matrix = tuple(
        tuple(roots[(-2 * a * b * e) % n] for b in range(n))
        for a in range(n)
    )
    return ModularDatum(
        labels=labels, unit="0", star=star, s_matrix=s_matrix, t_diag=t_diag
    )


def su2_datum(k: int) -> ModularDatum:
    """The SU(2)_k datum of level k >= 1: labels 0..k (twice the spin), each
    self-dual, Verlinde entries the quantum integers [(i+1)(j+1)]_q at
    q = z_(2(k+2)), and Dehn entries z_(4(k+2))^(j(j+2)).

    The dimensions [j+1]_q are integers only at k = 1, and every fusion
    product follows the truncated Clebsch-Gordan rule, with up to
    k/2 + 1 terms.
    """
    k = int(k)
    if k < 1:
        raise BadLevel(f"SU(2)_k requires a positive level, got {k}")
    h = 2 * (k + 2)
    _check_size(k + 1, 2 * h)
    inv = (root_of_unity(h, 1) - root_of_unity(h, -1)).inverse()
    s_matrix = tuple(
        tuple(
            (root_of_unity(h, a) - root_of_unity(h, -a)) * inv
            for a in ((i + 1) * (j + 1) for j in range(k + 1))
        )
        for i in range(k + 1)
    )
    return ModularDatum(
        labels=tuple(str(j) for j in range(k + 1)),
        unit="0",
        star=tuple(range(k + 1)),
        s_matrix=s_matrix,
        t_diag=tuple(root_of_unity(2 * h, j * (j + 2)) for j in range(k + 1)),
    )


def trivial_datum() -> ModularDatum:
    return radford_datum(1)


def semion_datum() -> ModularDatum:
    """Two labels, identity involution, S = [[1,1],[1,-1]], T = diag(1, i).

    Exponent 4, global dimension 2; the smallest datum whose squared
    Gaussian sum differs in sign from the squared reciprocal sum.
    """
    one = cyclo.one(1)
    i4 = root_of_unity(4, 1)
    return ModularDatum(
        labels=("0", "1"),
        unit="0",
        star=(0, 1),
        s_matrix=((one, one), (one, -one)),
        t_diag=(one, i4),
    )


def classical_gauss_sum(n: int, multiplier: int = 1) -> CycloNum:
    """Quadratic Gauss sum: the sum of z^(multiplier * i^2) over i < n,
    with z the fixed primitive n-th root of unity."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need a positive modulus, got {n}")
    if gcd(multiplier, n) != 1:
        raise NotAUnit(f"{multiplier} is not a unit modulo {n}")
    return cyclo.gauss_sum(n, multiplier)


def verify_gauss_lemma(n: int) -> CheckReport:
    """Square table of the classical Gauss sum by residue of n mod 4,
    the product with the reciprocal sum, and (for odd n) the twist of
    the sum by each unit against the Jacobi symbol."""
    rep = CheckReport(f"gauss-sum-laws-{n}")
    g = classical_gauss_sum(n)
    g_rec = classical_gauss_sum(n, n - 1) if n > 1 else classical_gauss_sum(1)
    g2 = g * g
    r = n % 4
    if r == 0:
        two_i_n = 2 * n * root_of_unity(4, 1)
        rep.add("square-table", g2 == two_i_n or g2 == -two_i_n, value=g2)
    elif r == 1:
        rep.add("square-table", g2 == n, value=g2)
    elif r == 2:
        rep.add("square-table", g2.is_zero(), value=g2)
    else:
        rep.add("square-table", g2 == -n, value=g2)
    product = g * g_rec
    expected = {0: 2 * n, 1: n, 2: 0, 3: n}[r]
    rep.add("reciprocal-product", product == expected, value=product)
    if n % 2 == 1:
        w = None
        for q in range(1, n):
            if gcd(q, n) != 1:
                continue
            if cyclo.galois_apply(g, q) != g * cyclo.jacobi_symbol(q, n):
                w = q
                break
        rep.add("unit-twist-jacobi", w is None, w)
    return rep


class CocycleFn(Frozen):
    """Normalized 3-cocycle on the cyclic group of order n, tabulated."""

    __match_args__ = ("n", "table")

    def __init__(self, n: int, table: tuple):
        self.__dict__.update(n=n, table=table)

    def value(self, i: int, j: int, k: int) -> CycloNum:
        return self.table[i % self.n][j % self.n][k % self.n]


def verify_3cocycle(c: CocycleFn):
    """Generic checker: normalization and the 3-cocycle identity.

    Returns (True, None) or (False, witness) where the witness is the
    first failing index tuple.  Its n^4 identities are refused over
    MAX_COCYCLE_COEFFICIENTS before the first is checked.
    """
    n = c.n
    _check_cocycle_size(n, 4)
    one = cyclo.one(1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i == 0 or j == 0 or k == 0) and c.value(i, j, k) != one:
                    return False, (i, j, k)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = (
                        c.value(j, k, l)
                        * c.value(i, (j + k) % n, l)
                        * c.value(i, j, k)
                    )
                    rhs = c.value((i + j) % n, k, l) * c.value(i, j, (k + l) % n)
                    if lhs != rhs:
                        return False, (i, j, k, l)
    return True, None


def cocycle_omega(n: int, zeta_exponent: int = 1) -> CocycleFn:
    """The 3-cocycle (i, j, k) -> sigma(i, j)^k on Z_n, where sigma is
    the carry 2-cocycle valued at the chosen n-th root of unity:
    sigma(i, j) = z^e when the representatives i + j wrap past n, else 1.
    The identity holds by construction; verify_3cocycle checks a table.
    A table over MAX_COCYCLE_COEFFICIENTS is refused before it is built.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need a positive order, got {n}")
    zeta = root_of_unity(n, zeta_exponent)  # checks the conductor limit
    _check_cocycle_size(n, 3)
    one = cyclo.one(n)
    table = tuple(
        tuple(
            tuple(
                (zeta ** k if i + j >= n else one) for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )
    return CocycleFn(n=n, table=table)
