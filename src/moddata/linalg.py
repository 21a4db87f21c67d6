"""Small exact matrices over cyclotomic fields.

Matrices are immutable tuples of tuples of CycloNum.  Everything here is
sized for the index sets of modular data (at most a few dozen rows), so
the algorithms are straightforward cubic ones.
"""

from __future__ import annotations

from math import lcm

from . import cyclo
from .errors import NonInvertibleInput


def mat_identity(m: int, conductor: int = 1) -> tuple:
    one = cyclo.one(conductor)
    z = cyclo.zero(conductor)
    return tuple(
        tuple(one if i == j else z for j in range(m)) for i in range(m)
    )


def mat_mul(a, b) -> tuple:
    """The product a b.  Entry (i, j) is exactly what the left fold of
    a_ik * b_kj over k returns (see cyclo.dot), at the lcm conductor of
    row i of a and column j of b, which TooLarge names when it is over
    the limit.  It is one sum-of-products call over that row and column,
    each lifted to that conductor once with its zero entries dropped;
    for a matrix of one conductor, once in all."""
    rows = [cyclo.Lifted(row) for row in a]
    cols = [cyclo.Lifted(col) for col in zip(*b)]
    return tuple(tuple(row.dot(col) for col in cols) for row in rows)


def mat_mul_diag(a, diag) -> tuple:
    """Right-multiplication by a diagonal matrix, given as a vector."""
    return tuple(
        tuple(x * diag[j] for j, x in enumerate(row)) for row in a
    )


def mat_scale(a, c) -> tuple:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_eq(a, b) -> bool:
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


def diag_matrix(entries) -> tuple:
    m = len(entries)
    z = cyclo.zero(1)
    return tuple(
        tuple(entries[i] if i == j else z for j in range(m)) for i in range(m)
    )


def common_conductor(*matrices) -> int:
    return lcm(*[x.conductor for a in matrices for row in a for x in row])


def mat_lift(a, conductor: int) -> tuple:
    return tuple(
        tuple(x.lift(conductor) for x in row) for row in a
    )


def mat_key(a) -> tuple:
    """Hashable key of a matrix whose entries share one conductor."""
    return tuple(tuple((x.den, x.nums) for x in row) for row in a)


def mat_inverse(a) -> tuple:
    """Exact inverse by Gauss-Jordan elimination.

    Raises NonInvertibleInput on a singular matrix.
    """
    m = len(a)
    conductor = common_conductor(a)
    work = [list(row) for row in mat_lift(a, conductor)]
    inv = [list(row) for row in mat_identity(m, conductor)]
    for col in range(m):
        pivot = None
        for r in range(col, m):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            raise NonInvertibleInput("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col].inverse()
        work[col] = [x * scale for x in work[col]]
        inv[col] = [x * scale for x in inv[col]]
        for r in range(m):
            if r == col or not work[r][col]:
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)
