"""Modular data: the (I, o, *, S, T) quintuple and its cheap invariants.

A modular datum consists of a finite label set with a unit label, an
involution on the labels, a symmetric Verlinde matrix S and a diagonal
Dehn matrix T of finite order.  This module holds the datum, the
``derived`` decorator that keeps a derivation's value on it, the
standard invariants (global dimension, exponents, Gaussian sums) that
every layer reads, and the Kronecker product of two data.  The axioms
are in ``moddata.axioms``, which a congruence request never imports.
"""

from __future__ import annotations

from functools import wraps
from math import lcm

from . import cyclo
from .cyclo import CycloNum
from .errors import DuplicateLabel, InvalidDatum
from .report import Frozen


class ModularDatum(Frozen):
    """Labels, unit label, star involution (as index permutation),
    Verlinde matrix and Dehn diagonal."""

    __match_args__ = ("labels", "unit", "star", "s_matrix", "t_diag")

    def __init__(self, labels: tuple, unit: str, star: tuple, s_matrix: tuple,
                 t_diag: tuple):
        m = len(labels)
        if m == 0:
            raise ValueError("label set must be nonempty")
        if len(set(labels)) != m:
            repeat = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise DuplicateLabel(f"labels must be distinct: {repeat!r} repeats")
        if unit not in labels:
            raise ValueError(f"unit {unit!r} not among labels")
        if len(star) != m or sorted(star) != list(range(m)):
            raise ValueError("star must be a permutation of the label indices")
        if len(s_matrix) != m or any(len(r) != m for r in s_matrix):
            raise ValueError("S must be a square matrix over the labels")
        if len(t_diag) != m:
            raise ValueError("T must have one diagonal entry per label")
        # _memo holds the values of the @derived functions, filled on
        # first use; it is not a field
        self.__dict__.update(labels=labels, unit=unit, star=star,
                             s_matrix=s_matrix, t_diag=t_diag, _memo={})

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def o(self) -> int:
        return self.labels.index(self.unit)

    def s(self, i: int, j: int) -> CycloNum:
        return self.s_matrix[i][j]

    def t(self, i: int) -> CycloNum:
        return self.t_diag[i]

    def dim(self, i: int) -> CycloNum:
        return self.s_matrix[i][self.o]


def derived(compute):
    """Decorator: compute(d, *args), pure with an immutable value, runs once
    per datum and arguments, and the value is kept on d (a race computes
    it twice, with equal results).  __wrapped__ is the uncached function."""

    @wraps(compute)
    def cached(d, *args):
        key = (cached, *args)
        if key not in d._memo:
            d._memo[key] = cached.__wrapped__(d, *args)
        return d._memo[key]

    return cached


class DatumStats(Frozen):
    """Cheaply derived quantities; no axiom re-verification."""

    __match_args__ = ("n", "n_int", "dims", "dims_int", "N", "N_o", "g",
                      "g_rec", "t_o", "n_o", "normalized", "integral")

    def __init__(self, n: CycloNum, n_int: int | None, dims: tuple,
                 dims_int: tuple | None, N: int, N_o: int, g: CycloNum,
                 g_rec: CycloNum, t_o: CycloNum, n_o: CycloNum,
                 normalized: bool, integral: bool):
        self.__dict__.update(n=n, n_int=n_int, dims=dims, dims_int=dims_int,
                             N=N, N_o=N_o, g=g, g_rec=g_rec, t_o=t_o, n_o=n_o,
                             normalized=normalized, integral=integral)


@derived
def basic_stats(d: ModularDatum) -> DatumStats:
    """Global dimension (as sum of squared dimensions), exponents and
    Gaussian sums.  Raises InvalidDatum if some Dehn entry is not a root
    of unity or some dimension vanishes."""
    o = d.o
    dims = tuple(d.dim(i) for i in range(d.size))
    if any(x.is_zero() for x in dims):
        raise InvalidDatum("a first-column entry of S vanishes")
    n = cyclo.zero(1)
    g = cyclo.zero(1)
    g_rec = cyclo.zero(1)
    N = 1
    t_o = d.t(o)
    ord_o = cyclo.root_of_unity_order(t_o)
    if ord_o is None:
        raise InvalidDatum("t_o is not a root of unity")
    N_o = 1
    for i in range(d.size):
        t_i = d.t(i)
        order = cyclo.root_of_unity_order(t_i)
        if order is None:
            raise InvalidDatum(f"t_{i} is not a root of unity")
        N = lcm(N, order)
        order_rel = cyclo.root_of_unity_order(t_i / t_o)
        N_o = lcm(N_o, order_rel)
        sq = dims[i] * dims[i]
        n = n + sq
        g = g + sq * t_i
        g_rec = g_rec + sq / t_i
    dims_int = tuple(cyclo.is_integer(x) for x in dims)
    integral = all(v is not None and v > 0 for v in dims_int)
    n_int = cyclo.is_integer(n)
    normalized = d.s(o, o) == 1 and t_o == 1
    return DatumStats(
        n=n,
        n_int=n_int,
        dims=dims,
        dims_int=dims_int if integral else None,
        N=N,
        N_o=N_o,
        g=g,
        g_rec=g_rec,
        t_o=t_o,
        n_o=dims[o],
        normalized=normalized,
        integral=integral,
    )


def kronecker_product(d1: ModularDatum, d2: ModularDatum) -> ModularDatum:
    """Product datum on the Cartesian product of the index sets, in
    row-major order: S[(i1,i2)][(j1,j2)] = S1[i1][j1] S2[i2][j2], and T
    likewise.  Each distinct pair of entries is multiplied once, at its
    first place in row-major order, S before T.  An entry is keyed on
    (conductor, den, nums), so each product has the conductor that entry
    by entry gives it, and a conductor limit raises TooLarge at the same
    pair."""
    from . import axioms

    axioms.require_valid(d1)
    axioms.require_valid(d2)
    keys, products = {}, {}  # distinct entry -> number; pair of numbers -> product

    def numbered(row):
        return [(keys.setdefault((x.conductor, x.den, x.nums), len(keys)), x)
                for x in row]

    def times(r1, r2):
        out = []
        for a, x in r1:
            for b, y in r2:
                xy = products.get((a, b))
                if xy is None:
                    xy = products[a, b] = x * y
                out.append(xy)
        return tuple(out)

    s1, s2 = ([numbered(row) for row in d.s_matrix] for d in (d1, d2))
    return ModularDatum(
        labels=tuple(f"({a},{b})" for a in d1.labels for b in d2.labels),
        unit=f"({d1.unit},{d2.unit})",
        star=tuple(i * d2.size + j for i in d1.star for j in d2.star),
        s_matrix=tuple(times(r1, r2) for r1 in s1 for r2 in s2),
        t_diag=times(numbered(d1.t_diag), numbered(d2.t_diag)),
    )
