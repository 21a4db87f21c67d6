"""Exact arithmetic in cyclotomic fields.

An element of the M-th cyclotomic field is stored on the power basis
1, z, ..., z^(phi(M)-1) of Q[x]/(Phi_M(x)), where z is a fixed primitive
M-th root of unity and Phi_M the M-th cyclotomic polynomial.  The
coordinates are held as integer numerators ``nums`` over one shared
positive denominator ``den``, kept canonical: gcd(den, *nums) == 1, and
zero has den == 1.  So two elements at the same conductor are equal iff
their (den, nums) pairs agree, and arithmetic runs on Python ints with
one gcd per result.

One sparse table per conductor, the reduction of z^k modulo Phi_M, does
all the work: products, lifts, Galois images, quadratic Gauss sums and
the table of roots of unity +-z^k, which answers ``root_of_unity_order``
and inverts them.  Any other x is inverted by its Galois conjugates: the
product c of sigma_q(x) over the units q != 1 makes x * c the rational
norm, so x^-1 = c / (x * c).  Rationals appear only at the boundaries:
the ``coeffs`` view, ``is_rational`` and JSON.  Binary operations lift
both operands to the lcm of their conductors; nothing ever reduces a
conductor.

All values are immutable and all functions are pure.  The conductor
limit is a ``contextvars`` value, so a limit set in one thread or task
does not reach another.
"""

from __future__ import annotations

import re
import sys
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from operator import itemgetter

from .errors import (
    BadConductor,
    BadModulus,
    DimensionMismatch,
    DivisionByZero,
    NotAUnit,
    TooLarge,
)

_RAT_TYPES = (int, Fraction)

# Conductors each per-conductor cache keeps.  Every request of the
# cli-mix and wire benchmark workloads together touches 18, so a warm
# session does not evict; the bound keeps a long session that visits many
# conductors from holding every table it ever built.
CACHE_SIZE = 64

# Largest degree phi(m) at which an element other than a root of unity or
# a rational is inverted.  Its phi - 2 conjugate products grow about as
# phi^3 for a dense element: on a 2-vCPU Xeon VM (Python 3.11) one with
# random coefficients in [-3, 3] takes 1.6 s at m = 435 (phi = 224) and
# 3.3 s at m = 385 (phi = 240), and 2 + z takes 1.9 s at the prime 1201
# (phi = 1200).
MAX_INVERSE_DEGREE = 224

# Largest conductor for which a basis will be materialized; guards against
# runaway lcm growth.  The CLI exposes this bound via --conductor-limit.
_conductor_limit = ContextVar("conductor_limit", default=100_000)


def set_conductor_limit(limit: int):
    """Set the limit in the current context; the returned token restores
    the previous one through reset_conductor_limit."""
    return _conductor_limit.set(int(limit))


def reset_conductor_limit(token) -> None:
    _conductor_limit.reset(token)


def get_conductor_limit() -> int:
    return _conductor_limit.get()


def rational(num, den=1):
    """Exact rational with canonical form (gcd 1, positive denominator)."""
    return Fraction(num, den)


@lru_cache(maxsize=CACHE_SIZE)
def euler_phi(m: int) -> int:
    phi = 1
    for p, e in factorize(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def factorize(n: int, bound: int | None = None):
    """Prime factorization [(p, e), ...] by trial division, or with a bound
    [(p, e), ..., (cofactor, 1)] with no prime past the bound tried."""
    n = int(n)
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    p = 2
    while p * p <= n and (bound is None or p <= bound):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int):
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=CACHE_SIZE)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, low degree first.

    Phi_m(x) = Phi_r(x^(m/r)) for r the radical of m, and Phi_r is the
    product of (x^d - 1)^mu(r/d) over the divisors d of r.  Each factor
    is one shift-and-subtract multiply or exact divide, the multiplies
    first.
    """
    primes = [p for p, _ in factorize(m)]
    r = prod(primes)
    # mu(r/d) = (-1)^k for k the number of primes of r/d
    up, down = [], []
    for e in divisors(r):
        (down if sum(e % p == 0 for p in primes) % 2 else up).append(r // e)
    poly = [1]
    for d in up:  # times x^d - 1
        shifted = [0] * d + poly
        for i, c in enumerate(poly):
            shifted[i] -= c
        poly = shifted
    for d in down:  # exactly divided by x^d - 1: q[i] = q[i - d] - p[i]
        quot = []
        for i in range(len(poly) - d):
            quot.append(quot[i - d] - poly[i] if i >= d else -poly[i])
        poly = quot
    step = m // r
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return tuple(out)


def _check_limit(m: int) -> None:
    # Checked on every use, not when a table is built: a table cached
    # under a larger limit must not get past a smaller one.
    limit = _conductor_limit.get()
    if m > limit:
        raise TooLarge(f"conductor {m} exceeds limit {limit}")


@lru_cache(maxsize=CACHE_SIZE)
def _reduction_rows(m: int) -> tuple:
    """Sparse reduction of z^k modulo Phi_m for every exponent needed.

    Row k holds ((index, int_coeff), ...) with z^k = sum coeff * z^index.
    Rows cover k up to max(m, 2*phi - 1) - 1, enough both for exponent
    arithmetic mod m and for reducing products of basis vectors.  Each
    row is built from the last, so the table holds only nonzero terms.
    The caller checks the conductor limit.
    """
    phi_poly = cyclotomic_polynomial(m)
    phi = len(phi_poly) - 1
    # z^phi = -(lower part of Phi_m), since Phi_m is monic
    low = [(i, -c) for i, c in enumerate(phi_poly[:phi]) if c]
    rows = [((k, 1),) for k in range(phi)]
    row = rows[-1]
    for _ in range(phi, max(m, 2 * phi - 1)):
        # z times the last row: shift every term, and reduce the one term
        # that reaches z^phi
        if row[-1][0] == phi - 1:
            carry = row[-1][1]
            acc = dict(low if carry == 1 else [(i, carry * c) for i, c in low])
            for i, c in row[:-1]:
                acc[i + 1] = acc.get(i + 1, 0) + c
            row = tuple(sorted((i, c) for i, c in acc.items() if c))
        else:
            row = tuple([(i + 1, c) for i, c in row])
        rows.append(row)
    return tuple(rows)


def _root_power(m: int, j: int):
    """(k, sign) with w^j = sign * z^k, for w the fixed generator of the
    n = lcm(2, m) roots of unity at conductor m: w = z for even m, and
    w = -z^((m+1)/2) for odd m (then w^2 = z and w^m = -1)."""
    if m % 2 == 0:
        return j % m, 1
    return j * (m + 1) // 2 % m, -1 if j % 2 else 1


@lru_cache(maxsize=CACHE_SIZE)
def _unit_table(m: int) -> dict:
    # Each root of unity has den 1, so its nonzero coordinates are its key.
    rows = _reduction_rows(m)
    n = m if m % 2 == 0 else 2 * m
    table = {}
    for j in range(n):
        k, sign = _root_power(m, j)
        key = rows[k] if sign == 1 else tuple([(i, -c) for i, c in rows[k]])
        # w^j is z_o^(j/g) for its order o = n/g, g = gcd(n, j), since the
        # fixed roots are compatible: w = z_n and z_n^g = z_o
        g = gcd(n, j)
        table[key] = (n // g, j // g, -j % n)
    return table


def _units(m: int) -> dict:
    """{nonzero coordinates: (order o, a, j)} for every root of unity at
    conductor m: the a-th power of the fixed primitive o-th root, with
    inverse w^j (see _root_power)."""
    _check_limit(m)
    return _unit_table(m)


def _unit_entry(x: "CycloNum"):
    """x's entry in the table of roots of unity, or None if x is not one."""
    if x.den != 1:
        return None
    # its nonzero coordinates ((index, c), ...)
    return _units(x.conductor).get(tuple(filter(itemgetter(1), enumerate(x.nums))))


def _make(conductor, nums, den):
    # Trusted constructor: nums is a tuple already in canonical form.
    x = object.__new__(CycloNum)
    x.conductor = conductor
    x.nums = nums
    x.den = den
    return x


def _reduced(conductor, nums, den):
    """The element sum(nums[i] z^i) / den, for den > 0, made canonical."""
    g = gcd(den, *nums)
    if g != 1:
        return _make(conductor, tuple([c // g for c in nums]), den // g)
    return _make(conductor, tuple(nums), den)


def _reduce(conductor, acc):
    """Reduce acc, 2 phi - 1 unreduced integer coordinates, in place
    modulo Phi_m to its phi coordinates.  The caller has checked the
    conductor limit."""
    phi = (len(acc) + 1) // 2
    if phi > 1:
        rows = _reduction_rows(conductor)
        for k in range(phi, 2 * phi - 1):
            c = acc[k]
            if c:
                for idx, r in rows[k]:
                    acc[idx] += c * r
        del acc[phi:]


def _settle(conductor, acc, den):
    """The element sum(acc[k] z^k) / den, for den > 0 and acc the phi
    coordinates _reduce leaves: one gcd."""
    if den == 1:
        return _make(conductor, tuple(acc), 1)
    return _reduced(conductor, acc, den)


class CycloNum:
    """Element of the cyclotomic field of the given conductor."""

    __slots__ = ("conductor", "nums", "den")
    __hash__ = None  # equality crosses conductors; use (den, nums) keys instead

    def __init__(self, conductor: int, coeffs):
        conductor = int(conductor)
        if conductor < 1:
            raise BadConductor(f"conductor must be positive, got {conductor}")
        _check_limit(conductor)  # before euler_phi factorises it
        phi = euler_phi(conductor)
        values = [Fraction(c) for c in coeffs]
        if len(values) != phi:
            raise ValueError(
                f"need {phi} coefficients at conductor {conductor}, "
                f"got {len(values)}"
            )
        den = lcm(*[q.denominator for q in values])
        nums = [q.numerator * (den // q.denominator) for q in values]
        x = _reduced(conductor, nums, den)
        self.conductor = conductor
        self.nums = x.nums
        self.den = x.den

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates, for display and reporting."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- basic predicates ------------------------------------------------

    def __bool__(self):
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- conversions -------------------------------------------------------

    def lift(self, conductor: int) -> "CycloNum":
        return lift_conductor(self, conductor)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, _RAT_TYPES):
            return from_rational(other, self.conductor)
        return None

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            a, b = self, other
            if a.conductor != b.conductor:
                a, b = _common(a, b)
            return a.den == b.den and a.nums == b.nums
        if isinstance(other, _RAT_TYPES):
            # canonical form makes nums[0] / den a fraction in lowest terms
            nums = self.nums
            return (
                self.den == other.denominator
                and nums[0] == other.numerator
                and not any(nums[1:])
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return _make(self.conductor, tuple([-c for c in self.nums]), self.den)

    def __mul__(self, other):
        if not isinstance(other, CycloNum):
            if isinstance(other, _RAT_TYPES):
                p = other.numerator
                return _reduced(
                    self.conductor,
                    [c * p for c in self.nums],
                    self.den * other.denominator,
                )
            return NotImplemented
        a, b = self, other
        if a.conductor != b.conductor:
            a, b = _common(a, b)
        m = a.conductor
        an, bn = a.nums, b.nums
        phi = len(an)
        nz_a = [(i, c) for i, c in enumerate(an) if c]
        nz_b = [(j, c) for j, c in enumerate(bn) if c]
        if len(nz_a) > len(nz_b):
            nz_a, nz_b = nz_b, nz_a
        acc = [0] * (2 * phi - 1)
        for i, ca in nz_a:
            for j, cb in nz_b:
                acc[i + j] += ca * cb
        if phi > 1 and m > _conductor_limit.get():
            _check_limit(m)
        _reduce(m, acc)
        return _settle(m, acc, a.den * b.den)

    def __rmul__(self, other):
        if isinstance(other, _RAT_TYPES):
            return self.__mul__(other)
        return NotImplemented

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse: the conjugate for a root of unity, else
        c / (x * c) for c the product of the Galois conjugates of x other
        than x itself, which makes x * c its rational norm."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.conductor
        hit = _unit_entry(self)
        if hit is not None:
            return _root(m, *_root_power(m, hit[2]))
        if not any(self.nums[1:]):
            return from_rational(Fraction(self.den, self.nums[0]), m)
        phi = len(self.nums)
        if phi > MAX_INVERSE_DEGREE:
            raise TooLarge(
                f"inverse at conductor {m} needs {phi - 2} products of degree "
                f"{phi}; the bound is degree {MAX_INVERSE_DEGREE}"
            )
        c = one(m)
        for q in range(2, m):
            if gcd(q, m) == 1:
                c = c * galois_apply(self, q)
        norm = self * c
        return c * Fraction(norm.den, norm.nums[0])

    def __truediv__(self, other):
        if isinstance(other, _RAT_TYPES):
            if not other:
                raise DivisionByZero("division by zero")
            # times r / p for other = p / r: r and the sign of p go to nums
            p, r = other.numerator, other.denominator
            r = r if p > 0 else -r
            nums = [c * r for c in self.nums]
            return _reduced(self.conductor, nums, self.den * abs(p))
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        m = self.conductor
        if len(self.nums) == 1:  # a rational, at conductor 1 or 2
            return _make(m, (self.nums[0] ** k,), self.den ** k)
        # w^j to the k is w^(jk); the table checks the limit as squaring does
        hit = _unit_entry(self) if k else None
        if hit is not None:
            return _root(m, *_root_power(m, -hit[2] * k))
        result = one(m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"CycloNum({self.conductor}, {self!s})"

    def __str__(self):
        m = self.conductor
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = f"z{m}" if i == 1 else f"z{m}^{i}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _add(a: CycloNum, b: CycloNum, sign: int) -> CycloNum:
    """a + b for sign 1, a - b for sign -1."""
    if a.conductor != b.conductor:
        a, b = _common(a, b)
    an, bn, den = a.nums, b.nums, a.den
    if b.den != den:
        an = [x * b.den for x in an]
        bn = [y * den for y in bn]
        den *= b.den
    if sign == 1:
        nums = [x + y for x, y in zip(an, bn)]
    else:
        nums = [x - y for x, y in zip(an, bn)]
    if den == 1:
        return _make(a.conductor, tuple(nums), 1)
    return _reduced(a.conductor, nums, den)


# -- public constructors and operations ------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def zero(conductor: int = 1) -> CycloNum:
    return _make(conductor, (0,) * euler_phi(conductor), 1)


@lru_cache(maxsize=CACHE_SIZE)
def one(conductor: int = 1) -> CycloNum:
    return _make(conductor, (1,) + (0,) * (euler_phi(conductor) - 1), 1)


def from_rational(value, conductor: int = 1) -> CycloNum:
    q = Fraction(value)
    rest = (0,) * (euler_phi(conductor) - 1)
    return _make(conductor, (q.numerator,) + rest, q.denominator)


def _root(m: int, k: int, sign: int = 1) -> CycloNum:
    """sign * z^k at conductor m; the caller has checked the limit."""
    nums = [0] * euler_phi(m)
    for idx, c in _reduction_rows(m)[k % m]:
        nums[idx] = sign * c
    return _make(m, tuple(nums), 1)


def root_of_unity(m: int, k: int) -> CycloNum:
    """The k-th power of the fixed primitive m-th root of unity."""
    m = int(m)
    if m < 1:
        raise BadConductor(f"order must be positive, got {m}")
    _check_limit(m)  # before euler_phi factorises m
    return _root(m, k)


def _spread(nums, scale: int, m: int) -> list:
    """The numerators at conductor m of sum(nums[i] z^(scale * i)); the
    caller has checked the conductor limit."""
    rows = _reduction_rows(m)
    out = [0] * euler_phi(m)
    for i, c in enumerate(nums):
        if not c:
            continue
        for idx, r in rows[(i * scale) % m]:
            out[idx] += c * r
    return out


def lift_conductor(x: CycloNum, conductor: int) -> CycloNum:
    """Represent x at a larger conductor; value-preserving."""
    m = x.conductor
    conductor = int(conductor)
    if conductor % m != 0:
        raise BadConductor(f"{m} does not divide {conductor}")
    if conductor == m:
        return x
    _check_limit(conductor)
    # Z[z_m] is a direct summand of Z[z_M], so the content, and with it
    # the canonical denominator, is unchanged.
    return _make(conductor, tuple(_spread(x.nums, conductor // m, conductor)), x.den)


def _common(a: CycloNum, b: CycloNum):
    """a and b, of different conductors, lifted to the lcm of theirs."""
    m = lcm(a.conductor, b.conductor)
    return a.lift(m), b.lift(m)


# -- sums of products --------------------------------------------------------
#
# A sum of products is accumulated as one unreduced polynomial of 2 phi - 1
# integer coefficients over one common denominator, reduced modulo Phi_m
# once and made canonical with one gcd.  The canonical form of a value at a
# given conductor is unique, so the result is exactly what the left fold of
# * and + returns as long as the conductor is the fold's: the lcm of the
# conductors of all operands, zeros included.  Operands are lifted by one
# helper, Lifted, which keeps a vector's lift to each conductor: dot lifts
# its two vectors per call, and linalg.mat_mul, fusion.multiply, the
# Verlinde sums and the fusion-ring laws keep a vector shared by many sums
# and lift it once per conductor.
#
# One rule limits every such sum, checked where Lifted.at lifts a vector
# for it: a sum at a conductor over the limit raises TooLarge naming it.
# The fold raises at the same sums, though it may name a partial sum's
# conductor.  As in the fold, a sum at 1 or 2 over operands all at it
# neither lifts nor reduces, and is made under any limit.

# 1 as an operand of _sum_terms, at every conductor
_ONE = ([(0, 1)], 1)


class Lifted:
    """A vector of CycloNum lifted once to each conductor it is summed at.
    conductor is the lcm of its entries' conductors, zeros included,
    and low the least of them.
    at(m) is the vector at m as operands of _sum_terms: for each entry,
    (its nonzero coordinates [(i, c), ...], den), or None for a zero or
    for an entry whose conductor does not divide m, which a sum at m
    must not involve.  It checks the limit on a sum at m, then makes the
    lift on first use and keeps it."""

    __slots__ = ("xs", "conductor", "low", "_at")

    def __init__(self, xs):
        self.xs = xs
        conductors = {x.conductor for x in xs}
        self.conductor = lcm(*conductors)
        self.low = min(conductors, default=1)
        self._at = {}

    def at(self, m: int) -> list:
        if m > 2 or m > self.low:  # the sum lifts an entry or reduces
            _check_limit(m)
        ops = self._at.get(m)
        if ops is None:
            ops = self._at[m] = []
            for x in self.xs:
                nums = x.nums
                if x.conductor != m:
                    scale, rest = divmod(m, x.conductor)
                    nums = () if rest else _spread(nums, scale, m)
                nonzero = [(i, c) for i, c in enumerate(nums) if c]
                ops.append((nonzero, x.den) if nonzero else None)
        return ops

    def dot(self, other) -> CycloNum:
        """The sum of products with other, at the lcm of both conductors."""
        a, b = self.conductor, other.conductor
        m = a if a == b else lcm(a, b)
        return _lifted_dot(m, self.at(m), other.at(m))


def _sum_terms(m: int, terms) -> CycloNum:
    """The sum of w * x * y over the terms (x, y, w): x and y operands at
    conductor m (see Lifted), w an integer.  One reduction modulo Phi_m
    and one gcd for the whole sum, and no gcd for a zero sum."""
    acc = [0] * (2 * euler_phi(m) - 1)
    den = 0  # none before the first term, whose own it takes
    for (xs, dx), (ys, dy), w in terms:
        d = dx * dy
        if d != den:
            if not den:
                den = d
            else:
                if den % d:
                    # bring the sum so far to the lcm of the denominators
                    f = d // gcd(den, d)
                    acc = [c * f for c in acc]
                    den *= f
                w *= den // d
        if len(xs) > len(ys):
            xs, ys = ys, xs
        for i, a in xs:
            a *= w
            for j, b in ys:
                acc[i + j] += a * b
    _reduce(m, acc)
    if not any(acc):
        # most sums of a law's two sides are zero: they share the one
        # zero at m, with no gcd and no new tuple
        return zero(m)
    return _settle(m, acc, den or 1)


def _lifted_dot(m: int, xs, ys) -> CycloNum:
    """x0 * y0 + x1 * y1 + ... over vectors lifted to the conductor m."""
    return _sum_terms(m, [(x, y, 1) for x, y in zip(xs, ys) if x and y])


def dot(xs, ys) -> CycloNum:
    """x0 * y0 + x1 * y1 + ..., exactly the value, conductor and canonical
    form the left fold of * and + returns; the empty sum is zero(1).  It
    is one kernel sum at the lcm of the conductors of all the operands,
    zeros included, and raises TooLarge naming that conductor when it is
    over the limit (see Lifted).  It costs one reduction modulo the
    cyclotomic polynomial and one gcd."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise DimensionMismatch(f"sum of products over {len(xs)} and {len(ys)} terms")
    if not xs:
        return zero(1)
    return Lifted(xs).dot(Lifted(ys))


def galois_apply(x: CycloNum, q: int) -> CycloNum:
    """Image of x under the field automorphism sending z to z^q."""
    m = x.conductor
    if gcd(q, m) != 1:
        raise NotAUnit(f"{q} is not a unit modulo {m}")
    q %= m
    if q == 1:
        return x
    _check_limit(m)
    # an automorphism of Z[z] keeps the content, hence the denominator
    return _make(m, tuple(_spread(x.nums, q, m)), x.den)


def root_of_unity_order(x: CycloNum):
    """Multiplicative order of x, or None if x is not a root of unity.

    The roots of unity at conductor m are the lcm(2, m) elements +-z^k,
    looked up in a per-conductor table.
    """
    hit = _unit_entry(x)
    return None if hit is None else hit[0]


def root_of_unity_exponent(x: CycloNum):
    """(o, a) with o the order of x and x = root_of_unity(o, a), 0 <= a < o,
    or None if x is not a root of unity."""
    hit = _unit_entry(x)
    return None if hit is None else hit[:2]


def is_rational(x: CycloNum):
    """Rational value of x, or None if x has a nonconstant coordinate."""
    if any(x.nums[1:]):
        return None
    return Fraction(x.nums[0], x.den)


def is_integer(x: CycloNum):
    """Integer value of x, or None."""
    if x.den != 1 or any(x.nums[1:]):
        return None
    return x.nums[0]


def gauss_sum(n: int, q: int = 1) -> CycloNum:
    """The quadratic Gauss sum of z^(q i^2) over i < n, for z the fixed
    primitive n-th root of unity: the exponents are counted first, then
    reduced through the table of z^k once."""
    _check_limit(n)  # before euler_phi factorises n
    counts = [0] * n
    for i in range(n):
        counts[q * i * i % n] += 1
    return _make(n, tuple(_spread(counts, 1, n)), 1)


def _sqrt_prime(p: int) -> CycloNum:
    """Square root of a prime, built from its quadratic Gauss sum."""
    if p == 2:
        return root_of_unity(8, 1) + root_of_unity(8, 7)
    g = gauss_sum(p)
    if p % 4 == 1:
        return g
    return g / root_of_unity(4, 1)


def sqrt_integer(n: int) -> CycloNum:
    """An exact element whose square is n, at conductor dividing 8n.
    Only primes up to the conductor limit are tried: a larger prime to an
    odd power would need a conductor over the limit, which is TooLarge."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    limit = _conductor_limit.get()
    k = 1
    odd_primes = []
    for p, e in factorize(n, limit):
        if p > limit:
            root = isqrt(p)
            if root * root != p:
                raise TooLarge(f"a square root needs a conductor over {limit}")
            k *= root
            continue
        k *= p ** (e // 2)
        if e % 2:
            odd_primes.append(p)
    result = from_rational(k)
    for p in odd_primes:
        result = result * _sqrt_prime(p)
    return result


def jacobi_symbol(q: int, n: int) -> int:
    """Jacobi symbol (q|n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise BadModulus(f"modulus must be odd and positive, got {n}")
    q %= n
    sign = 1
    while True:
        if n == 1:
            return sign
        if q == 0:
            return 0
        while q % 4 == 0:
            q //= 4
        if q % 2 == 0:
            q //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if q == 1:
            return sign
        if q % 4 == 3 and n % 4 == 3:
            sign = -sign
        q, n = n % q, q


# -- serialization -----------------------------------------------------------

# The spellings to_json writes; any other string goes through Fraction.
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# A spelling with an exponent: Fraction builds 10**|exponent| to read it.
_EXPONENT = re.compile(r"([^eE]*)[eE]([-+]?[0-9_]+)\s*")


def _max_digits() -> int:
    """The most decimal digits int() converts from or to a string; 0
    means no limit.  Python 3.10 releases before 3.10.7 have no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def to_json(x: CycloNum) -> dict:
    """Wire form {"conductor": m, "coeffs": ["p/q", ...]} with phi(m)
    entries in lowest terms; denominators of 1 are omitted.  A value with
    more digits than str() converts raises TooLarge."""
    den = x.den
    try:
        if den == 1:
            coeffs = [str(c) for c in x.nums]
        else:
            coeffs = []
            for c in x.nums:
                g = gcd(c, den)
                coeffs.append(
                    str(c // g) if g == den else f"{c // g}/{den // g}"
                )
    except ValueError:
        raise TooLarge(
            f"a coefficient has more than {_max_digits()} digits to print"
        ) from None
    return {"conductor": x.conductor, "coeffs": coeffs}


def from_json(obj) -> CycloNum:
    """Inverse of to_json.  A coefficient is a JSON integer or any string
    ``fractions.Fraction`` accepts; a zero denominator, or an exponent
    spelling with more digits than int() reads, is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("expected an object with conductor and coeffs")
    m = obj.get("conductor")
    coeffs = obj.get("coeffs")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError("conductor must be a positive integer")
    if not isinstance(coeffs, list):
        raise ValueError("coeffs must be a list")
    _check_limit(m)  # before euler_phi factorises it
    phi = euler_phi(m)
    if len(coeffs) != phi:
        raise ValueError(f"need {phi} coefficients at conductor {m}")
    nums = []
    dens = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, (int, str)):
            raise ValueError(f"coefficient {c!r} is not an integer or string")
        if isinstance(c, int):
            p, q = c, 1
        else:
            match = _CANONICAL.fullmatch(c)
            if match is not None:
                p, q = int(match[1]), int(match[2] or 1)
            else:
                exponent, limit = _EXPONENT.fullmatch(c), _max_digits()
                if exponent and limit:
                    # digits of the numerator or denominator it builds
                    digits = sum(map(str.isdigit, exponent[1]))
                    digits += abs(int(exponent[2]))
                    if digits > limit:
                        raise ValueError(
                            f"coefficient needs {digits} digits, over {limit}"
                        )
                try:
                    value = Fraction(c)
                except ZeroDivisionError:
                    q = 0
                else:
                    p, q = value.numerator, value.denominator
            if q == 0:
                raise ValueError(f"coefficient {c!r} has a zero denominator")
        nums.append(p)
        dens.append(q)
    den = lcm(*dens)
    return _reduced(m, [p * (den // q) for p, q in zip(nums, dens)], den)
