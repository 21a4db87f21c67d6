"""Extensions of modular data and congruence levels.

An extension fixes a generalized rank D (a fourth root of the squared
global dimension) and a multiplicative central charge (a cube root of
g / (n_o t_o D)); the rescaled matrices S/D and T/(t_o ell) then satisfy
the defining relations of the modular group and generate an honest
linear representation.  Whether that representation (or the projective
one of the raw matrices) factors through the reduction of the modular
group modulo M is decided by a Cayley-graph consistency check over the
finite group: assign each group element the matrix of its defining word
along a breadth-first search and verify every remaining edge.  An
assignment consistent along all edges is exactly a homomorphism from
the finite group, so the check is sound and complete.

A linear representation rho needs one such check for every level at
once.  For M | L the kernel of the reduction from modulo L to modulo M
is the normal closure of t^M (Wohlfahrt 1964; the tests check it by
brute force for every M | L <= 24).  So rho factors at M exactly when
L0 = ord rho(t) divides M and rho factors at L0, and L0 is then the
least level.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import cyclo, linalg
from .cyclo import CycloNum, root_of_unity
from .datum import ModularDatum, basic_stats, derived
from .errors import (
    ChargeNotRootOfUnity,
    ChargeOrderTooLarge,
    InvalidExtension,
    NotIntegral,
    TooLarge,
)
from .report import Frozen, jsonable

DEFAULT_MAX_GROUP_ORDER = 1_000_000


# -- extended data ----------------------------------------------------------


class ExtendedDatum(Frozen):
    """A datum together with a chosen generalized rank and central charge."""

    __match_args__ = ("datum", "rank", "charge", "is_rank")

    def __init__(self, datum: ModularDatum, rank: CycloNum, charge: CycloNum,
                 is_rank: bool):
        self.__dict__.update(datum=datum, rank=rank, charge=charge,
                             is_rank=is_rank)


class RankOption(Frozen):
    __match_args__ = ("value", "is_rank")

    def __init__(self, value: CycloNum, is_rank: bool):
        self.__dict__.update(value=value, is_rank=is_rank)


def enumerate_ranks(d: ModularDatum):
    """The four solutions of D^4 = n^2, namely +-sqrt(n) and +-i sqrt(n),
    flagged by whether D^2 = n, which holds for +-sqrt(n) only, as
    (+-i sqrt(n))^2 = -n and n > 0."""
    stats = basic_stats(d)
    if stats.n_int is None or stats.n_int <= 0:
        raise NotIntegral("ranks require a positive integer global dimension")
    r = cyclo.sqrt_integer(stats.n_int)
    ir = root_of_unity(4, 1) * r
    return [RankOption(value=value, is_rank=k < 2)
            for k, value in enumerate((r, -r, ir, -ir))]


def enumerate_charges(d: ModularDatum, rank: CycloNum):
    """The three cube roots of w = g / (n_o t_o D).

    With w the a-th power of the primitive o-th root of unity, they are
    the (a + k o)-th powers of the primitive 3o-th root, k = 0, 1, 2.  They
    are listed in the order a scan of z^j, then -z^j, for j = 0, 1, ...
    over the 3o-th roots meets them, which fixes the family order: when 3o
    is even, z^j is also -z^(j + 3o/2), met first if that index is smaller.
    """
    return _cube_roots(_charge_exponent(d, rank))


def _charge_exponent(d: ModularDatum, rank: CycloNum) -> Fraction:
    """The e with g / (n_o t_o D) = exp(2 pi i e), 0 <= e < 1."""
    stats = basic_stats(d)
    sq = rank * rank
    if sq * sq != stats.n * stats.n:
        raise InvalidExtension("not a generalized rank: fourth power differs")
    w = stats.g / (stats.n_o * stats.t_o * rank)
    hit = cyclo.root_of_unity_exponent(w)
    if hit is None:
        raise ChargeNotRootOfUnity(
            "g/(n_o t_o D) is not a root of unity; invalid datum/rank pair"
        )
    return Fraction(hit[1], hit[0])


def _cube_roots(e: Fraction) -> list:
    """The cube roots of exp(2 pi i e), ordered as enumerate_charges says."""
    order, a = e.denominator, e.numerator
    bound = 3 * order

    def first_met(j):
        return j if bound % 2 else min(j, (j + bound // 2) % bound)

    exponents = sorted((a + k * order for k in range(3)), key=first_met)
    return [root_of_unity(bound, j) for j in exponents]


def make_extension(d: ModularDatum, rank: CycloNum, charge: CycloNum) -> ExtendedDatum:
    stats = basic_stats(d)
    sq = rank * rank
    if sq * sq != stats.n * stats.n:
        raise InvalidExtension("fourth power of the rank is not n^2")
    if charge ** 3 != stats.g / (stats.n_o * stats.t_o * rank):
        raise InvalidExtension("cube of the charge is not g/(n_o t_o D)")
    if cyclo.root_of_unity_order(charge) is None:
        raise InvalidExtension("central charge is not a root of unity")
    return ExtendedDatum(
        datum=d, rank=rank, charge=charge, is_rank=sq == stats.n
    )


@derived
def _family_choices(d: ModularDatum) -> tuple:
    """(rank, charge, is_rank) of each of the twelve extensions.  Kept on
    the datum without the ExtendedDatums, which would hold the datum and
    make a reference cycle through its memo."""
    options = enumerate_ranks(d)
    stats = basic_stats(d)
    e = _charge_exponent(d, options[0].value)
    # w = g / (n_o t_o D) is w(r) times -1, -i, i for D = -r, ir, -ir: its
    # exponent is e + 1/2, 3/4, 1/4.  With c past the conductor limit or an
    # inverse's degree bound, each rank divides, to raise where it did.
    c = lcm(stats.n_o.conductor, stats.t_o.conductor,
            *[option.value.conductor for option in options])
    if (lcm(c, stats.g.conductor) <= cyclo.get_conductor_limit()
            and cyclo.euler_phi(c) <= cyclo.MAX_INVERSE_DEGREE):
        exponents = ((e + Fraction(k, 4)) % 1 for k in (0, 2, 3, 1))
    else:  # each rank's division after the charges of the one before
        exponents = (_charge_exponent(d, option.value) for option in options)
    return tuple((option.value, charge, option.is_rank)
                 for option, e in zip(options, exponents) for charge in _cube_roots(e))


def extension_family(d: ModularDatum):
    """All twelve extensions: four generalized ranks times three charges."""
    return [
        ExtendedDatum(datum=d, rank=rank, charge=charge, is_rank=is_rank)
        for rank, charge, is_rank in _family_choices(d)
    ]


def _homogeneous_t_diag(e: ExtendedDatum):
    """The diagonal of T' = T/(t_o ell)."""
    scale = (basic_stats(e.datum).t_o * e.charge).inverse()
    return tuple(t * scale for t in e.datum.t_diag)


def _dehn_order(e: ExtendedDatum):
    """ord T', the least L with T'^L = I, or None when some entry of T'
    is not a root of unity."""
    orders = [cyclo.root_of_unity_order(t) for t in _homogeneous_t_diag(e)]
    return None if None in orders else lcm(*orders)


def homogeneous_matrices(e: ExtendedDatum):
    """S' = S/D and T' = T/(t_o ell), verified to satisfy the defining
    relations of the modular group: S'^4 = E and (T'S')^3 = S'^2."""
    d = e.datum
    s_prime = linalg.mat_scale(d.s_matrix, e.rank.inverse())
    t_prime_diag = _homogeneous_t_diag(e)
    t_prime = linalg.diag_matrix(t_prime_diag)
    s2 = linalg.mat_mul(s_prime, s_prime)
    s4 = linalg.mat_mul(s2, s2)
    if not linalg.mat_eq(s4, linalg.mat_identity(d.size)):
        raise InvalidExtension("S'^4 is not the identity")
    ts = tuple(
        tuple(t_prime_diag[i] * x for x in row)
        for i, row in enumerate(s_prime)
    )
    ts3 = linalg.mat_mul(linalg.mat_mul(ts, ts), ts)
    if not linalg.mat_eq(ts3, s2):
        raise InvalidExtension("(T'S')^3 is not S'^2")
    return s_prime, t_prime


def additive_charge(e: ExtendedDatum) -> int:
    """The residue c mod 24 with ell equal to the c-th power of the fixed
    primitive 24th root of unity.  For integral data of odd exponent
    extended by an honest rank, c is verified to be even."""
    hit = cyclo.root_of_unity_exponent(e.charge)
    if hit is None or 24 % hit[0]:
        raise ChargeOrderTooLarge("central charge is not a 24th root of unity")
    order, a = hit
    c = a * (24 // order)
    stats = basic_stats(e.datum)
    if stats.integral and stats.N % 2 == 1 and e.is_rank and c % 2 != 0:
        raise InvalidExtension(
            f"odd-exponent datum with a rank has odd additive charge {c}"
        )
    return c


# -- the modular group and its reductions -----------------------------------


def _flat_mul(a, b, modulus):
    return (
        (a[0] * b[0] + a[1] * b[2]) % modulus,
        (a[0] * b[1] + a[1] * b[3]) % modulus,
        (a[2] * b[0] + a[3] * b[2]) % modulus,
        (a[2] * b[1] + a[3] * b[3]) % modulus,
    )


def sl2_order(modulus: int) -> int:
    order = modulus**3
    for p, _ in cyclo.factorize(modulus):
        order = order * (p * p - 1) // (p * p)
    return order


def _check_group_order(modulus: int, max_group_order: int) -> int:
    """The exact order of the reduced modular group, raising TooLarge
    before any work is done when it exceeds the bound."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if modulus > max_group_order:
        # the order is at least the modulus; known without factorising it
        raise TooLarge(
            f"group order at modulus {modulus} exceeds bound {max_group_order}"
        )
    predicted = sl2_order(modulus)
    if predicted > max_group_order:
        raise TooLarge(
            f"group order {predicted} exceeds bound {max_group_order}"
        )
    return predicted


class SL2Mod(Frozen):
    """The special linear group of 2x2 matrices modulo M, enumerated by a
    breadth-first closure from the identity under the generators s and t.
    Elements are flat (a, b, c, d) tuples."""

    __match_args__ = ("modulus", "elements")

    def __init__(self, modulus: int, elements: tuple):
        self.__dict__.update(modulus=modulus, elements=elements)

    @property
    def order(self) -> int:
        return len(self.elements)


def sl2_enumerate(modulus: int, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> SL2Mod:
    """Enumerate the reduced modular group, guarded by the exact order
    formula so oversized requests fail before any work is done: the
    walk of the constant assignment, which no edge contradicts."""
    modulus = int(modulus)
    _check_group_order(modulus, max_group_order)
    elements = _walk(modulus, lambda value, gen_idx: 0)[0]
    return SL2Mod(modulus=modulus, elements=tuple(elements))


def _walk(modulus: int, step):
    """One breadth-first walk of the reduced modular group from the
    identity, which holds the value 0, following s (generator index 0)
    then t (index 1) from each element in discovery order.  An element
    reached for the first time holds step(value of its parent, generator
    index); every later edge into it must give the value it holds.

    Returns the elements in discovery order and the first edge that
    disagrees, as (element, word in s and t, held value, computed value),
    or None when every edge agrees; the walk stops at that edge.
    Positive words in s and t exhaust the finite group, and an assignment
    consistent along every (element, generator) edge is a homomorphism.
    """
    identity = (1 % modulus, 0, 0, 1 % modulus)
    gens = (
        tuple(x % modulus for x in (0, -1, 1, 0)),
        tuple(x % modulus for x in (1, 1, 0, 1)),
    )
    index = {identity: 0}
    elements = [identity]
    parents = [(-1, "")]  # (parent index, letter) each element came from
    values = [0]
    gi = 0
    while gi < len(elements):
        g, value = elements[gi], values[gi]
        for gen_idx, x in enumerate(gens):
            h = _flat_mul(g, x, modulus)
            computed = step(value, gen_idx)
            hi = index.setdefault(h, len(elements))
            if hi == len(elements):
                elements.append(h)
                parents.append((gi, "st"[gen_idx]))
                values.append(computed)
            elif values[hi] != computed:
                word = "st"[gen_idx]
                while gi > 0:
                    gi, letter = parents[gi]
                    word = letter + word
                return elements, (h, word, values[hi], computed)
        gi += 1
    return elements, None


class Witness(Frozen):
    """First inconsistent edge of the consistency search."""

    __match_args__ = ("element", "word", "assigned", "computed")

    def __init__(self, element: tuple, word: str, assigned: tuple,
                 computed: tuple):
        self.__dict__.update(element=element, word=word, assigned=assigned,
                             computed=computed)

    def to_json(self):
        return {
            "element": [list(self.element[:2]), list(self.element[2:])],
            "word": self.word,
            "assigned": jsonable(self.assigned),
            "computed": jsonable(self.computed),
        }


class CongruenceReport(Frozen):
    __match_args__ = ("modulus", "linear_factors", "projective_factors",
                      "witness")

    def __init__(self, modulus: int, linear_factors: bool | None,
                 projective_factors: bool | None,
                 witness: Witness | None = None):
        self.__dict__.update(modulus=modulus, linear_factors=linear_factors,
                             projective_factors=projective_factors,
                             witness=witness)


def _proj_normalize(mat):
    """mat, which is invertible, scaled so its first nonzero entry is 1."""
    x = next(x for row in mat for x in row if not x.is_zero())
    return linalg.mat_scale(mat, x.inverse())


def factor_check(
    s_mat,
    t_mat,
    modulus: int,
    mode: str = "linear",
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> CongruenceReport:
    """Decide whether mapping the two generators to the given matrices
    factors through the reduced modular group of the given modulus.

    One breadth-first walk of the group (`_walk`) assigns each element,
    when it is first reached, the matrix of its defining word, and checks
    each later Cayley edge into it as it goes: the edge must agree
    exactly (linear mode) or up to a scalar (projective mode, realized
    by keeping every assigned matrix scaled so its first nonzero entry
    is one).  The walk stops at the first disagreeing edge, in walk
    order, which becomes the witness.  Nothing is kept between calls.
    """
    if mode not in ("linear", "projective"):
        raise ValueError(f"unknown mode {mode!r}")
    projective = mode == "projective"
    linalg.mat_inverse(s_mat)
    linalg.mat_inverse(t_mat)
    _check_group_order(modulus, max_group_order)
    m = len(s_mat)
    conductor = lcm(
        linalg.common_conductor(s_mat), linalg.common_conductor(t_mat)
    )
    s_lift = linalg.mat_lift(s_mat, conductor)
    t_lift = linalg.mat_lift(t_mat, conductor)
    t_diag = None
    if all(
        t_lift[i][j].is_zero()
        for i in range(m)
        for j in range(m)
        if i != j
    ):
        t_diag = tuple(t_lift[i][i] for i in range(m))

    identity = linalg.mat_identity(m, conductor)
    # edges compare and cache indices of distinct matrices, not keys
    matrices = [identity]
    index = {linalg.mat_key(identity): 0}
    products = ({}, {})

    def step(idx, gen_idx):
        out_idx = products[gen_idx].get(idx)
        if out_idx is not None:
            return out_idx
        matrix = matrices[idx]
        if gen_idx == 0:
            out = linalg.mat_mul(matrix, s_lift)
        elif t_diag is not None:
            out = linalg.mat_mul_diag(matrix, t_diag)
        else:
            out = linalg.mat_mul(matrix, t_lift)
        if projective:
            out = _proj_normalize(out)
        out_idx = index.setdefault(linalg.mat_key(out), len(matrices))
        if out_idx == len(matrices):
            matrices.append(out)
        products[gen_idx][idx] = out_idx
        return out_idx

    edge = _walk(modulus, step)[1]
    if edge is not None:
        element, word, held, computed = edge
        return CongruenceReport(
            modulus=modulus,
            linear_factors=None if projective else False,
            projective_factors=False if projective else None,
            witness=Witness(element, word, matrices[held], matrices[computed]),
        )
    # a linear representation that factors also factors projectively
    return CongruenceReport(
        modulus=modulus,
        linear_factors=None if projective else True,
        projective_factors=True,
    )


def _projective_check(d: ModularDatum, level: int,
                      max_group_order: int) -> CongruenceReport:
    """factor_check of the raw S and T of d, projectively, at the level."""
    return factor_check(d.s_matrix, linalg.diag_matrix(d.t_diag), level,
                        "projective", max_group_order)


def _linear_at_dehn_order(e: ExtendedDatum, max_group_order: int):
    """(L0, whether the homogeneous matrices of e factor linearly at
    L0 = ord T'), or (None, False) when some entry of T' is not a root
    of unity.  homogeneous_matrices runs, and may raise, first."""
    s_prime, t_prime = homogeneous_matrices(e)
    level = _dehn_order(e)
    return level, level is not None and factor_check(
        s_prime, t_prime, level, "linear", max_group_order
    ).linear_factors


def lift_search(
    d: ModularDatum,
    modulus: int,
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER,
):
    """The members of the twelve-member extension family whose
    homogeneous matrices factor linearly at the given level, in family
    order.  An empty result proves that no extension lifts there.

    The result is exact with at most one Cayley-graph search:

    - an extension whose ord T' does not divide M cannot factor at M,
      because t^M = I modulo M;
    - any two extensions differ by S'_e = x S'_b and T'_e = y T'_b with
      x = D_b/D_e and y = ell_b/ell_e.  As D_b^4 = D_e^4 = n^2 and
      ell_b^3 D_b = ell_e^3 D_e, x^4 = 1 and y^3 x = 1 (tests pin both),
      so (x, y) is a character chi of the modular group and
      rho_e = chi (x) rho_b;
    - among the remaining candidates chi(t) = y has y^M = 1, so y is a
      twelfth root of unity of order dividing M.  Each such character
      factors through the reduction modulo ord(y) (tests pin this for
      all twelve), hence modulo M.  So rho_e factors at M exactly when
      rho_b does, and one search on the first candidate decides all;
    - that search runs at L0 = ord T'_b, a divisor of M (see the module
      docstring), where the group is no larger than at M.

    The group order is held to the bound at M before anything else, so
    an oversized level raises TooLarge even when no candidate is left.
    """
    modulus = int(modulus)
    _check_group_order(modulus, max_group_order)

    def divides(e):
        level = _dehn_order(e)
        return level is not None and modulus % level == 0

    candidates = [e for e in extension_family(d) if divides(e)]
    if not candidates:
        return []
    factors = _linear_at_dehn_order(candidates[0], max_group_order)[1]
    return candidates if factors else []
