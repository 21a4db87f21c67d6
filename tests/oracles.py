"""Independent oracles used by the test suite.

These recompute expected values by routes that do not share code with
the implementations they check, or, for the congruence search, by the
exhaustive route that the fast path replaces.
"""

from moddata import cyclo, linalg
from moddata.cyclo import root_of_unity
from moddata.extension import extension_family, factor_check, homogeneous_matrices


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


def oracle_lift_search(d, modulus):
    """The extensions of d whose homogeneous matrices factor linearly at
    the modulus, by one exhaustive Cayley-graph check per extension."""
    survivors = []
    for e in extension_family(d):
        s_prime, t_prime = homogeneous_matrices(e)
        if factor_check(s_prime, t_prime, modulus, "linear").linear_factors:
            survivors.append(e)
    return survivors
