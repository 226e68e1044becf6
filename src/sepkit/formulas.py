"""Closed-form h*-polynomials of symmetric edge polytopes: complete
bipartite graphs, the families K_{1,m,n}, K_{1,1,1,n} and K_{2,2,n}, and the
full tripartite formula assembled from the facet-type decomposition.

Each family's closed form is its gamma vector: h* = sum_i gamma_i t^i
(1+t)^(d-2i), the basis in which gamma-positivity is read (Ohsugi and
Tsuchiya, 2021).  One integer binomial sum, `polynomial.gamma_expand`, turns
a gamma vector into coefficients.  The tripartite formula is a sum of t^e
terms, collected as an integer histogram.

Binomial coefficients follow the combinatorial convention: any negative or
out-of-range argument gives 0.  That makes the case table for the r-counts
total and the boundary terms of the type-(i) sums come out right.

Two display-level corrections baked in here (each is forced by agreement
with the enumerated triangulation and the counting oracle, which the test
suite checks signature by signature):

  * in the type-(i) sum, the planar-tree factor for a class of size y inside
    a graph on x vertices is binom(x - y + j - i - 2, j - 1) for every class,
    the first class included;
  * the innermost chain-count sum runs j over 0 .. c_{n-1} - 1, like all its
    siblings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Optional, Sequence

from .graphs import Signature, VerificationFailed
from .polynomial import HStar, ONE_PLUS_T, Poly, ehrhart_from_hstar, gamma_expand


class IdentityFailed(VerificationFailed, ArithmeticError):
    """Two exact routes to one closed form disagreed."""


def binom(n: int, k: int) -> int:
    """Binomial coefficient that is 0 whenever (n, k) is out of range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


# ---------------------------------------------------------------------------
# Bipartite and small multipartite families
# ---------------------------------------------------------------------------


def _matching_gamma(m: int, n: int) -> list[int]:
    """binom(2i,i) binom(m,i) binom(n,i) for i = 0..min(m,n): the gamma vector
    shared by K_{m+1,n+1} and K_{1,m,n}."""
    return [binom(2 * i, i) * binom(m, i) * binom(n, i) for i in range(min(m, n) + 1)]


def hstar_bipartite(a: int, b: int) -> HStar:
    """h* of the symmetric edge polytope of K_{a+1,b+1}:

        sum_i binom(2i,i) binom(a,i) binom(b,i) t^i (1+t)^(a+b+1-2i)
    """
    if a < 0 or b < 0:
        raise ValueError("parameters must be nonnegative")
    d = a + b + 1
    return HStar(Poly(gamma_expand(_matching_gamma(a, b), d)), d)


def hstar_1mn(m: int, n: int) -> HStar:
    """h* of K_{1,m,n}: sum_i binom(2i,i) binom(m,i) binom(n,i) t^i (1+t)^(m+n-2i)."""
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    d = m + n
    return HStar(Poly(gamma_expand(_matching_gamma(m, n), d)), d)


def suspension_weight_poly(n: int) -> Poly:
    """The cut-sum polynomial behind the K_{1,1,1,n} suspension:
    3(n-1)n/16 t^2 + (2n+1)/2 t + 1."""
    return Poly((1, Fraction(2 * n + 1, 2), Fraction(3 * (n - 1) * n, 16)))


def suspension_substitute(f: Poly, d: int) -> Poly:
    """(1+t)^d f(4t / (1+t)^2), expanded exactly: the gamma vector f_i 4^i.
    Needs d >= 2 deg(f)."""
    return Poly(gamma_expand([c * 4**i for i, c in enumerate(f.coeffs)], d))


def hstar_111n(n: int) -> HStar:
    """h* of K_{1,1,1,n}:

        3(n-1)n (1+t)^(n-2) t^2 + 2(2n+1) (1+t)^n t + (1+t)^(n+2)

    which is also (1+t)^(n+2) f(4t/(1+t)^2) for the cut-sum polynomial f;
    both routes are computed and compared exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = n + 2
    direct = Poly(gamma_expand([1, 2 * (2 * n + 1), 3 * (n - 1) * n], d))
    via_suspension = suspension_substitute(suspension_weight_poly(n), d)
    if direct != via_suspension:
        raise IdentityFailed(f"K_(1,1,1,{n}): direct form {direct} != suspension form {via_suspension}")
    return HStar(direct, d)


def hstar_22n(n: int) -> HStar:
    """h* of K_{2,2,n}:

        20 binom(n,3) (1+t)^(n-3) t^3 + 2 binom(3n,2) (1+t)^(n-1) t^2
        + 2 binom(3n+1,1) (1+t)^(n+1) t + (1+t)^(n+3)
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = n + 3
    gamma = [1, 2 * binom(3 * n + 1, 1), 2 * binom(3 * n, 2), 20 * binom(n, 3)]
    return HStar(Poly(gamma_expand(gamma, d)), d)


# ---------------------------------------------------------------------------
# The tripartite formula
# ---------------------------------------------------------------------------


def aux_p(x: int, y: int, i: int, j: int) -> int:
    """p(x,y,i,j) = binom(x-y-1, i) binom(y-1, j) binom(y+i-j-1, i)."""
    return binom(x - y - 1, i) * binom(y - 1, j) * binom(y + i - j - 1, i)


def aux_q(a: int, b: int, c: int, nu: Sequence[int]) -> int:
    """Number of type-(ii) labelings with given per-class zero counts and the
    smallest vertex labeled 1: binom(a-1, nu1) binom(b, nu2) binom(c, nu3)."""
    n1, n2, n3 = nu
    return binom(a - 1, n1) * binom(b, n2) * binom(c, n3)


def aux_c(*sizes: int) -> int:
    """Number of compatible chains of planar spanning trees along a path of
    vertex classes with the given sizes.

    Every middle class splits at one shared vertex into a prefix facing left
    and a suffix facing right; summing the product of planar-tree counts of
    consecutive pieces over all split points gives, with j_i the size of the
    i-th left-facing prefix minus one,

        sum_{j_2=0}^{c_2-1} ... sum_{j_{n-1}=0}^{c_{n-1}-1}
            binom(c_1+j_2-1, j_2) binom(c_{n-1}-j_{n-1}+c_n-2, c_n-1)
            prod_i binom(c_i-j_i+j_{i+1}-1, j_{i+1}).

    Length-2 chains degenerate to a single planar-tree count.
    """
    n = len(sizes)
    if n < 1 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid chain sizes {sizes}")
    if n == 1:
        return 1 if sizes[0] == 1 else 0
    if n == 2:
        return binom(sizes[0] + sizes[1] - 2, sizes[1] - 1)
    total = 0
    # js[t] = j_{t+2}; every j_i runs over 0 .. c_i - 1
    for js in product(*(range(c) for c in sizes[1:-1])):
        term = binom(sizes[0] + js[0] - 1, js[0])
        term *= binom(sizes[n - 2] - js[-1] + sizes[n - 1] - 2, sizes[n - 1] - 1)
        for t in range(1, len(js)):
            term *= binom(sizes[t] - js[t - 1] + js[t] - 1, js[t])
        total += term
    return total


def aux_r(a: int, b: int, c: int, nu: Sequence[int]) -> int:
    """Simplex count of the type-(ii) facet in normal form with zero counts
    nu = (nu1, nu2, nu3).  The facet graph reduces to a path of vertex
    classes; every case of the table below is a chain count, and tuples that
    are not facet-defining fall through to 0."""
    n1, n2, n3 = nu
    mid1 = n1 not in (0, a)
    mid2 = n2 not in (0, b)
    mid3 = n3 not in (0, c)
    if n1 == 0 and n2 == b and n3 == c:
        return aux_c(b, a, c)
    if n1 == 0 and n2 == b and n3 == 0:
        return aux_c(a, b, c)
    if n1 == 0 and n2 == 0 and n3 == c:
        return aux_c(a, c, b)
    if n1 == 0 and n2 == b and mid3:
        return aux_c(n3, a, b, c - n3)
    if n1 == 0 and mid2 and n3 == c:
        return aux_c(n2, a, c, b - n2)
    if mid1 and n2 == b and n3 == 0:
        return aux_c(n1, c, b, a - n1)
    if mid1 and n2 == 0 and n3 == c:
        return aux_c(n1, b, c, a - n1)
    if n1 == 0 and mid2 and mid3:
        return aux_c(b - n2, n3, a, n2, c - n3)
    if mid1 and n2 == 0 and mid3:
        return aux_c(a - n1, n3, b, n1, c - n3)
    if mid1 and n2 == b and mid3:
        return aux_c(n1, c - n3, b, a - n1, n3)
    if mid1 and mid2 and n3 == 0:
        return aux_c(a - n1, n2, c, n1, b - n2)
    if mid1 and mid2 and n3 == c:
        return aux_c(n1, b - n2, c, a - n1, n2)
    if mid1 and mid2 and mid3:
        # The three reduced class graphs are the zero/one class 6-cycle with
        # one blocked edge removed; each summand walks one of those paths.
        return (
            aux_c(a - n1, n2, c - n3, n1, b - n2, n3)
            + aux_c(n1, c - n3, n2, a - n1, n3, b - n2)
            + aux_c(n2, a - n1, n3, b - n2, n1, c - n3)
        )
    return 0


def hstar_type_i(parts: Sequence[int]) -> Poly:
    """Type-(i) contribution for any number of classes:

        sum over the mixed class A_m of
        sum_{i,j} p(a, a_m, i, j) binom(a - a_m + j - i - 2, j - 1)
                  (t^(i + j + [m = 1]) + t^(a - i - j - 1 - [m = 1]))

    where a is the total vertex count.  The exponent shift on the first
    class only accounts for the root being 1-labeled there.
    """
    a = sum(parts)
    total = [0] * a
    for m, am in enumerate(parts):
        shift = 1 if m == 0 else 0
        for i in range(a - am):
            for j in range(1, am):
                coeff = aux_p(a, am, i, j) * binom(a - am + j - i - 2, j - 1)
                if coeff:
                    total[i + j + shift] += coeff
                    total[a - i - j - 1 - shift] += coeff
    return Poly(total)


def hstar_type_ii(a: int, b: int, c: int) -> Poly:
    """Type-(ii) contribution for K_{a,b,c}:

        sum_nu q(nu) r(nu) (t^(nu1+nu2+nu3) + t^(a+b+c-1-nu1-nu2-nu3))
    """
    top = a + b + c - 1
    total = [0] * (top + 1)
    for n1 in range(a):
        for n2 in range(b + 1):
            for n3 in range(c + 1):
                qr = aux_q(a, b, c, (n1, n2, n3)) * aux_r(a, b, c, (n1, n2, n3))
                if qr:
                    s = n1 + n2 + n3
                    total[s] += qr
                    total[top - s] += qr
    return Poly(total)


def hstar_tripartite_parts(a: int, b: int, c: int) -> tuple[Poly, Poly]:
    if min(a, b, c) < 1:
        raise ValueError("class sizes must be positive")
    return hstar_type_i((a, b, c)), hstar_type_ii(a, b, c)


def hstar_tripartite(a: int, b: int, c: int) -> HStar:
    """h* of K_{a,b,c} as the sum of the two facet-type contributions."""
    hi, hii = hstar_tripartite_parts(a, b, c)
    return HStar(hi + hii, a + b + c - 1)


# ---------------------------------------------------------------------------
# Identities and dispatch
# ---------------------------------------------------------------------------


def contraction_identity_check(m: int, n: int) -> bool:
    """h* of K_{m+1,n+1} equals (1+t) times h* of K_{1,m,n}, exactly
    (contracting an edge of the bipartite graph yields the tripartite one)."""
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    return hstar_bipartite(m, n).poly == ONE_PLUS_T * hstar_1mn(m, n).poly


def ehrhart_bipartite(m: int, n: int) -> Poly:
    """Ehrhart polynomial of the symmetric edge polytope of K_{m,n}.

    K_{1,0} degenerates to a point (E = 1); it shows up as the vanishing
    term of one recursion and nowhere else.
    """
    if (m, n) in ((1, 0), (0, 1)):
        return Poly.one()
    return ehrhart_from_hstar(hstar_bipartite(m - 1, n - 1))


def ehrhart_1mn(m: int, n: int) -> Poly:
    return ehrhart_from_hstar(hstar_1mn(m, n))


def ehrhart_111n(n: int) -> Poly:
    return ehrhart_from_hstar(hstar_111n(n))


def ehrhart_22n(n: int) -> Poly:
    return ehrhart_from_hstar(hstar_22n(n))


def closed_form_hstar(sig: Signature) -> Optional[HStar]:
    """Dispatch to a closed form when one covers the signature.

    Bipartite, tripartite and K_{1,1,1,n} signatures are covered; everything
    else returns None.  The result is order-independent, as it must be.
    """
    parts = sorted(sig.parts)
    if sig.k == 2:
        return hstar_bipartite(parts[0] - 1, parts[1] - 1)
    if sig.k == 3:
        a, b, c = sig.parts
        return hstar_tripartite(a, b, c)
    if sig.k == 4 and parts[:3] == [1, 1, 1]:
        return hstar_111n(parts[3])
    return None
