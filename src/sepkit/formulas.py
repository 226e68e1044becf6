"""Closed-form h*-polynomials of symmetric edge polytopes of complete
multipartite graphs K_{a_1,...,a_k}, for every k >= 2.

`closed_form_hstar` answers for every signature on n vertices through its
gamma vector (`_closed_gamma`),

    gamma_i = binom(2i, i) [binom(n-1, 2i)
              - sum_m sum_{j>i} binom(a_m, j) binom(n-1-a_m, 2i-j)],

where binom(2i, i) binom(n-1, 2i) is the gamma vector of K_n, whose h* is
sum_i binom(n-1, i)^2 t^i, the type-A root polytope (Ardila, Beck, Hosten,
Pfeifle and Seashore, 2011), and each class of size a subtracts a term that
depends only on n and a and vanishes for i >= a.  The sum is checked, not
proved.  Its h* equals binom(n-1, i)^2 plus one class term per class,
built from the facet-type helpers below, on every signature up to total
30, `counting.hstar_oracle` up to total 18 and the enumerated triangulation
up to total 9.  Tier-1 keeps the oracle check up to total 14 and the
class-term and facet-type checks up to total 16.

The two facet-type contributions, which `hstar_type_i` and `hstar_type_ii`
return as a `Poly`, are sums over per-class helpers.  They stay the referee
of the closed form and of the enumerated triangulation's facet-type split.
The family forms (complete bipartite graphs, K_{1,m,n}, K_{1,1,1,n},
K_{2,2,n} and the tripartite split) stay as referees too.

Each closed form here, the general one and each family's, is a gamma
vector: h* = sum_i gamma_i t^i (1+t)^(d-2i), the basis in which
gamma-positivity is read (Ohsugi and Tsuchiya, 2021).  One integer binomial
sum, `polynomial.gamma_expand`, turns a gamma vector into coefficients.  The facet-type parts are sums of t^e
terms, collected as integer histograms.

The type-(ii) part is a sum over the zero count Z.  A type-(ii) facet is the
root polytope of its tight bipartite graph H, whose simplex count is the
number of left-degree vectors of spanning trees of H (Postnikov,
"Permutohedra, associahedra, and beyond", 2009, section 12; Kalman and
Postnikov, 2017).  The vertices inside a class are interchangeable, so the
count over every labeling with Z zeros collapses to a few binomial sums, and
the part costs O(n^3) binomials for n vertices, whatever the class sizes.

Binomial coefficients follow the combinatorial convention: any negative or
out-of-range argument gives 0.  That makes the boundary terms of the
type-(i) sums come out right.

One display-level correction is baked in here (it is forced by agreement
with the enumerated triangulation and the counting oracle, which the test
suite checks signature by signature): in the type-(i) sum, the planar-tree
factor for a class of size y inside a graph on x vertices is
binom(x - y + j - i - 2, j - 1) for every class, the first class included.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Sequence

from .graphs import Signature, VerificationFailed
from .polynomial import HStar, Poly, ehrhart_from_hstar, gamma_expand


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
    return HStar(gamma_expand(_matching_gamma(a, b), d), d)


def hstar_1mn(m: int, n: int) -> HStar:
    """h* of K_{1,m,n}: sum_i binom(2i,i) binom(m,i) binom(n,i) t^i (1+t)^(m+n-2i)."""
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    d = m + n
    return HStar(gamma_expand(_matching_gamma(m, n), d), d)


def suspension_weight_poly(n: int) -> Poly:
    """The cut-sum polynomial behind the K_{1,1,1,n} suspension:
    3(n-1)n/16 t^2 + (2n+1)/2 t + 1."""
    return Poly.over((16, 8 * (2 * n + 1), 3 * (n - 1) * n), 16)


def suspension_substitute(f: Poly, d: int) -> Poly:
    """(1+t)^d f(4t / (1+t)^2), expanded exactly: the gamma vector f_i 4^i.
    Needs d >= 2 deg(f)."""
    return Poly.over(gamma_expand([c << 2 * i for i, c in enumerate(f.num)], d), f.den)


def hstar_111n(n: int) -> HStar:
    """h* of K_{1,1,1,n}:

        3(n-1)n (1+t)^(n-2) t^2 + 2(2n+1) (1+t)^n t + (1+t)^(n+2)

    which is also (1+t)^(n+2) f(4t/(1+t)^2) for the cut-sum polynomial f;
    both routes are computed and compared exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = n + 2
    direct = gamma_expand([1, 2 * (2 * n + 1), 3 * (n - 1) * n], d)
    via_suspension = suspension_substitute(suspension_weight_poly(n), d)
    if Poly(direct) != via_suspension:
        raise IdentityFailed(f"K_(1,1,1,{n}): direct form {Poly(direct)} != suspension form {via_suspension}")
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
    return HStar(gamma_expand(gamma, d), d)


# ---------------------------------------------------------------------------
# The facet-type parts, for any number of classes
# ---------------------------------------------------------------------------


def aux_p(x: int, y: int, i: int, j: int) -> int:
    """p(x,y,i,j) = binom(x-y-1, i) binom(y-1, j) binom(y+i-j-1, i)."""
    return binom(x - y - 1, i) * binom(y - 1, j) * binom(y + i - j - 1, i)


def hstar_type_i(parts: Sequence[int]) -> Poly:
    """Type-(i) contribution for any number of classes, as a `Poly`."""
    return Poly(_type_i(parts))


def _type_i(parts: Sequence[int]) -> list[int]:
    """Type-(i) contribution for any number of classes, vertex 1 in
    parts[0], as integer coefficients: the sum of `_class_type_i` over the
    classes, with shift 1 on the first class only."""
    n = sum(parts)
    return [sum(c) for c in zip(*(_class_type_i(n, a, 1 if m == 0 else 0) for m, a in enumerate(parts)))]


def _class_type_i(n: int, a: int, shift: int) -> list[int]:
    """The type-(i) terms of a class of size a, as the mixed class, among n
    vertices:

        sum_{i,j} p(n, a, i, j) binom(n - a + j - i - 2, j - 1)
                  (t^(i + j + shift) + t^(n - i - j - 1 - shift))

    The shift is 1 when the class holds vertex 1, whose 1-label is the
    root's, and 0 otherwise."""
    total = [0] * n
    for i in range(n - a):
        for j in range(1, a):
            coeff = aux_p(n, a, i, j) * binom(n - a + j - i - 2, j - 1)
            if coeff:
                total[i + j + shift] += coeff
                total[n - i - j - 1 - shift] += coeff
    return total


def _hall_excess(z: int, o: int, zeros: int, ones: int) -> int:
    """E(z, o): degree vectors, summing to ones - 1 over `zeros` zero
    vertices, whose share on one class's z zeros breaks that class's Hall
    bound ones - 1 - o, where o is the class's one count.  The other
    w = zeros - z zeros then hold e < o, spread in binom(e + w - 1, w - 1)
    ways, and the class's zeros the rest, in binom(ones - 2 - e + z, z - 1)."""
    w = zeros - z
    top = ones + z - 2
    if not w:
        return comb(top, z - 1) if o else 0
    total = 0
    for e in range(min(o, ones)):
        total += comb(e + w - 1, w - 1) * comb(top - e, z - 1)
    return total


def hstar_type_ii(parts: Sequence[int]) -> Poly:
    """Type-(ii) contribution for any number of classes, as a `Poly`."""
    return Poly(_type_ii(parts))


def _root_hstar(n: int) -> list[int]:
    """binom(n-1, i)^2 for i = 0..n-1: h* of K_n, the type-A root polytope
    (Ardila, Beck, Hosten, Pfeifle and Seashore, 2011)."""
    return [comb(n - 1, i) ** 2 for i in range(n)]


def _type_ii(parts: Sequence[int]) -> list[int]:
    """Type-(ii) contribution for any number of classes, vertex 1 in
    parts[0], as integer coefficients:

        sum_Z c_Z (t^Z + t^(n-1-Z))

    over the zero count Z = 1..n-1 (`zeros`) of a 0/1 labeling with vertex 1
    labeled 1, where n is the total.  With R = n - Z ones (`ones`), H joins
    each zero to the ones of the other classes.  Its left-degree vectors are
    the binom(n-2, Z-1) vectors (D_v) over the zeros with sum R - 1 that
    meet Hall's bound: a set of zeros with N neighbours holds at most N - 1.
    A set that meets two classes sees every one, and a set inside a class
    sees what the whole class sees, so only one bound per class remains:
    the zeros of a class with o ones hold at most R - 1 - o.  Breaking two
    of these would need a total of at least R, so at most one class breaks
    its bound.  With cap_i the class sizes, less one for parts[0], the sum
    over the per-class zero counts collapses by Vandermonde's identity:

        c_Z = binom(n-2, Z-1) binom(n-1, Z)
              - sum_i sum_{z>=1} binom(cap_i, z) binom(n-1-cap_i, Z-z) E(z, a_i - z).

    The first sum, over Z, is binom(n-1, i)^2 at t^i (`_root_hstar`), and
    each class subtracts its `_class_deficit`.  A labeling whose H is not
    connected needs no term of its own: the zeros of one component see too
    few ones, so no vector meets every bound.  The cost is O(n^3)
    binomials, whatever the class sizes.
    """
    n = sum(parts)
    deficits = [_class_deficit(n, a, a - 1 if m == 0 else a) for m, a in enumerate(parts)]
    return [x - sum(d) for x, *d in zip(_root_hstar(n), *deficits)]


def _class_deficit(n: int, a: int, cap: int) -> list[int]:
    """The Hall deficit of one class of size a among n vertices, cap of
    whose vertices can be zeros (a, or a - 1 when the class holds vertex 1,
    which is labeled 1):

        sum_Z sum_{z>=1} binom(cap, z) binom(n-1-cap, Z-z) E(z, a - z)
              (t^Z + t^(n-1-Z))"""
    total = [0] * n
    for zeros in range(1, n):
        ones = n - zeros
        c = 0
        for z in range(1, min(cap, zeros) + 1):
            q = comb(cap, z) * comb(n - 1 - cap, zeros - z)
            if q:
                c += q * _hall_excess(z, a - z, zeros, ones)
        total[zeros] += c
        total[n - 1 - zeros] += c
    return total


def hstar_tripartite_parts(a: int, b: int, c: int) -> tuple[Poly, Poly]:
    if min(a, b, c) < 1:
        raise ValueError("class sizes must be positive")
    return hstar_type_i((a, b, c)), hstar_type_ii((a, b, c))


def hstar_tripartite(a: int, b: int, c: int) -> HStar:
    """h* of K_{a,b,c}, by `closed_form_hstar`; `hstar_tripartite_parts`
    gives its two facet-type contributions."""
    return closed_form_hstar(Signature((a, b, c)))


# ---------------------------------------------------------------------------
# Identities and the general closed form
# ---------------------------------------------------------------------------


def contraction_identity_check(m: int, n: int) -> bool:
    """h* of K_{m+1,n+1} equals (1+t) times h* of K_{1,m,n}, exactly
    (contracting an edge of the bipartite graph yields the tripartite one)."""
    if m < 1 or n < 1:
        raise ValueError("parameters must be positive")
    h = hstar_1mn(m, n).coefficients
    return hstar_bipartite(m, n).coefficients == tuple(x + y for x, y in zip(h + (0,), (0,) + h))


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


def closed_form_hstar(sig: Signature) -> HStar:
    """h* of K_{a_1,...,a_k} for any k >= 2: the gamma vector of
    `_closed_gamma`, expanded by `gamma_expand`, so the result is
    order-independent.  `HStar` checks the expansion's invariants."""
    return HStar(gamma_expand(_closed_gamma(sig), sig.dim), sig.dim)


def _closed_gamma(sig: Signature) -> list[int]:
    """Gamma vector of K_{a_1,...,a_k} on n vertices, trailing zeros dropped:

        gamma_i = binom(2i, i) [binom(n-1, 2i)
                  - sum_m sum_{j>i} binom(a_m, j) binom(n-1-a_m, 2i-j)].

    Each distinct class size a costs one inner sum, which vanishes for
    i >= a, times its multiplicity.  The sum is checked, not proved: see the
    module docstring for how far.

    When some class is a singleton {v}, binom(a_m, j) binom(n-1-a_m, 2i-j)
    counts the 2i-subsets of the other n - 1 vertices with j in class m,
    and no 2i-subset has more than i in two classes, so the bracket counts
    the 2i-subsets of those n - 1 vertices that meet each class in at most
    i.  For these signatures gamma >= 0 therefore follows, but only given
    the identity."""
    n = sig.total
    top = (n - 1) // 2
    inner = [comb(n - 1, 2 * i) for i in range(top + 1)]
    for a, r in Counter(sig.parts).items():
        for i in range(min(a, top + 1)):
            inner[i] -= r * sum(comb(a, j) * binom(n - 1 - a, 2 * i - j) for j in range(i + 1, min(a, 2 * i) + 1))
    gamma = [comb(2 * i, i) * x for i, x in enumerate(inner)]
    while not gamma[-1]:
        gamma.pop()
    return gamma
