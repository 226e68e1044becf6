"""The case-table form of the tripartite type-(ii) part, the test suite's
referee for ``sepkit.formulas.hstar_type_ii``.

For three classes the class graph of a type-(ii) facet is a 6-cycle of zero
and one classes, so each facet's simplex count `aux_r` is a chain count
`aux_c` along a path of vertex classes, one of 13 cases, and the part is the
sum over every per-class zero count nu of q(nu) r(nu).  Its cost grows
exponentially with the chain lengths.  ``brute_force_chain_count`` checks
`aux_c` by enumerating chained planar trees outright.

The innermost chain-count sum runs j over 0 .. c_{n-1} - 1, like all its
siblings; that reading is forced by agreement with the brute force, the
enumerated triangulation and the counting oracle.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

from sepkit.formulas import binom
from sepkit.polynomial import Poly


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


def brute_force_chain_count(sizes):
    """Spanning trees of the path-of-classes blowup whose bipartite blocks
    are planar and whose middle classes split left-before-right with at most
    one shared vertex."""
    k = len(sizes)
    offsets = [sum(sizes[:i]) for i in range(k + 1)]
    n = offsets[-1]
    blocks = [
        [(offsets[i] + x, offsets[i + 1] + y) for x in range(sizes[i]) for y in range(sizes[i + 1])]
        for i in range(k - 1)
    ]
    all_edges = [e for blk in blocks for e in blk]
    count = 0
    for subset in combinations(all_edges, n - 1):
        # spanning tree of the blowup graph
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic or len({find(v) for v in range(n)}) != 1:
            continue
        ok = True
        for i in range(k - 1):
            blk = [e for e in subset if offsets[i] <= e[0] < offsets[i + 1] and offsets[i + 1] <= e[1]]
            for (x, y), (x2, y2) in combinations(blk, 2):
                if (x - x2) * (y - y2) < 0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for i in range(1, k - 1):  # middle classes: left-connecting < right-connecting
            left = {v for (u, v) in subset if offsets[i] <= v < offsets[i + 1]}
            right = {u for (u, v) in subset if offsets[i] <= u < offsets[i + 1]}
            if len(left & right) > 1 or not all(
                l < r for l in left for r in right if l != r
            ):
                ok = False
                break
        if ok:
            count += 1
    return count
