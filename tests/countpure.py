"""Brute-force lattice-point counting, the test suite's referee for
``sepkit.counting``.

Counts integer points x with sum(x) = 0, |x_i| <= k and <lam, x> <= k for
every facet row lam, restricting the first coordinate to [x0_lo, x0_hi].
Callers pass the rows of ``enumerate_facet_labelings``, so this count does
not rest on the three-condition reduction that ``counting`` uses; the test
suite checks the two against each other.  Iterative depth-first search over
coordinates; the last coordinate is forced by the zero-sum constraint.
Facet labels are nonnegative (min-0 normalized), so a partial dot product p
can still decrease by at most k * (sum of the labels on unassigned
vertices) -- that bound drives the facet pruning.  ``enumerate_dilate_points``
lists the points themselves, by filtering the whole box.
"""

from __future__ import annotations

from itertools import product

from sepkit.graphs import Signature, enumerate_facet_labelings


def count_range(k: int, n: int, facets: list[list[int]], x0_lo: int, x0_hi: int) -> int:
    if n == 0:
        return 1 if k >= 0 else 0
    if n == 1:
        return 1 if x0_lo <= 0 <= x0_hi else 0
    nf = len(facets)
    cols = [[facets[f][pos] for f in range(nf)] for pos in range(n)]
    # suffix[f][pos] = sum of facets[f][pos:]
    suffix = [[0] * (n + 1) for _ in range(nf)]
    for f in range(nf):
        row = facets[f]
        for pos in range(n - 1, -1, -1):
            suffix[f][pos] = suffix[f][pos + 1] + row[pos]

    total = 0
    xs = [0] * n
    sums = [0] * (n + 1)
    dots = [[0] * nf for _ in range(n + 1)]  # dots[p] = facet dots of x[:p]

    pos = 0
    xs[0] = max(-k, x0_lo) - 1
    while pos >= 0:
        xs[pos] += 1
        hi = min(k, x0_hi) if pos == 0 else k
        if xs[pos] > hi:
            pos -= 1
            continue
        x = xs[pos]
        s2 = sums[pos] + x
        rem = n - pos - 1
        if abs(s2) > rem * k:
            continue
        base, nxt, col = dots[pos], dots[pos + 1], cols[pos]
        feasible = True
        for f in range(nf):
            d = base[f] + col[f] * x
            if d - k * suffix[f][pos + 1] > k:
                feasible = False
                break
            nxt[f] = d
        if not feasible:
            continue
        if pos == n - 2:
            xl = -s2
            if -k <= xl <= k:
                lcol = cols[n - 1]
                if all(nxt[f] + lcol[f] * xl <= k for f in range(nf)):
                    total += 1
            continue
        sums[pos + 1] = s2
        pos += 1
        xs[pos] = -k - 1
    return total


def enumerate_dilate_points(sig: Signature, k: int) -> list[tuple[int, ...]]:
    """All lattice points of the k-th dilate, by direct filtering against
    every facet row.

    Exponential in the number of vertices; meant for small signatures.
    """
    facets = [lam.values for lam in enumerate_facet_labelings(sig)]
    out = []
    for x in product(range(-k, k + 1), repeat=sig.total):
        if sum(x) != 0:
            continue
        if all(sum(l * xi for l, xi in zip(row, x)) <= k for row in facets):
            out.append(x)
    return out
