"""Brute-force standard-tree enumeration, the test suite's referee for
``sepkit.triangulation``.

Tests every (n-1)-subset of the edges for being a spanning tree and every
orientation of each spanning tree for avoiding the leading monomials of
``build_basis``, in the order ``triangulation.enumerate_standard_trees``
promises: undirected trees by sorted edge list, then orientations
lexicographically (forward before reverse on each edge).  It shares the
basis with the search but not its pruning or its indexing of the leading
monomials; the test suite checks the two against each other.  The cost is
C(|E|, n-1) 2^(n-1) candidates, so it is meant for at most 7 vertices.
"""

from __future__ import annotations

from itertools import combinations, product

from sepkit.graphs import DirectedEdge, Signature, edge_order
from sepkit.grobner import VarTable, build_basis


def _is_spanning_tree(n: int, und: tuple[tuple[int, int], ...]) -> bool:
    if len(und) != n - 1:
        return False
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in und:
        ru, rw = find(u), find(w)
        if ru == rw:
            return False
        parent[ru] = rw
    return True


def _lead_sets(sig: Signature) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
    """Leading monomials with all-distinct variables, as variable sets,
    split by degree."""
    deg2, deg3 = set(), set()
    for e in build_basis(sig):
        s = frozenset(e.lead)
        if len(s) != len(e.lead):
            continue
        (deg2 if len(e.lead) == 2 else deg3).add(s)
    return deg2, deg3


def standard_trees(sig: Signature) -> list[tuple[DirectedEdge, ...]]:
    """Edge tuples of all standard trees, in the promised order."""
    n = sig.total
    vt = VarTable(sig)
    deg2, deg3 = _lead_sets(sig)
    out = []
    for und in combinations(edge_order(sig), n - 1):
        if not _is_spanning_tree(n, und):
            continue
        for orient in product((0, 1), repeat=n - 1):
            dirs = tuple(
                DirectedEdge(u, w) if o == 0 else DirectedEdge(w, u)
                for (u, w), o in zip(und, orient)
            )
            mono = [vt.var[e.tail][e.head] for e in dirs]
            if any(frozenset(p) in deg2 for p in combinations(mono, 2)):
                continue
            if any(frozenset(p) in deg3 for p in combinations(mono, 3)):
                continue
            out.append(dirs)
    return out
