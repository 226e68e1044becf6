"""The unimodular boundary triangulation as directed spanning trees, the
inedge statistic, and the resulting h*-polynomials.

A square-free degree-d monomial in the directed-edge variables survives the
Groebner basis (no leading monomial divides it) exactly when it encodes a
directed spanning tree whose simplex belongs to the boundary triangulation.
The h*-polynomial is the histogram of the inedge statistic over these
standard trees: fixing the smallest vertex r as root, a tree edge counts as
ingoing when it points toward the component containing r.

The standard trees are found by a depth-first search over the edge order
that grows a directed forest one edge at a time.  Each edge is skipped or
added in one of its two orientations; an addition must join two components
(union-find by component labels) and must not complete a degree-2 or
degree-3 leading monomial with the variables already chosen (the leading
monomials are indexed once per call as bitmasks of partner variables), and
a branch ends as soon as too few edges remain for a spanning tree.  Only
partial trees that can still be standard are visited, so the work follows
the number of standard trees instead of the C(|E|, n-1) 2^(n-1) oriented
edge subsets; ``_treepure`` keeps that exhaustive test as the referee.  The
search keeps its state on an explicit stack, so it leaves no reference
cycles behind, and the found trees are sorted into the order of the
exhaustive test: undirected trees by sorted edge list, then orientations
lexicographically.

Each standard tree's simplex lies in exactly one facet: the labeling whose
tight edges (those with label increasing by one along the edge) contain all
tree edges.  A spanning tree of tight edges fixes that labeling up to a
shift, so it is read off the tree and looked up.  Splitting the histogram by
the facet's type reproduces the two summands of the closed tripartite
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Iterator, Optional

from .counting import SizeExceeded
from .graphs import (
    DirectedEdge,
    FacetLabeling,
    FacetType,
    Signature,
    classify_labeling,
    enumerate_facet_labelings,
)
from .grobner import VarTable, build_basis
from .polynomial import HStar, Poly

DEFAULT_TREE_MAX_TOTAL = 9


class AmbiguousFacet(RuntimeError):
    """A boundary simplex matched an unexpected number of facets."""


@dataclass(frozen=True)
class DirTree:
    """A directed spanning tree, i.e. a boundary simplex of the triangulation."""

    edges: tuple[DirectedEdge, ...]


def _lead_partners(sig: Signature, nvars: int) -> tuple[list[int], list[dict[int, int]]]:
    """Leading monomials with all-distinct variables, indexed by variable.

    ``pair[v]`` is the bitmask of the variables w with v w a leading
    monomial; ``triple[v][w]`` is the bitmask of the variables x with v w x a
    leading monomial.  Leads with a repeated variable can never divide a
    square-free tree monomial and are dropped.
    """
    pair = [0] * nvars
    triple: list[dict[int, int]] = [{} for _ in range(nvars)]
    for e in build_basis(sig):
        lead = e.lead
        if len(set(lead)) != len(lead):
            continue
        if len(lead) == 2:
            a, b = lead
            pair[a] |= 1 << b
            pair[b] |= 1 << a
        else:
            for v, w, x in permutations(lead):
                triple[v][w] = triple[v].get(w, 0) | 1 << x
    return pair, triple


def _standard_tree_monomials(
    n: int,
    edges: list[tuple[int, int]],
    pair: list[int],
    triple: list[dict[int, int]],
) -> list[tuple[int, ...]]:
    """Square-free monomials of directed spanning trees that no leading
    monomial divides, as variable tuples in edge order, sorted by
    (edge indices, orientation bits).

    Depth-first over the edge order with an explicit stack.  Each frame is
    (next edge index, bitmask of the variables that would complete a leading
    monomial, vertex component labels, chosen variables).  Edge i is either
    skipped or added in one of its two orientations, variable 1 + 2i
    (forward) or 2 + 2i (reverse), when it joins two components and its
    variable is not blocked.  A frame is only pushed when enough edges
    remain to reach n - 1 of them.
    """
    need = n - 1
    m = len(edges)
    leaves: list[tuple[int, ...]] = []
    stack = [(0, 0, tuple(range(n + 1)), ())]
    while stack:
        i, blocked, comp, path = stack.pop()
        if len(path) == need:
            leaves.append(path)
            continue
        if need - len(path) < m - i:
            stack.append((i + 1, blocked, comp, path))
        u, w = edges[i]
        cu, cw = comp[u], comp[w]
        if cu == cw:
            continue
        merged = tuple(cu if c == cw else c for c in comp)
        for var in (2 * i + 1, 2 * i + 2):
            if blocked >> var & 1:
                continue
            partners = triple[var]
            now_blocked = blocked | pair[var]
            for chosen in path:
                now_blocked |= partners.get(chosen, 0)
            stack.append((i + 1, now_blocked, merged, path + (var,)))
    leaves.sort(key=lambda p: (tuple((v - 1) >> 1 for v in p), tuple((v - 1) & 1 for v in p)))
    return leaves


def enumerate_standard_trees(
    sig: Signature, max_total: Optional[int] = None
) -> Iterator[DirTree]:
    """Directed spanning trees whose monomial avoids every leading term.

    The trees are grown edge by edge along ``edge_order(sig)``: a branch
    adds an edge only when it joins two components, adds a variable only
    when it completes no degree-2 or degree-3 leading monomial with those
    already chosen, and stops as soon as too few edges remain for a
    spanning tree, so the work follows the number of standard trees rather
    than the number of edge subsets.

    Deterministic order: undirected trees by sorted edge list, then
    orientations lexicographically (forward before reverse on each edge).
    """
    bound = DEFAULT_TREE_MAX_TOTAL if max_total is None else max_total
    if sig.total > bound:
        raise SizeExceeded(f"signature total {sig.total} exceeds bound {bound}")
    if sig.k < 2:
        raise ValueError("need at least two classes")
    vt = VarTable(sig)
    pair, triple = _lead_partners(sig, vt.nvars)
    for mono in _standard_tree_monomials(sig.total, vt.edges, pair, triple):
        yield DirTree(tuple(DirectedEdge(*vt.dir_of(v)) for v in mono))


def inedge(tree: DirTree, root: int) -> int:
    """Number of tree edges directed toward the side containing the root.

    The unique path from an edge's tail to the root uses the edge itself
    exactly when the head lies on the root side, so orient the underlying
    tree at the root and count edges pointing from child to parent.
    """
    adj: dict[int, list[int]] = {}
    for e in tree.edges:
        adj.setdefault(e.tail, []).append(e.head)
        adj.setdefault(e.head, []).append(e.tail)
    parent = {root: root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    count = 0
    for e in tree.edges:
        if parent.get(e.tail) == e.head:
            count += 1
    return count


def hstar_triangulation(sig: Signature, max_total: Optional[int] = None) -> HStar:
    """h* as the inedge histogram over all standard trees."""
    d = sig.dim
    root = 1
    hist = [0] * (d + 1)
    for tree in enumerate_standard_trees(sig, max_total=max_total):
        hist[inedge(tree, root)] += 1
    return HStar(Poly(hist), d)


def facet_of_tree(
    sig: Signature, tree: DirTree, facets: dict[tuple[int, ...], FacetLabeling]
) -> FacetLabeling:
    """The unique facet whose tight-edge set contains every tree edge.

    Directed edge (u, v) carries e_v - e_u, so it is tight for lambda when
    lambda(v) = lambda(u) + 1.  Along a spanning tree this fixes lambda up
    to a shift: walk the tree from vertex 1, normalize to min 0 and look the
    labeling up in ``facets``, the facet labelings keyed by their values.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in tree.edges:
        adj.setdefault(e.tail, []).append((e.head, 1))
        adj.setdefault(e.head, []).append((e.tail, -1))
    lam = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for w, step in adj.get(u, ()):
            if w not in lam:
                lam[w] = lam[u] + step
                stack.append(w)
    match = None
    if len(lam) == sig.total:
        lo = min(lam.values())
        match = facets.get(tuple(lam[v] - lo for v in sig.vertices()))
    if match is None:
        raise AmbiguousFacet(f"tree {tree.edges} lies in no facet, expected 1")
    return match


def hstar_split_by_facet_type(
    sig: Signature, max_total: Optional[int] = None
) -> tuple[Poly, Poly]:
    """Inedge histograms (h_type_i, h_type_ii) split by the facet type of
    each standard tree's simplex.  Requires k >= 3."""
    if sig.k < 3:
        raise ValueError("facet-type split needs k >= 3")
    d = sig.dim
    root = 1
    facets = {lam.values: lam for lam in enumerate_facet_labelings(sig)}
    hist_i = [0] * (d + 1)
    hist_ii = [0] * (d + 1)
    for tree in enumerate_standard_trees(sig, max_total=max_total):
        lam = facet_of_tree(sig, tree, facets)
        kind = classify_labeling(sig, lam)
        target = hist_i if kind is FacetType.TYPE_I else hist_ii
        target[inedge(tree, root)] += 1
    return Poly(hist_i), Poly(hist_ii)


def tree_dump(tree: DirTree) -> str:
    """One-line tree format: 'u>v' tokens in edge order."""
    return " ".join(f"{e.tail}>{e.head}" for e in tree.edges)


# -- planar spanning trees ----------------------------------------------------


def planar_tree_count(a: int, b: int) -> int:
    """Closed count of planar spanning trees between ordered sets of sizes
    a and b: binom(a + b - 2, b - 1)."""
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    return comb(a + b - 2, b - 1)


def enumerate_planar_trees(a: int, b: int) -> list[tuple[tuple[int, int], ...]]:
    """All planar spanning trees between A = 0..a-1 and B = 0..b-1.

    A subset E of A x B qualifies when |E| = a + b - 1, every element of A
    and B is covered, and no two edges cross: (x, y), (x', y') with x < x'
    forces y <= y'.  Depth-first over pairs in lexicographic order; partial
    choices violating the crossing condition or coverage feasibility are cut
    immediately, so the search stays proportional to the output.
    """
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    target = a + b - 1
    pairs = [(x, y) for x in range(a) for y in range(b)]
    out: list[tuple[tuple[int, int], ...]] = []
    stack: list[tuple[int, tuple[tuple[int, int], ...]]] = [(0, ())]
    while stack:
        idx, chosen = stack.pop()
        if len(chosen) == target:
            if len({x for x, _ in chosen}) == a and len({y for _, y in chosen}) == b:
                out.append(chosen)
            continue
        if idx == len(pairs) or len(chosen) + len(pairs) - idx < target:
            continue
        x, y = pairs[idx]
        # an A-vertex below x with no edge can never be covered later
        if not set(range(x)) <= {x2 for x2, _ in chosen}:
            continue
        # the branch that takes the pair is pushed last, so it is explored first
        stack.append((idx + 1, chosen))
        if all((x2 - x) * (y2 - y) >= 0 for x2, y2 in chosen):
            stack.append((idx + 1, chosen + ((x, y),)))
    return out


def planar_trees(a: int, b: int) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """(closed-form count, explicit enumeration); the two always agree."""
    return planar_tree_count(a, b), enumerate_planar_trees(a, b)
