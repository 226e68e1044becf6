"""The unimodular boundary triangulation as directed spanning trees, the
inedge statistic, the resulting h*-polynomials, and planar spanning trees.

A square-free degree-d monomial in the directed-edge variables survives the
Groebner basis (no leading monomial divides it) exactly when it encodes a
directed spanning tree whose simplex belongs to the boundary triangulation.
The h*-polynomial is the histogram of the inedge statistic over these
standard trees: fixing the smallest vertex r as root, a tree edge counts as
ingoing when it points toward the component containing r.

The standard trees are found by a depth-first search over the edge order
that grows a directed forest one edge at a time, with one frame per added
edge.  A frame scans the edges after the last one added for the next edge
to add: each edge that joins two components (union-find by component
labels, relabelled in one ``bytes.translate``) is added in each orientation
that completes no degree-2 or degree-3 leading monomial with the variables
already chosen (the leading monomials are indexed once per call as bitmasks
of partner variables, by the ``grobner._lead_partners`` that the Groebner
certificate also reads).  The scan ends before too few edges remain for a
spanning tree, and it stops after the last edge of a vertex that no chosen
edge touches yet, since past that edge the vertex could not be reached any
more.  Only partial trees that can still be standard are visited, so the
work follows the number of standard trees instead of the C(|E|, n-1)
2^(n-1) oriented edge subsets; the test suite keeps that exhaustive test as
its referee (``tests/treepure.py``).  The search keeps its state on an
explicit stack, so it leaves no reference cycles behind, and returns the
leaves as variable tuples in the order it meets them.  Only
``enumerate_standard_trees`` sorts them, into the order of the exhaustive
test: undirected trees by sorted edge list, then orientations
lexicographically.

Each standard tree is read from vertex 1 by sweeps over its edge list,
through per-variable tail and head arrays: a sweep attaches every edge with
exactly one labelled end, and the read stops when a sweep attaches none.
An edge attached from its head is an inedge, and each vertex is labelled by
its signed distance from vertex 1, counting +1 along an edge's direction.
That labeling is the facet of the tree's simplex: the unique labeling whose
tight edges (those with label increasing by one along the edge) contain all
tree edges, fixed up to a shift by a spanning tree.  The h* functions fill
their histograms from the read without building tree objects.  Splitting
the histogram by the facet's type reproduces the two summands of the closed
tripartite formula; the split reads each tree's facet off its labels,
and checks and classifies each distinct labeling once, so it enumerates no
facet list.  The test suite checks the read against the definitions
of the inedge statistic and the labels.

The planar spanning trees between two ordered sets are counted in closed
form and enumerated by a depth-first search; the acceptance tests hold the
two to each other.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

from .graphs import (
    DirectedEdge,
    FacetLabeling,
    FacetType,
    Signature,
    SizeExceeded,
    VerificationFailed,
    classify_labeling,
    is_facet_labeling,
)
from .grobner import DEFAULT_TREE_MAX_TOTAL, VarTable, _lead_partners, build_basis
from .polynomial import HStar, Poly


class AmbiguousFacet(VerificationFailed, RuntimeError):
    """A boundary simplex matched an unexpected number of facets."""


class DirTree(NamedTuple):
    """A directed spanning tree, i.e. a boundary simplex of the triangulation."""

    edges: tuple[DirectedEdge, ...]


def _standard_tree_monomials(
    n: int,
    edges: list[tuple[int, int]],
    pair: list[int],
    triple: list[list[int]],
) -> list[tuple[int, ...]]:
    """Square-free monomials of directed spanning trees that no leading
    monomial divides, as variable tuples in edge order, unsorted.

    Depth-first with an explicit stack, one frame per added edge.  A frame
    is (first edge index it may add, bitmask of the variables that would
    complete a leading monomial, bitmask of the vertices chosen edges touch,
    vertex component labels as bytes, chosen variables).  It scans the
    edges j from its first index up to m - left, where left edges are still
    to add, so that enough edges remain after j.  An edge j that joins two
    components pushes one child per unblocked orientation, variable 1 + 2j
    (forward) or 2 + 2j (reverse), whose scan starts at j + 1; an edge with
    both variables blocked is passed over without merging labels.  The scan
    stops after the last edge of a vertex that no chosen edge touches, since
    skipping that edge would leave the vertex unreachable.  A frame with one
    edge to go appends its leaves inside the scan and pushes no frame.
    """
    need = n - 1
    m = len(edges)
    # per edge j: its endpoints, the bitmask of its two variables, the
    # bitmask of its endpoints and of the vertices whose last edge it is,
    # j + 1, and per orientation (variable, pair partners, triple partners
    # or None when the variable is in no cubic lead)
    data = []
    seen = 0
    for j in range(m - 1, -1, -1):
        u, w = edges[j]
        ends = 1 << u | 1 << w
        fwd, rev = 2 * j + 1, 2 * j + 2
        orients = tuple((var, pair[var], triple[var] if any(triple[var]) else None) for var in (fwd, rev))
        data.append((u, w, 1 << fwd | 1 << rev, ends, ends & ~seen, j + 1, orients))
        seen |= ends
    data.reverse()
    # merge[cu][cw] relabels component cw as cu
    merge = [[bytes.maketrans(bytes((cw,)), bytes((cu,))) for cw in range(n + 1)] for cu in range(n + 1)]
    leaves: list[tuple[int, ...]] = []
    stack = [(0, 0, 0, bytes(range(n + 1)), ())]
    while stack:
        i, blocked, touched, comp, path = stack.pop()
        left = need - len(path)
        for u, w, both, ends, last, nxt, orients in data[i : m - left + 1]:
            cu, cw = comp[u], comp[w]
            if cu != cw and blocked & both != both:
                if left == 1:
                    for var, _, _ in orients:
                        if not blocked >> var & 1:
                            leaves.append(path + (var,))
                else:
                    merged = comp.translate(merge[cu][cw])
                    now_touched = touched | ends
                    for var, partners2, partners3 in orients:
                        if blocked >> var & 1:
                            continue
                        now_blocked = blocked | partners2
                        if partners3 is not None:
                            for chosen in path:
                                now_blocked |= partners3[chosen]
                        stack.append((nxt, now_blocked, now_touched, merged, path + (var,)))
            if last & ~touched:
                break
    return leaves


def _search(
    sig: Signature, max_total: Optional[int]
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Tail and head of each directed-edge variable as 0-based vertices (0
    for z), and the unsorted standard-tree monomials."""
    bound = DEFAULT_TREE_MAX_TOTAL if max_total is None else max_total
    if sig.total > bound:
        raise SizeExceeded(f"signature total {sig.total} exceeds bound {bound}")
    vt = VarTable(sig)
    dirs = [vt.dir_of(v) for v in range(1, vt.nvars)]
    tail = [0] + [t - 1 for t, _ in dirs]
    head = [0] + [h - 1 for _, h in dirs]
    pair, triple = _lead_partners(build_basis(sig, vt), vt.nvars)
    return tail, head, _standard_tree_monomials(sig.total, vt.edges, pair, triple)


def _tree(tail: list[int], head: list[int], mono: tuple[int, ...]) -> DirTree:
    return DirTree(tuple(DirectedEdge(tail[v] + 1, head[v] + 1) for v in mono))


def enumerate_standard_trees(
    sig: Signature, max_total: Optional[int] = None
) -> Iterator[DirTree]:
    """Directed spanning trees whose monomial avoids every leading term.

    The trees are grown edge by edge along ``edge_order(sig)``: a branch
    scans the later edges for the next one to add, adds an edge only when
    it joins two components, adds a variable only when it completes no
    degree-2 or degree-3 leading monomial with those already chosen, and
    ends its scan before too few edges remain for a spanning tree and at the
    last edge of a vertex no chosen edge touches, so the work follows the
    number of standard trees rather than the number of edge subsets.

    Deterministic order: undirected trees by sorted edge list, then
    orientations lexicographically (forward before reverse on each edge).
    """
    tail, head, leaves = _search(sig, max_total)
    leaves.sort(key=lambda p: (tuple((v - 1) >> 1 for v in p), tuple((v - 1) & 1 for v in p)))
    for mono in leaves:
        yield _tree(tail, head, mono)


def _walk(
    tree: Sequence[int], tail: Sequence[int], head: Sequence[int], n: int, root: int
) -> tuple[int, list[Optional[int]]]:
    """One read of a directed tree from its root: (inedge count, labels).

    The tree is a sequence of edge ids e, each directed tail[e] -> head[e],
    over the vertices 0..n-1.  Sweeps over the edges attach each edge with
    exactly one labelled end, until a sweep attaches none.  An edge attached
    from its head lies on the root side of its tail, so it is ingoing, and
    its tail gets the head's label minus one; an edge attached from its tail
    gives its head the tail's label plus one.  So a vertex's label is the
    number of edges its path from the root follows forward minus those it
    follows backward; it stays None for a vertex the tree does not reach.
    """
    lam: list[Optional[int]] = [None] * n
    lam[root] = 0
    ins = 0
    while tree:
        left = []
        for e in tree:
            t = lam[tail[e]]
            h = lam[head[e]]
            if h is not None:
                if t is None:
                    lam[tail[e]] = h - 1
                    ins += 1
            elif t is not None:
                lam[head[e]] = t + 1
            else:
                left.append(e)
        if len(left) == len(tree):
            break
        tree = left
    return ins, lam


def hstar_triangulation(sig: Signature, max_total: Optional[int] = None) -> HStar:
    """h* as the inedge histogram over all standard trees."""
    tail, head, leaves = _search(sig, max_total)
    n = sig.total
    hist = [0] * (sig.dim + 1)
    for mono in leaves:
        hist[_walk(mono, tail, head, n, 0)[0]] += 1
    return HStar(hist, sig.dim)


def hstar_split_by_facet_type(
    sig: Signature, max_total: Optional[int] = None
) -> tuple[Poly, Poly]:
    """Inedge histograms (h_type_i, h_type_ii) split by the facet type of
    each standard tree's simplex.  Requires k >= 3.

    Each tree's facet is read off the labels of its walk from vertex 1.
    Every tree edge is tight in them, so they span, and they support a
    facet when ``is_facet_labeling`` holds; each distinct labeling is
    checked and classified once."""
    if sig.k < 3:
        raise ValueError("facet-type split needs k >= 3")
    tail, head, leaves = _search(sig, max_total)
    n = sig.total
    # whether each facet met so far is of type (i), keyed by the walk's labels
    type_i: dict[tuple[Optional[int], ...], bool] = {}
    hist_i = [0] * (sig.dim + 1)
    hist_ii = [0] * (sig.dim + 1)
    for mono in leaves:
        ins, lam = _walk(mono, tail, head, n, 0)
        key = tuple(lam)
        kind = type_i.get(key)
        if kind is None:
            if not is_facet_labeling(sig, key):
                raise AmbiguousFacet(f"tree {tree_dump(_tree(tail, head, mono))} lies in no facet, expected 1")
            low = min(key)
            kind = type_i[key] = classify_labeling(sig, FacetLabeling(tuple(x - low for x in key))) is FacetType.TYPE_I
        (hist_i if kind else hist_ii)[ins] += 1
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
