"""Standard trees, the inedge statistic, facet-type splits, planar trees."""

from itertools import permutations

import pytest

import treepure
from sepkit import graphs, triangulation
from sepkit.counting import SizeExceeded, hstar_oracle
from sepkit.formulas import closed_form_hstar, hstar_type_i
from sepkit.graphs import DirectedEdge, FacetType, Signature, classify_labeling, enumerate_facet_labelings
from sepkit.polynomial import Poly
from sepkit.triangulation import (
    AmbiguousFacet,
    enumerate_planar_trees,
    enumerate_standard_trees,
    hstar_split_by_facet_type,
    hstar_triangulation,
    planar_tree_count,
    tree_dump,
)

from test_graphs import signatures_with_total


def class_orders(lo, hi):
    """Every distinct order of the classes of each signature with total lo..hi."""
    return [Signature(p) for p in sorted({p for s in signatures_with_total(lo, hi) for p in permutations(s.parts)})]


def walk(edges, n, root=1):
    """``_walk`` of directed edges (tail, head) over the vertices 1..n, from
    `root`: (inedge count, labels of the vertices 1..n)."""
    tail = [t - 1 for t, _ in edges]
    head = [h - 1 for _, h in edges]
    return triangulation._walk(range(len(edges)), tail, head, n, root - 1)


class TestStandardTrees:
    def test_counts(self):
        assert len(list(enumerate_standard_trees(Signature((1, 1))))) == 2
        assert len(list(enumerate_standard_trees(Signature((1, 1, 1))))) == 6
        assert len(list(enumerate_standard_trees(Signature((1, 1, 2))))) == 16

    @pytest.mark.parametrize("sig", signatures_with_total(2, 6), ids=str)
    def test_count_equals_normalized_volume(self, sig):
        trees = list(enumerate_standard_trees(sig))
        h = hstar_triangulation(sig)
        assert len(trees) == sum(h.coefficients)

    @pytest.mark.parametrize(
        "sig", signatures_with_total(2, 6) + [Signature((1, 1, 5)), Signature((1, 2, 4))], ids=str
    )
    def test_matches_brute_force(self, sig):
        """Same trees in the same order as the exhaustive test of every
        oriented (n-1)-subset of edges."""
        assert [t.edges for t in enumerate_standard_trees(sig)] == treepure.standard_trees(sig)

    @pytest.mark.parametrize("sig", class_orders(2, 6), ids=str)
    def test_matches_brute_force_in_every_class_order(self, sig):
        """The search prunes by the last edge of each vertex, which moves
        with the class order, so the referee sees every order."""
        assert [t.edges for t in enumerate_standard_trees(sig)] == treepure.standard_trees(sig)

    def test_size_bound(self):
        with pytest.raises(SizeExceeded, match="exceeds bound 10"):
            list(enumerate_standard_trees(Signature((2, 3, 6))))
        with pytest.raises(SizeExceeded):
            hstar_triangulation(Signature((1,) * 11))

    def test_deterministic_order(self):
        a = [tree_dump(t) for t in enumerate_standard_trees(Signature((1, 2, 2)))]
        b = [tree_dump(t) for t in enumerate_standard_trees(Signature((1, 2, 2)))]
        assert a == b

    @pytest.mark.parametrize("sig", signatures_with_total(2, 6), ids=str)
    def test_reversal_involution(self, sig):
        """Reversing every edge maps the standard-tree set to itself and the
        inedge statistic i to d - i."""
        trees = [t.edges for t in enumerate_standard_trees(sig)]
        tree_set = {frozenset(t) for t in trees}
        d = sig.dim
        for edges in trees:
            rev = tuple(DirectedEdge(e.head, e.tail) for e in edges)
            assert frozenset(rev) in tree_set
            assert walk(rev, sig.total)[0] == d - walk(edges, sig.total)[0]


class TestInedge:
    def test_single_edge(self):
        assert walk([DirectedEdge(2, 1)], 2, root=1)[0] == 1
        assert walk([DirectedEdge(1, 2)], 2, root=1)[0] == 0

    def test_star_all_outward(self):
        star = [DirectedEdge(1, v) for v in (2, 3, 4)]
        assert walk(star, 4, root=1)[0] == 0
        star_in = [DirectedEdge(v, 1) for v in (2, 3, 4)]
        assert walk(star_in, 4, root=1)[0] == 3


def root_side(n, edges, root):
    """Vertices joined to the root by the undirected edges, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in edges:
        parent[find(u)] = find(w)
    r = find(root)
    return {v for v in range(n) if find(v) == r}


def walk_by_definition(edges, n, root):
    """(inedge count, labels) of a directed forest from the definitions.

    An edge t -> h is ingoing when h stays joined to the root once the edge
    is removed.  The edges on a vertex's path from the root are those whose
    removal cuts it off, and its label counts them +1 when the path follows
    the edge's direction (the tail stays on the root side) and -1 when not;
    a vertex the root does not reach has no label."""
    reached = root_side(n, edges, root)
    lam = [0 if v in reached else None for v in range(n)]
    ins = 0
    for i, (t, h) in enumerate(edges):
        side = root_side(n, edges[:i] + edges[i + 1:], root)
        ins += h in side
        for v in reached - side:
            lam[v] += 1 if t in side else -1
    return ins, lam


class TestWalkReferee:
    @pytest.mark.parametrize("sig", signatures_with_total(2, 7), ids=str)
    def test_every_standard_tree(self, sig):
        """``_walk`` against the definitions on every standard tree, from
        vertex 1 and from vertex n."""
        tail, head, leaves = triangulation._search(sig, None)
        n = sig.total
        for mono in leaves:
            edges = [(tail[v], head[v]) for v in mono]
            for root in (0, n - 1):
                assert triangulation._walk(mono, tail, head, n, root) == walk_by_definition(edges, n, root)

    def test_forest_with_unreached_vertices(self):
        """A vertex the root does not reach keeps the label None, and the
        edges among such vertices count for nothing."""
        edges = [(1, 0), (3, 2), (1, 4), (5, 1)]
        tail = [t for t, _ in edges]
        head = [h for _, h in edges]
        got = triangulation._walk(range(len(edges)), tail, head, 6, 0)
        assert got == walk_by_definition(edges, 6, 0) == (2, [0, -1, None, None, 0, -2])


class TestHStarTriangulation:
    def test_examples(self):
        assert hstar_triangulation(Signature((1, 1))).coefficients == (1, 1)
        assert hstar_triangulation(Signature((2, 2))).coefficients == (1, 5, 5, 1)
        assert hstar_triangulation(Signature((1, 1, 1))).coefficients == (1, 4, 1)

    @pytest.mark.parametrize("sig", signatures_with_total(2, 6), ids=str)
    def test_matches_oracle_and_palindromic(self, sig):
        h = hstar_triangulation(sig)
        assert h == hstar_oracle(sig)
        assert h.coefficients == h.coefficients[::-1]
        assert h.coefficients[sig.dim] != 0

    @pytest.mark.parametrize("sig", signatures_with_total(2, 7), ids=str)
    def test_histogram_of_the_enumerated_trees(self, sig):
        """The histogram filled from the search's leaves is the inedge
        histogram over the trees ``enumerate_standard_trees`` yields."""
        hist = [0] * sig.total
        for tree in enumerate_standard_trees(sig):
            hist[walk(tree.edges, sig.total)[0]] += 1
        assert hstar_triangulation(sig).coefficients == tuple(hist)

    @pytest.mark.parametrize("sig", class_orders(2, 7), ids=str)
    def test_matches_closed_form_in_every_class_order(self, sig):
        assert hstar_triangulation(sig) == closed_form_hstar(sig)

    @pytest.mark.parametrize(
        "sig",
        signatures_with_total(8, 8)
        + [Signature((1,) * 9), Signature((2, 2, 2, 3)), Signature((2,) * 5), Signature((1,) * 10)],
        ids=str,
    )
    def test_three_way_past_seven_vertices(self, sig):
        h = hstar_triangulation(sig)
        assert h == hstar_oracle(sig)
        assert h == closed_form_hstar(sig)


class TestFacetSplit:
    def test_triangle_all_type_ii(self):
        hi, hii = hstar_split_by_facet_type(Signature((1, 1, 1)))
        assert hi == Poly.zero()
        assert hii == Poly((1, 4, 1))

    def test_112_total(self):
        hi, hii = hstar_split_by_facet_type(Signature((1, 1, 2)))
        assert hi + hii == Poly((1, 7, 7, 1))

    def test_221_total(self):
        hi, hii = hstar_split_by_facet_type(Signature((2, 2, 1)))
        assert hi + hii == Poly((1, 12, 28, 12, 1))

    @pytest.mark.parametrize(
        "sig", [s for s in signatures_with_total(3, 8, min_k=3) if s.k == 3], ids=str
    )
    def test_parts_sum_to_hstar(self, sig):
        hi, hii = hstar_split_by_facet_type(sig)
        assert hi == hstar_type_i(sig.parts)
        assert hi + hii == Poly(hstar_oracle(sig).coefficients)

    @pytest.mark.parametrize("parts", [(1, 2, 2), (1, 1, 2, 2)], ids=str)
    def test_facet_read_off_the_tree(self, parts):
        """The walk's labels, normalised to min 0, are the only facet
        labeling that makes every tree edge tight."""
        sig = Signature(parts)
        labelings = enumerate_facet_labelings(sig)
        for tree in enumerate_standard_trees(sig):
            tight = [
                lam.values for lam in labelings if all(lam[e.head] == lam[e.tail] + 1 for e in tree.edges)
            ]
            lam = walk(tree.edges, sig.total)[1]
            assert tight == [tuple(x - min(lam) for x in lam)]

    def test_split_equals_the_enumeration_route(self, monkeypatch):
        """The split reads facets off the trees and never enumerates them,
        yet equals the histograms that classify the enumerated facet list,
        on every class order with k >= 3 up to total 7."""
        orders = [sig for sig in class_orders(3, 7) if sig.k >= 3]
        assert len(orders) == 99
        monkeypatch.setattr(graphs, "enumerate_facet_labelings", refuse)
        monkeypatch.setattr(triangulation, "enumerate_facet_labelings", refuse, raising=False)
        for sig in orders:
            assert hstar_split_by_facet_type(sig) == split_by_enumeration(sig), sig

    def test_split_raises_on_a_missing_facet(self, monkeypatch):
        """A tree whose labels are no facet raises: the last vertex sits two
        above vertex 1, in another class, or the walk never reaches it."""
        sig = Signature((1, 1, 2, 2))
        assert sum(hstar_split_by_facet_type(sig), Poly.zero()) == Poly(hstar_triangulation(sig).coefficients)
        read = triangulation._walk
        for label in (2, None):

            def misread(*args):
                ins, lam = read(*args)
                lam[-1] = label
                return ins, lam

            monkeypatch.setattr(triangulation, "_walk", misread)
            with pytest.raises(AmbiguousFacet, match="lies in no facet, expected 1"):
                hstar_split_by_facet_type(sig)


def refuse(sig):
    raise AssertionError("the split enumerated the facet labelings")


def split_by_enumeration(sig):
    """The facet-type split through the full facet list: each facet's type
    keyed by its labels less vertex 1's, as the walk from vertex 1 labels a
    tree."""
    tail, head, leaves = triangulation._search(sig, None)
    type_i = {
        tuple(x - lam.values[0] for x in lam.values): classify_labeling(sig, lam) is FacetType.TYPE_I
        for lam in enumerate_facet_labelings(sig)
    }
    hists = {True: [0] * sig.total, False: [0] * sig.total}
    for mono in leaves:
        ins, lam = triangulation._walk(mono, tail, head, sig.total, 0)
        hists[type_i[tuple(lam)]][ins] += 1
    return Poly(hists[True]), Poly(hists[False])


class TestPlanarTrees:
    def test_examples(self):
        assert enumerate_planar_trees(1, 1) == [((0, 0),)]
        assert enumerate_planar_trees(2, 2) == [((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 0), (1, 1))]
        assert planar_tree_count(3, 2) == 3 == len(enumerate_planar_trees(3, 2))

    @pytest.mark.parametrize("a", range(1, 7))
    @pytest.mark.parametrize("b", range(1, 7))
    def test_count_matches_enumeration(self, a, b):
        assert planar_tree_count(a, b) == len(enumerate_planar_trees(a, b))
