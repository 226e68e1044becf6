"""Vertex/edge order, facet labelings and their classification."""

import pytest

from sepkit.graphs import (
    FacetType,
    Signature,
    Unclassifiable,
    classify_labeling,
    edge_order,
    enumerate_facet_labelings,
    facet_count_formula,
)


def signatures_with_total(lo, hi, min_k=2):
    from itertools import combinations_with_replacement

    out = []
    for total in range(lo, hi + 1):
        for k in range(min_k, total + 1):
            for parts in combinations_with_replacement(range(1, total), k):
                if sum(parts) == total:
                    out.append(Signature(parts))
    return out


class TestSignature:
    def test_parse(self):
        assert Signature.parse("1,2,2") == Signature((1, 2, 2))
        with pytest.raises(ValueError):
            Signature.parse("1,x")
        with pytest.raises(ValueError):
            Signature.parse("0,2")
        with pytest.raises(ValueError, match="^need at least two classes$"):
            Signature.parse("40")

    def test_vertex_numbering(self):
        sig = Signature((2, 1, 3))
        assert list(sig.class_vertices(0)) == [1, 2]
        assert list(sig.class_vertices(2)) == [4, 5, 6]
        assert sig.class_of(3) == 1
        assert sig.class_of(6) == 2
        with pytest.raises(ValueError, match="vertex 7 out of range"):
            sig.class_of(7)
        assert sig.dim == 5


class TestEdgeOrder:
    def test_examples(self):
        assert edge_order(Signature((1, 1))) == [(1, 2)]
        assert edge_order(Signature((1, 1, 1))) == [(1, 2), (1, 3), (2, 3)]
        assert edge_order(Signature((2, 1))) == [(1, 3), (2, 3)]

    def test_count(self):
        """K_{a_1,...,a_k} has (n^2 - sum a_i^2) / 2 edges."""
        for sig in signatures_with_total(2, 7):
            assert len(edge_order(sig)) == (sig.total ** 2 - sum(a * a for a in sig.parts)) // 2


class TestFacetLabelings:
    def test_counts_small(self):
        assert len(enumerate_facet_labelings(Signature((1, 1)))) == 2
        assert len(enumerate_facet_labelings(Signature((1, 1, 1)))) == 6
        assert len(enumerate_facet_labelings(Signature((1, 1, 2)))) == 12
        assert len(enumerate_facet_labelings(Signature((2, 2, 2)))) == 56

    @pytest.mark.parametrize("sig", signatures_with_total(3, 7, min_k=3), ids=str)
    def test_count_formula(self, sig):
        assert len(enumerate_facet_labelings(sig)) == facet_count_formula(sig)

    @pytest.mark.parametrize("sig", signatures_with_total(2, 6), ids=str)
    def test_supporting_halfspace(self, sig):
        """Each labeling gives <lam, x> <= 1 on all polytope vertices, with
        equality on a spanning, connected set of edges."""
        points = []
        for v, w in edge_order(sig):  # the vertices +-(e_v - e_w) of P_G
            vec = [0] * sig.total
            vec[v - 1], vec[w - 1] = 1, -1
            points += [vec, [-x for x in vec]]
        for lam in enumerate_facet_labelings(sig):
            tight_cover = set()
            for p in points:
                val = sum(l * x for l, x in zip(lam.values, p))
                assert val <= 1
                if val == 1:
                    tight_cover.update(i + 1 for i, x in enumerate(p) if x)
            assert tight_cover == set(sig.vertices())

    @pytest.mark.parametrize("sig", signatures_with_total(2, 7), ids=str)
    def test_closed_under_reflection(self, sig):
        labs = {lam.values for lam in enumerate_facet_labelings(sig)}
        for values in labs:
            hi = max(values)
            assert tuple(hi - v for v in values) in labs

    @pytest.mark.parametrize("sig", signatures_with_total(3, 7, min_k=3), ids=str)
    def test_classification_total(self, sig):
        for lam in enumerate_facet_labelings(sig):
            classify_labeling(sig, lam)  # must never raise Unclassifiable

    def test_classification_examples(self):
        sig = Signature((1, 1, 1))
        from sepkit.graphs import FacetLabeling

        assert classify_labeling(sig, FacetLabeling((1, 1, 0))) is FacetType.TYPE_IIA
        sig = Signature((1, 1, 2))
        assert classify_labeling(sig, FacetLabeling((1, 1, 0, 2))) is FacetType.TYPE_I
        sig = Signature((2, 2, 2))
        # A_1 mixed with mixed complement
        assert (
            classify_labeling(sig, FacetLabeling((0, 1, 1, 0, 1, 0))) is FacetType.TYPE_IIB
        )

    def test_unclassifiable_rejects_garbage(self):
        sig = Signature((1, 1, 1))
        from sepkit.graphs import FacetLabeling

        with pytest.raises(Unclassifiable):
            classify_labeling(sig, FacetLabeling((0, 2, 1)))

