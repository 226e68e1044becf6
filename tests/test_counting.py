"""The counting oracle: transfer count, interpolation, h* extraction."""

import random
from math import comb

import pytest

import fraction_routes as fr
from sepkit import _countpure
from sepkit.counting import (
    DilationCount,
    SizeExceeded,
    _lagrange,
    count_lattice_points,
    ehrhart_interpolate,
    enumerate_dilate_points,
    hstar_oracle,
)
from sepkit.formulas import closed_form_hstar
from sepkit.graphs import Signature, edge_count, enumerate_facet_labelings
from sepkit.polynomial import Poly

from test_graphs import signatures_with_total


class TestCounts:
    def test_examples(self):
        assert count_lattice_points(Signature((1, 1)), 3).count == 7
        assert count_lattice_points(Signature((1, 1, 1)), 1).count == 7
        assert count_lattice_points(Signature((1, 1, 2)), 1).count == 11

    def test_dilation_zero(self):
        for sig in signatures_with_total(2, 6):
            assert count_lattice_points(sig, 0).count == 1

    @pytest.mark.parametrize("sig", signatures_with_total(2, 7), ids=str)
    def test_first_dilate_is_vertices_plus_origin(self, sig):
        got = count_lattice_points(sig, 1, max_total=7).count
        assert got == 2 * edge_count(sig) + 1

    def test_point_sets_centrally_symmetric(self):
        for sig in signatures_with_total(2, 5):
            for k in (1, 2):
                pts = set(enumerate_dilate_points(sig, k))
                assert pts == {tuple(-x for x in p) for p in pts}

    def test_dilation_count_invariants(self):
        with pytest.raises(ValueError):
            DilationCount(1, 0)
        with pytest.raises(ValueError):
            DilationCount(1, 4)  # central symmetry forces odd counts

    def test_size_bound(self):
        with pytest.raises(SizeExceeded):
            count_lattice_points(Signature((13, 12)), 1)
        # an explicit bound admits it
        assert count_lattice_points(Signature((13, 12)), 1, max_total=25).count == 2 * 13 * 12 + 1

    @pytest.mark.parametrize(
        "sig", signatures_with_total(2, 6) + [Signature((2, 1)), Signature((3, 1, 2))], ids=str
    )
    def test_matches_brute_force(self, sig):
        """The transfer count equals the brute-force count against every
        enumerated facet, for k = 0..d+1."""
        facets = [list(lam.values) for lam in enumerate_facet_labelings(sig)]
        for k in range(sig.dim + 2):
            assert count_lattice_points(sig, k).count == _countpure.count_range(k, sig.total, facets, -k, k)


class TestInterpolation:
    def test_examples(self):
        assert ehrhart_interpolate(Signature((1, 1))) == Poly((1, 2))
        assert ehrhart_interpolate(Signature((1, 2))) == Poly((1, 2, 2))
        assert ehrhart_interpolate(Signature((1, 1, 1))) == Poly((1, 3, 3))

    @pytest.mark.parametrize("sig", signatures_with_total(2, 6), ids=str)
    def test_reflexivity_functional_equation(self, sig):
        """Ehrhart-Macdonald with a single interior point:
        (-1)^d E(-k) = E(k-1)."""
        e = ehrhart_interpolate(sig)
        d = e.degree
        for k in range(1, d + 1):
            assert (-1) ** d * e(-k) == e(k - 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_lagrange_against_fraction_route(self, seed):
        """Referee: the integer interpolation against the Fraction products
        it replaced, on distinct integer nodes in any order, and on the
        counts of the 24-vertex bound's largest degree."""
        rnd = random.Random(seed)
        for n in range(1, 12):
            xs = rnd.sample(range(-15, 16), n)
            points = [(x, rnd.randint(-10**6, 10**6)) for x in xs]
            assert list(_lagrange(points).coeffs) == fr.lagrange(points)
        points = [(k, (2 * k + 1) ** 23 + k) for k in range(24)]
        assert list(_lagrange(points).coeffs) == fr.lagrange(points)


class TestHStarOracle:
    def test_examples(self):
        assert hstar_oracle(Signature((1, 1))).poly == Poly((1, 1))
        assert hstar_oracle(Signature((2, 2))).poly == Poly((1, 5, 5, 1))
        assert hstar_oracle(Signature((1, 1, 1))).poly == Poly((1, 4, 1))

    def test_palindromic(self):
        for sig in signatures_with_total(2, 5):
            assert hstar_oracle(sig).is_palindromic()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph_root_polytope(self, n):
        """h*(K_n) = sum_i C(n-1, i)^2 t^i (Ardila, Beck, Hosten, Pfeifle,
        Seashore, Root polytopes: triangulations and Ehrhart theory, 2011)."""
        h = hstar_oracle(Signature((1,) * n))
        assert h.coefficients == tuple(comb(n - 1, i) ** 2 for i in range(n))

    @pytest.mark.parametrize("parts", [(9, 9), (4, 4, 4), (1, 1, 1, 9)], ids=str)
    def test_closed_form_past_old_bound(self, parts):
        sig = Signature(parts)
        assert hstar_oracle(sig).poly == closed_form_hstar(sig).poly
