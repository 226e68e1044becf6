"""The counting oracle: transfer count and h* read off half the dilates."""

from math import comb

import pytest

import countpure
import sepkit.counting as counting
from sepkit.counting import (
    CountGuardFailed,
    DilationCount,
    SizeExceeded,
    count_lattice_points,
    dilation_counts,
    hstar_oracle,
)
from sepkit.formulas import closed_form_hstar
from sepkit.graphs import Signature, edge_order, enumerate_facet_labelings
from sepkit.polynomial import Poly, ehrhart_from_hstar
from sepkit.recursion import _partitions

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
        assert got == 2 * len(edge_order(sig)) + 1

    def test_point_sets_centrally_symmetric(self):
        for sig in signatures_with_total(2, 5):
            for k in (1, 2):
                pts = set(countpure.enumerate_dilate_points(sig, k))
                assert pts == {tuple(-x for x in p) for p in pts}

    def test_negative_dilation(self):
        with pytest.raises(ValueError, match="dilation must be nonnegative"):
            count_lattice_points(Signature((1, 2)), -1)

    def test_dilation_count_invariants(self):
        with pytest.raises(ValueError):
            DilationCount(1, 0)
        with pytest.raises(ValueError):
            DilationCount(1, 4)  # central symmetry forces odd counts

    def test_size_bound(self):
        with pytest.raises(SizeExceeded):
            count_lattice_points(Signature((19, 18)), 1)
        # an explicit bound admits it
        assert count_lattice_points(Signature((19, 18)), 1, max_total=37).count == 2 * 19 * 18 + 1

    @pytest.mark.parametrize(
        "sig", signatures_with_total(2, 6) + [Signature((2, 1)), Signature((3, 1, 2))], ids=str
    )
    def test_matches_brute_force(self, sig):
        """The transfer count equals the brute-force count against every
        enumerated facet, for k = 0..d+1."""
        facets = [list(lam.values) for lam in enumerate_facet_labelings(sig)]
        for k in range(sig.dim + 2):
            assert count_lattice_points(sig, k).count == countpure.count_range(k, sig.total, facets, -k, k)

    @pytest.mark.parametrize(
        "sig", [Signature(p) for p in [(1, 1), (1, 2, 3), (4, 5), (1, 1, 1, 1, 3), (2, 2, 2, 2)]], ids=str
    )
    def test_dilation_counts_truncate_one_table(self, sig):
        """The run of dilates, from one table per class size built at the
        last dilate, equals counting each dilate on its own tables."""
        assert dilation_counts(sig, sig.dim + 1) == [count_lattice_points(sig, k) for k in range(sig.dim + 2)]


class TestOracleAgainstCounts:
    """The oracle reads L(k) only up to floor(d/2) + 1 and mirrors the rest
    of h*; the Ehrhart polynomial of its h* must still give every count up
    to d + 1."""

    def test_ehrhart_examples(self):
        assert ehrhart_from_hstar(hstar_oracle(Signature((1, 1)))) == Poly((1, 2))
        assert ehrhart_from_hstar(hstar_oracle(Signature((1, 2)))) == Poly((1, 2, 2))
        assert ehrhart_from_hstar(hstar_oracle(Signature((1, 1, 1)))) == Poly((1, 3, 3))

    @pytest.mark.parametrize(
        "sig", signatures_with_total(2, 6) + [Signature((1,) * 7), Signature((2, 2, 3))], ids=str
    )
    def test_every_count_up_to_d_plus_1(self, sig):
        e = ehrhart_from_hstar(hstar_oracle(sig))
        for k in range(sig.dim + 2):
            assert e(k) == count_lattice_points(sig, k).count


class TestCountGuard:
    @pytest.mark.parametrize(
        "sig",
        # d = total - 1 odd, then even
        [Signature(p) for p in [(1, 1), (2, 2), (1, 2, 3), (1,) * 8, (1, 2), (1, 1, 1), (2, 3), (2, 2, 3), (1,) * 7]],
        ids=str,
    )
    def test_every_read_count_is_guarded(self, monkeypatch, sig):
        """A count off by 2 (still odd, so DilationCount accepts it) at any
        dilate the oracle reads makes it raise."""
        true_counts = counting.dilation_counts
        top = sig.dim // 2 + 1
        read = []
        for bad in range(top + 1):

            def off_by_two(sig, up_to, max_total=None):
                read.append(up_to)
                return [
                    DilationCount(dc.k, dc.count + 2) if dc.k == bad else dc
                    for dc in true_counts(sig, up_to, max_total=max_total)
                ]

            monkeypatch.setattr(counting, "dilation_counts", off_by_two)
            with pytest.raises(CountGuardFailed):
                hstar_oracle(sig)
        assert read == [top] * (top + 1)


class TestHStarOracle:
    def test_examples(self):
        assert hstar_oracle(Signature((1, 1))).coefficients == (1, 1)
        assert hstar_oracle(Signature((2, 2))).coefficients == (1, 5, 5, 1)
        assert hstar_oracle(Signature((1, 1, 1))).coefficients == (1, 4, 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph_root_polytope(self, n):
        """h*(K_n) = sum_i C(n-1, i)^2 t^i (Ardila, Beck, Hosten, Pfeifle,
        Seashore, Root polytopes: triangulations and Ehrhart theory, 2011)."""
        h = hstar_oracle(Signature((1,) * n))
        assert h.coefficients == tuple(comb(n - 1, i) ** 2 for i in range(n))

    def test_closed_form_on_every_signature_up_to_fourteen(self):
        """The closed form's gamma sum is checked, not proved; here against
        the oracle on all 493 sorted signatures with k >= 2 up to total 14."""
        sigs = [Signature(p) for total in range(2, 15) for k in range(2, total + 1) for p in _partitions(total, k)]
        assert len(sigs) == 493
        for sig in sigs:
            assert hstar_oracle(sig) == closed_form_hstar(sig), sig

    @pytest.mark.parametrize("parts", [(9, 9), (4, 4, 4), (1, 1, 1, 9)], ids=str)
    def test_closed_form_past_old_bound(self, parts):
        sig = Signature(parts)
        assert hstar_oracle(sig) == closed_form_hstar(sig)
