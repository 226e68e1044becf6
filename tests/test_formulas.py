"""Closed-form h*-polynomials and their cross-validation."""

from itertools import product

import pytest

from sepkit.counting import hstar_oracle
from sepkit.formulas import (
    aux_c,
    aux_p,
    aux_q,
    aux_r,
    binom,
    closed_form_hstar,
    contraction_identity_check,
    ehrhart_bipartite,
    hstar_111n,
    hstar_1mn,
    hstar_22n,
    hstar_bipartite,
    hstar_tripartite,
    hstar_tripartite_parts,
    suspension_substitute,
    suspension_weight_poly,
)
from sepkit.graphs import Signature
from sepkit.polynomial import Poly, gamma_vector
from sepkit.triangulation import hstar_split_by_facet_type

from test_graphs import signatures_with_total


class TestBinom:
    def test_out_of_range_is_zero(self):
        assert binom(-1, 0) == 0
        assert binom(3, -1) == 0
        assert binom(2, 5) == 0
        assert binom(4, 2) == 6


class TestFamilies:
    def test_bipartite_examples(self):
        assert hstar_bipartite(0, 0).poly == Poly((1, 1))
        assert hstar_bipartite(1, 1).poly == Poly((1, 5, 5, 1))
        assert hstar_bipartite(1, 2).poly == Poly((1, 8, 14, 8, 1))

    def test_1mn_examples(self):
        assert hstar_1mn(1, 1).poly == Poly((1, 4, 1))
        assert hstar_1mn(1, 2).poly == Poly((1, 7, 7, 1))
        assert hstar_1mn(2, 2).poly == hstar_tripartite(1, 2, 2).poly

    def test_111n_examples(self):
        assert hstar_111n(1).poly == Poly((1, 9, 9, 1))
        assert hstar_111n(2).poly == hstar_oracle(Signature((1, 1, 1, 2))).poly

    def test_suspension_identity(self):
        for n in (1, 2, 5):
            f = suspension_weight_poly(n)
            assert suspension_substitute(f, n + 2) == hstar_111n(n).poly

    def test_22n_examples(self):
        assert hstar_22n(1).poly == Poly((1, 12, 28, 12, 1))
        assert hstar_22n(1).poly == hstar_tripartite(2, 2, 1).poly
        assert hstar_22n(2).poly == hstar_tripartite(2, 2, 2).poly
        assert hstar_22n(3).poly == hstar_tripartite(2, 2, 3).poly

    @pytest.mark.parametrize("total", range(2, 15))
    def test_palindromic_nonnegative_up_to_14(self, total):
        sigs = []
        for k in (2, 3):
            for parts in product(range(1, total), repeat=k):
                if sum(parts) == total:
                    sigs.append(parts)
        if total >= 4:
            sigs.append((1, 1, 1, total - 3))
        for parts in sigs:
            h = closed_form_hstar(Signature(parts))
            if h is None:
                continue
            assert h.poly[0] == 1
            assert h.is_palindromic(), parts
            assert h.poly.degree == sum(parts) - 1


class TestAux:
    def test_examples(self):
        assert aux_c(1, 1, 1) == 1
        assert aux_r(1, 1, 1, (0, 1, 1)) == 1
        assert aux_q(1, 1, 1, (0, 1, 0)) == 1
        assert aux_p(5, 2, 0, 1) == 1

    def test_chain_reversal_invariance(self):
        for sizes in [(1, 2, 3), (2, 1, 2), (1, 2, 1, 2), (2, 2, 1, 1), (1, 1, 2, 1, 1)]:
            assert aux_c(*sizes) == aux_c(*reversed(sizes))

    def test_chain_counts_against_brute_force(self):
        """aux_c against direct enumeration of chained planar trees along a
        path of vertex classes (the boundary-index reading is frozen by this
        agreement)."""
        for sizes in [
            (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (1, 3, 1),
            (3, 2, 1), (2, 3, 2), (1, 2, 2, 1), (2, 1, 1, 2), (1, 2, 1, 2),
            (2, 2, 2, 2), (1, 1, 2, 1, 1), (2, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1),
            (2, 1, 1, 1, 1, 1),
        ]:
            assert aux_c(*sizes) == _brute_force_chain_count(sizes), sizes


def _brute_force_chain_count(sizes):
    """Spanning trees of the path-of-classes blowup whose bipartite blocks
    are planar and whose middle classes split left-before-right with at most
    one shared vertex."""
    from itertools import combinations

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


class TestTripartite:
    def test_examples(self):
        assert hstar_tripartite(1, 1, 1).poly == Poly((1, 4, 1))
        assert hstar_tripartite(1, 1, 2).poly == Poly((1, 7, 7, 1))
        assert hstar_tripartite(2, 2, 1).poly == Poly((1, 12, 28, 12, 1))

    def test_split_examples(self):
        hi, hii = hstar_tripartite_parts(1, 1, 1)
        assert hi == Poly.zero() and hii == Poly((1, 4, 1))
        hi, hii = hstar_tripartite_parts(2, 2, 1)
        assert hi == Poly((1, 4, 6, 4, 1)) and hii == Poly((0, 8, 22, 8))

    @pytest.mark.parametrize(
        "sig", [s for s in signatures_with_total(3, 6, min_k=3) if s.k == 3], ids=str
    )
    def test_parts_match_enumerated_split(self, sig):
        fi, fii = hstar_tripartite_parts(*sig.parts)
        ti, tii = hstar_split_by_facet_type(sig)
        assert fi == ti and fii == tii

    def test_parts_match_enumerated_split_total_seven(self):
        for parts in [(2, 3, 2), (1, 2, 4), (3, 3, 1)]:
            fi, fii = hstar_tripartite_parts(*parts)
            ti, tii = hstar_split_by_facet_type(Signature(parts), max_total=7)
            assert fi == ti and fii == tii

    def test_permutation_invariance(self):
        for parts in product(range(1, 6), repeat=3):
            if sum(parts) <= 10:
                expected = hstar_tripartite(*sorted(parts)).poly
                assert hstar_tripartite(*parts).poly == expected, parts


class TestIdentities:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_contraction_identity(self, m, n):
        assert contraction_identity_check(m, n)

    @pytest.mark.parametrize("a", range(0, 9))
    @pytest.mark.parametrize("b", range(0, 9))
    def test_bipartite_gamma_degree(self, a, b):
        """gamma-degree of h* of K_{a+1,b+1} equals min(a, b)."""
        assert gamma_vector(hstar_bipartite(a, b)).degree == min(a, b)

    def test_ehrhart_families(self):
        assert ehrhart_bipartite(1, 1) == Poly((1, 2))
        assert ehrhart_bipartite(1, 0) == Poly.one()


class TestDispatch:
    def test_covers_known_families(self):
        assert closed_form_hstar(Signature((2, 2))).poly == Poly((1, 5, 5, 1))
        assert closed_form_hstar(Signature((3, 1, 2))).poly == hstar_tripartite(1, 2, 3).poly
        assert closed_form_hstar(Signature((1, 2, 1, 1))).poly == hstar_111n(2).poly
        assert closed_form_hstar(Signature((1, 2, 2, 2))) is None


def test_suspension_identity_failure_raises(monkeypatch):
    import sepkit.formulas as formulas

    monkeypatch.setattr(formulas, "suspension_weight_poly", lambda n: Poly((1, 1)))
    with pytest.raises(formulas.IdentityFailed, match="K_\\(1,1,1,3\\)"):
        hstar_111n(3)
