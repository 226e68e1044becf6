"""Closed-form h*-polynomials and their cross-validation."""

import hashlib
import json
from itertools import permutations, product

import pytest

import sepkit.formulas as formulas
from sepkit.counting import hstar_oracle
from sepkit.formulas import (
    aux_p,
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
    hstar_type_i,
    hstar_type_ii,
    suspension_substitute,
    suspension_weight_poly,
)
from sepkit.graphs import Signature
from sepkit.polynomial import Poly, gamma_expand, gamma_vector
from sepkit.recursion import _partitions
from sepkit.triangulation import hstar_split_by_facet_type

import tripartite_table as table
from tripartite_table import aux_c, aux_q, aux_r, brute_force_chain_count
from test_graphs import signatures_with_total


class TestBinom:
    def test_out_of_range_is_zero(self):
        assert binom(-1, 0) == 0
        assert binom(3, -1) == 0
        assert binom(2, 5) == 0
        assert binom(4, 2) == 6


class TestFamilies:
    def test_bipartite_examples(self):
        assert hstar_bipartite(0, 0).coefficients == (1, 1)
        assert hstar_bipartite(1, 1).coefficients == (1, 5, 5, 1)
        assert hstar_bipartite(1, 2).coefficients == (1, 8, 14, 8, 1)

    def test_1mn_examples(self):
        assert hstar_1mn(1, 1).coefficients == (1, 4, 1)
        assert hstar_1mn(1, 2).coefficients == (1, 7, 7, 1)
        assert hstar_1mn(2, 2) == hstar_tripartite(1, 2, 2)

    def test_111n_examples(self):
        assert hstar_111n(1).coefficients == (1, 9, 9, 1)
        assert hstar_111n(2) == hstar_oracle(Signature((1, 1, 1, 2)))

    def test_suspension_identity(self):
        for n in (1, 2, 5):
            f = suspension_weight_poly(n)
            assert suspension_substitute(f, n + 2) == Poly(hstar_111n(n).coefficients)

    def test_22n_examples(self):
        assert hstar_22n(1).coefficients == (1, 12, 28, 12, 1)
        assert hstar_22n(1) == hstar_tripartite(2, 2, 1)
        assert hstar_22n(2) == hstar_tripartite(2, 2, 2)
        assert hstar_22n(3) == hstar_tripartite(2, 2, 3)

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
            assert h.coefficients[0] == 1
            assert h.coefficients == h.coefficients[::-1], parts
            assert h.dim == sum(parts) - 1 and h.coefficients[-1] != 0


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
            assert aux_c(*sizes) == brute_force_chain_count(sizes), sizes


class TestTripartite:
    def test_examples(self):
        assert hstar_tripartite(1, 1, 1).coefficients == (1, 4, 1)
        assert hstar_tripartite(1, 1, 2).coefficients == (1, 7, 7, 1)
        assert hstar_tripartite(2, 2, 1).coefficients == (1, 12, 28, 12, 1)

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

    # sha256 of the JSON list, over the class orders in `product` order, of
    # [type (i), type (ii)] coefficient strings; pinned from the case-table
    # form of type (ii)
    DIGEST = "16555bb2f20fa5be146becd66fa87d0c7636c7d715613f4ea28a4b0b91afe195"

    def test_digest(self):
        """Both parts on every class order with total <= 12, byte for byte."""
        orders = [p for p in product(range(1, 11), repeat=3) if sum(p) <= 12]
        parts = [[[str(c) for c in h.coeffs] for h in hstar_tripartite_parts(*p)] for p in orders]
        assert len(orders) == 220
        assert hashlib.sha256(json.dumps(parts).encode()).hexdigest() == self.DIGEST

    def test_permutation_invariance(self):
        for parts in product(range(1, 6), repeat=3):
            if sum(parts) <= 10:
                expected = hstar_tripartite(*sorted(parts))
                assert hstar_tripartite(*parts) == expected, parts


def four_or_more_class_orders(lo, hi):
    """Every sorted signature with k >= 4 and total lo..hi, and its reverse."""
    return [
        p for s in signatures_with_total(lo, hi, min_k=4) for p in dict.fromkeys((s.parts, s.parts[::-1]))
    ]


class TestTypeII:
    """The sum over the zero count against its referees: the case table,
    the counting oracle, the enumerated triangulation and, with two
    classes, the bipartite closed form."""

    def test_matches_the_case_table(self):
        orders = [p for p in product(range(1, 11), repeat=3) if sum(p) <= 12]
        assert len(orders) == 220
        for parts in orders:
            assert hstar_type_ii(parts) == table.hstar_type_ii(*parts), parts

    @pytest.mark.parametrize("total", range(4, 13))
    def test_both_parts_sum_to_the_oracle_past_three_classes(self, total):
        for parts in four_or_more_class_orders(total, total):
            want = Poly(hstar_oracle(Signature(parts)).coefficients)
            assert hstar_type_i(parts) + hstar_type_ii(parts) == want, parts

    def test_matches_the_enumerated_split_past_three_classes(self):
        orders = four_or_more_class_orders(4, 8)
        assert len(orders) == 46
        for parts in orders:
            assert hstar_type_ii(parts) == hstar_split_by_facet_type(Signature(parts))[1], parts

    def test_both_parts_sum_to_the_bipartite_form(self):
        for a, b in product(range(1, 14), repeat=2):
            if a + b <= 14:
                assert hstar_type_i((a, b)) + hstar_type_ii((a, b)) == Poly(hstar_bipartite(a - 1, b - 1).coefficients), (a, b)


def sorted_signatures(lo, hi):
    """Every sorted signature with k >= 2 and total lo..hi."""
    return [Signature(p) for total in range(lo, hi + 1) for k in range(2, total + 1) for p in _partitions(total, k)]


def class_terms(n, a):
    """D_n(a) negated: what a class of size a adds to binom(n-1, i)^2, the
    h* of K_n, at total n.  It is the type-(i) terms of a class without
    vertex 1 less its Hall deficit.  The class holding vertex 1 gives the
    same list, since h* does not depend on the class order and both lists
    are zero for a = 1.  A referee of the closed form's gamma sum."""
    deficit = formulas._class_deficit(n, a, a)
    return [x - y for x, y in zip(formulas._class_type_i(n, a, 0), deficit)]


class TestClassTerms:
    """The closed form against the two facet-type parts, which put vertex 1
    in the first class, and against binom(n-1, i)^2 plus one class term per
    class."""

    @staticmethod
    def both_parts(parts):
        return [x + y for x, y in zip(formulas._type_i(parts), formulas._type_ii(parts))]

    def test_every_class_order_up_to_eight(self):
        orders = {p for sig in sorted_signatures(2, 8) for p in permutations(sig.parts)}
        assert len(orders) == 247
        for parts in orders:
            assert list(closed_form_hstar(Signature(parts)).coefficients) == self.both_parts(parts), parts

    def test_sorted_signatures_up_to_sixteen(self):
        for sig in sorted_signatures(9, 16):
            assert list(closed_form_hstar(sig).coefficients) == self.both_parts(sig.parts), sig

    def test_a_class_of_one_adds_nothing(self):
        for n in range(2, 31):
            assert class_terms(n, 1) == [0] * n, n

    def test_all_ones_is_the_type_a_root_polytope(self):
        for n in range(2, 30):
            assert closed_form_hstar(Signature((1,) * n)).coefficients == tuple(binom(n - 1, i) ** 2 for i in range(n))

    def test_class_terms_equal_the_gamma_sum_up_to_sixteen(self):
        terms = {}
        for sig in sorted_signatures(2, 16):
            n = sig.total
            h = [binom(n - 1, i) ** 2 for i in range(n)]
            for a in sig.parts:
                if (n, a) not in terms:
                    terms[(n, a)] = class_terms(n, a)
                h = [x + y for x, y in zip(h, terms[(n, a)])]
            assert h == gamma_expand(formulas._closed_gamma(sig), sig.dim), sig


class TestGammaSum:
    """What `_closed_gamma` says about every signature, independent of the
    sum: two entries fixed by |E|, and the singleton count."""

    def test_first_two_entries_up_to_thirty(self):
        """gamma_0 = 1 and gamma_1 = 2(|E| - n + 1), from h*_1 = 2|E| + 1 - n."""
        sigs = sorted_signatures(2, 30)
        assert len(sigs) == 28598
        for sig in sigs:
            n = sig.total
            edges = (n * n - sum(a * a for a in sig.parts)) // 2
            assert (formulas._closed_gamma(sig) + [0])[:2] == [1, 2 * (edges - n + 1)], sig

    def test_singleton_count_up_to_twelve(self):
        """With a singleton class {v}, gamma_i / binom(2i, i) counts the
        2i-subsets of the other n - 1 vertices that meet each class in at
        most i vertices."""
        sigs = [sig for sig in sorted_signatures(2, 12) if 1 in sig.parts]
        assert len(sigs) == 194
        for sig in sigs:
            rest = list(sig.parts)
            rest.remove(1)
            owner = [m for m, a in enumerate(rest) for _ in range(a)]
            counts = [0] * (len(owner) // 2 + 1)
            for subset in range(1 << len(owner)):
                members = [owner[v] for v in range(len(owner)) if subset >> v & 1]
                if len(members) % 2 == 0 and all(2 * members.count(m) <= len(members) for m in set(members)):
                    counts[len(members) // 2] += 1
            gamma = formulas._closed_gamma(sig)
            assert gamma + [0] * (len(counts) - len(gamma)) == [binom(2 * i, i) * c for i, c in enumerate(counts)], sig


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
    """`closed_form_hstar` answers for every signature with k >= 2."""

    def test_covers_known_families(self):
        assert closed_form_hstar(Signature((2, 2))).coefficients == (1, 5, 5, 1)
        assert closed_form_hstar(Signature((3, 1, 2))) == hstar_tripartite(1, 2, 3)
        assert closed_form_hstar(Signature((1, 2, 1, 1))) == hstar_111n(2)
        assert closed_form_hstar(Signature((1, 2, 2, 2))) == hstar_oracle(Signature((1, 2, 2, 2)))

    def test_one_class_is_refused(self):
        with pytest.raises(ValueError, match="need at least two classes"):
            closed_form_hstar(Signature((3,)))

    @pytest.mark.parametrize("total", range(2, 10))
    def test_every_class_order_agrees(self, total):
        """Every order of the classes of a signature gives one h*: the two
        facet-type parts, which put vertex 1 in the first class, sum to the
        same h* whichever class comes first."""
        for sig in signatures_with_total(total, total):
            sums = {tuple(TestClassTerms.both_parts(p)) for p in set(permutations(sig.parts))}
            assert sums == {closed_form_hstar(sig).coefficients}, sig

    @pytest.mark.parametrize("family", ["bipartite", "1mn", "111n", "22n", "tripartite"])
    def test_each_family_form_past_the_oracle(self, family):
        """Each family form equals the general route on its own signatures,
        in both class orders, up to 30 vertices."""
        top = 30
        cases = {
            "bipartite": lambda: [(hstar_bipartite(a - 1, b - 1), (a, b)) for a, b in pairs_up_to(top)],
            "1mn": lambda: [(hstar_1mn(m, n), (1, m, n)) for m, n in pairs_up_to(top - 1)],
            "111n": lambda: [(hstar_111n(n), (1, 1, 1, n)) for n in range(1, top - 2)],
            "22n": lambda: [(hstar_22n(n), (2, 2, n)) for n in range(1, top - 3)],
            "tripartite": lambda: [
                (hstar_tripartite(a, b, c), (a, b, c)) for a, b in pairs_up_to(top - 1) for c in range(b, top - a - b + 1)
            ],
        }[family]()
        for want, parts in cases:
            for order in (parts, parts[::-1]):
                assert closed_form_hstar(Signature(order)) == want, order


def pairs_up_to(top):
    """Every (a, b) with 1 <= a <= b and a + b <= top."""
    return [(a, b) for a in range(1, top) for b in range(a, top - a + 1)]


def test_suspension_identity_failure_raises(monkeypatch):
    import sepkit.formulas as formulas

    monkeypatch.setattr(formulas, "suspension_weight_poly", lambda n: Poly((1, 1)))
    with pytest.raises(formulas.IdentityFailed, match="K_\\(1,1,1,3\\)"):
        hstar_111n(3)
