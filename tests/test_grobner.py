"""Groebner basis construction, verification, and the K_{2,2,2} obstruction."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest

from sepkit.counting import SizeExceeded
import sepkit.grobner as grobner
from sepkit.graphs import Signature, VerificationFailed
from sepkit.grobner import (
    VarTable,
    basis_to_text,
    buchberger_verify,
    build_basis,
    drl_greater,
    k222_order_scan,
    leading_term_consistency,
    max_degree,
    mono_divides,
    reducedness_check,
    toric_membership_check,
)

from initial_ideal import basis_matches_ground_truth, initial_ideal_ground_truth
from test_graphs import signatures_with_total

BUCHBERGER_SIGNATURES = [
    (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 1, 1), (2, 2, 2),
]


# -- exponent-vector referee for the monomial operations -----------------------


def counter_divides(m1, m2):
    c = Counter(m2)
    c.subtract(Counter(m1))
    return all(v >= 0 for v in c.values())


def counter_drl_greater(m1, m2):
    """Degrevlex on exponent vectors: higher degree wins; on a tie the
    smaller exponent at the smallest differing variable wins."""
    if len(m1) != len(m2):
        return len(m1) > len(m2)
    c1, c2 = Counter(m1), Counter(m2)
    diff = [v for v in set(c1) | set(c2) if c1[v] != c2[v]]
    if not diff:
        return False
    v = min(diff)
    return c1[v] < c2[v]


# every sorted monomial of degree 0..3 in 6 variables: 84 of them
SMALL_MONOMIALS = [m for d in range(4) for m in combinations_with_replacement(range(6), d)]


def edge_rank(vt, u, w):
    """Position of the edge {u, w} in the table's edge order, -1 for a non-edge."""
    pair = (min(u, w), max(u, w))
    return vt.edges.index(pair) if pair in vt.edges else -1


def crossing_is_lead(vt, d1, d2):
    """Is x(d1) x(d2) the lead of a crossing (kind 3b) binomial: do both
    partner edges exist, the smaller of them below both of the pair's?"""
    (s1, t1), (s2, t2) = d1, d2
    partner = min(edge_rank(vt, s1, t2), edge_rank(vt, s2, t1))
    return 0 <= partner < min(edge_rank(vt, s1, t1), edge_rank(vt, s2, t2))


def union_min_build_basis(sig, vt=None):
    """`build_basis` with the literal union-min reading of the 5-cycle rule:
    the middle vertex b is vertex 1, so a and c lie in the second class."""
    vt = vt or VarTable(sig)
    table = sig.class_table()
    verts = list(sig.vertices())
    basis = [e for e in build_basis(sig, vt) if e.kind != "4"]
    b = 1
    for a in verts:
        if table[a] != 1:
            continue
        for c in verts:
            if c == a or table[c] != 1:
                continue
            for d in verts:
                if d in (a, b, c) or table[d] == table[c]:
                    continue
                for e in verts:
                    if e in (a, b, c, d) or table[e] in (table[d], table[a]):
                        continue
                    if crossing_is_lead(vt, (a, b), (d, e)):
                        continue
                    if crossing_is_lead(vt, (b, c), (d, e)):
                        continue
                    lead = tuple(sorted((vt.var[a][b], vt.var[b][c], vt.var[d][e])))
                    tail = tuple(sorted((grobner.Z, vt.var[d][c], vt.var[a][e])))
                    basis.append(grobner.GBElement("4", lead, tail))
    return basis


class TestMonomials:
    def test_ops(self):
        assert mono_divides((1, 3), (1, 2, 3))
        assert not mono_divides((1, 1), (1, 2, 3))

    def test_degrevlex(self):
        # higher degree wins; on ties the smaller exponent at the smallest
        # differing variable wins
        assert drl_greater((1, 2, 3), (1, 2))
        assert drl_greater((1, 2), (0, 0))  # z^2 is the smallest degree-2 monomial
        assert drl_greater((2, 3), (0, 1))
        assert not drl_greater((1, 2), (1, 2))

    def test_against_exponent_vectors(self):
        """On every pair of small monomials the tuple merge and the tuple
        comparison agree with the exponent-vector definitions."""
        assert len(SMALL_MONOMIALS) == 84
        for m1 in SMALL_MONOMIALS:
            for m2 in SMALL_MONOMIALS:
                assert mono_divides(m1, m2) == counter_divides(m1, m2), (m1, m2)
                assert drl_greater(m1, m2) == counter_drl_greater(m1, m2), (m1, m2)


class TestVarTable:
    @pytest.mark.parametrize("order", ["canonical", "reversed", "reversed-flipped"])
    def test_edge_rank(self, order):
        """The edge of rank r in the table's edge order gets variables 1 + 2r
        and 2 + 2r, the given orientation the first; a pair that is no edge
        has variable 0, and `var` and `dirs` invert each other."""
        sig = Signature((2, 1, 3))
        edges = grobner.edge_order(sig)
        if order != "canonical":
            edges = edges[::-1]
        if order == "reversed-flipped":
            edges = [(w, u) for u, w in edges]
        vt = VarTable(sig) if order == "canonical" else VarTable(sig, edges)
        for r, (u, w) in enumerate(edges):
            assert (vt.var[u][w], vt.var[w][u]) == (1 + 2 * r, 2 + 2 * r)
            assert vt.edges[r] == (min(u, w), max(u, w))
        for u, w in [(1, 2), (4, 6), (3, 3), (0, 3), (3, 0)]:
            assert vt.var[u][w] == 0
        assert vt.dirs[grobner.Z] is None
        assert all(vt.var[t][h] == v for v, (t, h) in enumerate(vt.dirs[1:], 1))
        assert sum(v > 0 for row in vt.var for v in row) == vt.nvars - 1


class TestBuildBasis:
    def test_single_edge(self):
        basis = build_basis(Signature((1, 1)))
        assert len(basis) == 1
        elem = basis[0]
        assert elem.kind == "1" and elem.tail == (0, 0)

    def test_triangle(self):
        kinds = Counter(e.kind for e in build_basis(Signature((1, 1, 1))))
        assert kinds == {"1": 3, "2": 6}

    def test_k222_has_cubic(self):
        basis = build_basis(Signature((2, 2, 2)))
        assert any(e.kind == "5" for e in basis)
        assert max_degree(basis) == 3

    @pytest.mark.parametrize("sig", signatures_with_total(2, 8), ids=str)
    def test_matches_initial_ideal(self, sig):
        """Independent referee: the constructed leads are exactly the minimal
        generators of the initial ideal computed from toric weight classes."""
        assert basis_matches_ground_truth(sig)

    # sha256 of every element's (kind, lead, tail), in basis order, taken
    # before the construction walked neighbour lists
    DIGEST = "231360fd0db6f7bc47cb7712c825cbd21e1e6c3a3729e6077544060ed2691f2b"

    def test_digest(self):
        """Every element, kind and position over every class order of every
        signature with total 2-7, byte for byte."""
        orders = [p for s in signatures_with_total(2, 7) for p in sorted(set(permutations(s.parts)))]
        bases = [[(e.kind, e.lead, e.tail) for e in build_basis(Signature(p))] for p in orders]
        assert (len(orders), sum(map(len, bases))) == (120, 20230)
        assert hashlib.sha256(json.dumps(bases).encode()).hexdigest() == self.DIGEST

    # the same digest over the larger bases, taken before the 6-cycle
    # elements were enumerated through a missing chord
    DIGEST_TO_TEN = "795c9373be529da559f4432c803f377192b01a61e6263412b37c0120f9acc9e4"

    def test_digest_to_ten(self):
        """Every element, kind and position over every sorted signature with
        total 8-10, among them 1^10 with 2,025 elements, byte for byte."""
        sigs = signatures_with_total(8, 10)
        bases = [[(e.kind, e.lead, e.tail) for e in build_basis(s)] for s in sigs]
        assert (len(sigs), sum(map(len, bases)), len(bases[-1])) == (91, 71320, 2025)
        assert hashlib.sha256(json.dumps(bases).encode()).hexdigest() == self.DIGEST_TO_TEN

    @pytest.mark.parametrize("parts", [(1, 2, 2), (2, 2, 2)], ids=str)
    def test_refuses_a_table_of_another_order(self, parts):
        """The construction follows the canonical edge order, so a table
        whose edges come in another order is refused before anything is
        built, rather than given leads that are not its initial ideal's."""
        sig = Signature(parts)
        edges = grobner.edge_order(sig)
        rng = random.Random(1)
        for _ in range(20):
            shuffled = list(edges)
            rng.shuffle(shuffled)
            assert shuffled != edges
            with pytest.raises(ValueError, match="not the canonical edge order"):
                build_basis(sig, VarTable(sig, shuffled))

    @pytest.mark.parametrize("parts", [(1, 2, 2), (2, 2, 2), (1, 1, 2), (1, 1, 1, 1)], ids=str)
    def test_flipped_tables_match_the_referee(self, parts):
        """Flipping the orientation of edges keeps the order of the edges,
        so the basis built on such a table is still its initial ideal's."""
        sig = Signature(parts)
        edges = grobner.edge_order(sig)
        rng = random.Random(1)
        for _ in range(20):
            flipped = VarTable(sig, [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges])
            assert basis_matches_ground_truth(sig, flipped)

    def test_crossing_rule_reads_vertex_order(self):
        """In the canonical order a crossing pair over a 4-cycle is a 3b lead
        exactly when its sources and its targets come in opposite orders,
        the rule the construction tests instead of comparing edge ranks."""
        for sig in signatures_with_total(4, 7):
            vt, table = VarTable(sig), sig.class_table()
            darts = vt.dirs[1:]
            for (s1, t1) in darts:
                for (s2, t2) in darts:
                    if len({s1, t1, s2, t2}) < 4 or table[s1] == table[t2] or table[s2] == table[t1]:
                        continue
                    assert crossing_is_lead(vt, (s1, t1), (s2, t2)) == ((s1 < s2) != (t1 < t2))

    def test_five_cycle_rule_selection(self, monkeypatch):
        """The literal union-min reading of the 5-cycle condition fails the
        ground truth as soon as two-element first classes admit 5-cycles;
        the class-min reading that `build_basis` uses is the validated one."""
        sig = Signature((2, 2, 1))
        assert basis_matches_ground_truth(sig)
        monkeypatch.setattr(grobner, "build_basis", union_min_build_basis)
        assert not basis_matches_ground_truth(sig)


class TestVerification:
    @pytest.mark.parametrize("sig", signatures_with_total(2, 7), ids=str)
    def test_reducedness_membership_degree(self, sig):
        basis = build_basis(sig)
        assert reducedness_check(basis)
        assert max_degree(basis) <= 3
        vt = VarTable(sig)
        assert all(toric_membership_check(vt, e) for e in basis)

    @pytest.mark.parametrize("sig", signatures_with_total(2, 7), ids=str)
    def test_leading_terms(self, sig):
        assert leading_term_consistency(build_basis(sig))

    @pytest.mark.parametrize("parts", BUCHBERGER_SIGNATURES, ids=str)
    def test_buchberger(self, parts):
        assert buchberger_verify(Signature(parts))

    def test_buchberger_distinguishes_five_cycle_rule(self, monkeypatch):
        # (2,2,1) has 5-cycles through the smallest vertex of the second class
        sig = Signature((2, 2, 1))
        assert buchberger_verify(sig)
        monkeypatch.setattr(grobner, "build_basis", union_min_build_basis)
        assert not buchberger_verify(sig)

    def test_referees_catch_a_missing_element(self, monkeypatch):
        """Both referees reject the basis of 2,2,1 with one 5-cycle element
        (kind 4) dropped, and accept the full one."""
        sig = Signature((2, 2, 1))
        assert buchberger_verify(sig) and basis_matches_ground_truth(sig)
        real = grobner.build_basis

        def drop_one_five_cycle(sig, vt=None):
            basis = real(sig, vt)
            basis.remove(next(e for e in basis if e.kind == "4"))
            return basis

        monkeypatch.setattr(grobner, "build_basis", drop_one_five_cycle)
        assert not buchberger_verify(sig)
        assert not basis_matches_ground_truth(sig)

    def test_buchberger_size_gate(self):
        """The certificate shares the standard-tree search's vertex bound, not
        an edge bound: 1^6 (15 edges) certifies, 1^11 is refused."""
        assert buchberger_verify(Signature((1,) * 6))
        with pytest.raises(SizeExceeded, match="signature total 11 exceeds bound 10"):
            buchberger_verify(Signature((1,) * 11))

    def test_buchberger_on_every_class_order(self):
        """Every class order with total 2-7 and every sorted signature with
        total 8 certifies."""
        orders = [p for s in signatures_with_total(2, 7) for p in sorted(set(permutations(s.parts)))]
        assert len(orders) == 120
        for parts in orders + [s.parts for s in signatures_with_total(8, 8)]:
            assert buchberger_verify(Signature(parts)), parts

    @pytest.mark.parametrize("parts", [(2, 2, 1), (2, 2, 2), (1,) * 5], ids=str)
    def test_buchberger_catches_every_dropped_element(self, parts, monkeypatch):
        """Dropping any one element of the basis, of any kind, fails the
        certificate."""
        sig = Signature(parts)
        full = build_basis(sig)
        for i in range(len(full)):
            monkeypatch.setattr(grobner, "build_basis", lambda sig, vt=None: full[:i] + full[i + 1:])
            assert not buchberger_verify(sig), full[i]

    @pytest.mark.parametrize("tail", [(grobner.Z, 3), (3, 4)], ids=["outside-the-ideal", "larger-tail"])
    def test_buchberger_needs_ideal_elements_led_by_the_larger_term(self, tail, monkeypatch):
        """A second element on the lead x(1,2) x(2,1) leaves the leads as
        they are, but the check refuses it when it is not in the toric ideal
        (z x(1,3) has another weight) or when its tail, x(1,3) x(3,1) of the
        same weight, is the larger term."""
        sig = Signature((1, 2, 2))
        real = grobner.build_basis
        assert real(sig)[0].lead == (1, 2)
        extra = grobner.GBElement("1", (1, 2), tail)
        monkeypatch.setattr(grobner, "build_basis", lambda sig, vt=None: real(sig, vt) + [extra])
        assert not buchberger_verify(sig)

    @pytest.mark.parametrize("kind", ["holds-z", "repeats-a-variable"])
    def test_buchberger_needs_squarefree_z_free_leads(self, kind, monkeypatch):
        """The Stanley-Reisner reading needs square-free leads free of z, so a
        lead of either other shape is refused, even on an element of the
        toric ideal that is a multiple of the first one and leaves the
        ideal of the leads as it was."""
        sig = Signature((1, 2, 2))
        real = grobner.build_basis
        x, y = real(sig)[0].lead  # x(a,b) x(b,a) - z^2
        z = grobner.Z
        if kind == "holds-z":
            extra = grobner.GBElement("1", (z, x, y), (z, z, z))
        else:
            extra = grobner.GBElement("1", (x, x, y), (z, z, x))
        vt = VarTable(sig)
        assert toric_membership_check(vt, extra) and drl_greater(extra.lead, extra.tail)
        monkeypatch.setattr(grobner, "build_basis", lambda sig, vt=None: real(sig, vt) + [extra])
        assert not buchberger_verify(sig)

    def test_ground_truth_shape(self):
        deg2, deg3 = initial_ideal_ground_truth(Signature((1, 1, 1)))
        assert all(len(m) == 2 for m in deg2)
        assert all(len(m) == 3 for m in deg3)


class TestExport:
    def test_text_format(self):
        sig = Signature((1, 1))
        text = basis_to_text(VarTable(sig), build_basis(sig))
        assert text == "x(1,2)*x(2,1) - z*z"

    def test_one_line_per_element(self):
        sig = Signature((1, 1, 2))
        assert len(basis_to_text(VarTable(sig), build_basis(sig)).splitlines()) == len(build_basis(sig))

    def test_renders_with_the_given_table(self):
        """The variables are named by the table the basis was built on: with
        the edge 1-2 flipped, variable 1 is x(2,1) and leads the text."""
        sig = Signature((1, 1, 1))
        flipped = VarTable(sig, [(2, 1), (1, 3), (2, 3)])
        basis = build_basis(sig, flipped)
        lines = basis_to_text(flipped, basis).splitlines()
        assert lines[0] == "x(2,1)*x(1,2) - z*z"
        assert lines != basis_to_text(VarTable(sig), basis).splitlines()


class TestK222Scan:
    def test_canonical_order(self):
        report = k222_order_scan(0, seed=0)
        assert report["rows"][0]["order"] == "canonical"
        assert report["rows"][0]["obstruction_found"]

    def test_seeded_orders(self):
        report = k222_order_scan(25, seed=7)
        assert report["all_orders_obstructed"]
        assert len(report["rows"]) == 26

    def test_negative_order_count(self):
        """A negative count checks no order, so it must not report every
        order obstructed; zero still checks the canonical order."""
        with pytest.raises(ValueError, match="nonnegative, not -1"):
            k222_order_scan(-1, seed=7)
        assert len(k222_order_scan(0, seed=7)["rows"]) == 1

    def test_lead_check_raises(self, monkeypatch):
        """A 6-cycle whose lead is not the larger monomial is a bug; skipping
        it could turn the scan's verdict."""
        monkeypatch.setattr(grobner, "drl_greater", lambda m1, m2: False)
        with pytest.raises(VerificationFailed, match="does not lead"):
            k222_order_scan(0, seed=7)

    def test_deterministic(self):
        a = k222_order_scan(5, seed=3)
        b = k222_order_scan(5, seed=3)
        assert a == b
        c = k222_order_scan(5, seed=4)
        assert [r["smallest_edge"] for r in a["rows"]] != [r["smallest_edge"] for r in c["rows"]] or a != c
