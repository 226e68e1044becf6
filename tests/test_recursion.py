"""Recursion solving, the relation catalogue, and the two scans."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

import pytest

from sepkit.formulas import closed_form_hstar, ehrhart_1mn, ehrhart_bipartite
from sepkit.polynomial import Poly, cross_polynomial, gamma_vector
import sepkit.recursion as recursion
from sepkit.recursion import (
    CrossDegreeMismatch,
    DegreeMismatch,
    ExactSolveFailed,
    RecursionSolution,
    RelationFailed,
    conjecture_scan,
    corollary_scan,
    nonnegative_solution,
    reproduce_known_relations,
    solve_recursion,
    solve_recursion_cross,
)
from sepkit.graphs import Signature
from sepkit.triangulation import hstar_triangulation

F = Fraction


def _filtered_multisets(total):
    """Sorted partitions of `total` into at least two parts, by drawing
    every multiset of k parts and keeping those with the right sum.  No
    part of such a partition exceeds total - k + 1, so the draw stops
    there; drawing up to total - 1 gives the same tuples, only slower."""
    return [
        parts
        for k in range(2, total + 1)
        for parts in combinations_with_replacement(range(1, total - k + 2), k)
        if sum(parts) == total
    ]


class TestSolver:
    def test_example_a(self):
        sol = solve_recursion(ehrhart_1mn(1, 2), ehrhart_bipartite(1, 2), [ehrhart_bipartite(1, 1)])
        assert sol.status == "unique"
        assert sol.alpha == F(2, 3) and sol.alphas == [F(1, 3)]

    def test_example_bipartite(self):
        sol = solve_recursion(
            ehrhart_bipartite(2, 3), ehrhart_bipartite(1, 3), [ehrhart_bipartite(1, 2)]
        )
        assert sol.alpha == F(1, 2) and sol.alphas == [F(1, 2)]

    def test_example_cross(self):
        sol = solve_recursion(cross_polynomial(5), cross_polynomial(4), [cross_polynomial(3)])
        assert sol.alpha == F(1, 5) and sol.alphas == [F(4, 5)]

    def test_degree_gate(self):
        with pytest.raises(DegreeMismatch):
            solve_recursion(cross_polynomial(4), cross_polynomial(4), [])

    def test_inconsistent_reported(self):
        sol = solve_recursion(cross_polynomial(4), cross_polynomial(3), [])
        assert sol.status == "none"

    def test_underdetermined_reports_kernel(self):
        h = ehrhart_bipartite(1, 3)
        sol = solve_recursion(ehrhart_1mn(1, 4), ehrhart_bipartite(1, 4), [h, h])
        assert sol.status == "underdetermined" and sol.kernel_dim == 1
        witness = nonnegative_solution(sol)
        assert witness is not None and all(c >= 0 for c in witness)


class TestSolverAgainstRationalGauss:
    """Randomized cross-implementation check: the fraction-free solver must
    agree exactly with a plain Fraction-based Gauss elimination."""

    @staticmethod
    def _frac_solve(columns, hs_rhs):
        ncols = len(columns)
        nrows = 1 + max([hs_rhs.degree] + [c.degree for c in columns])
        A = [[F(c[i]) for c in columns] + [F(hs_rhs[i])] for i in range(nrows)]
        rank, piv_cols = 0, []
        for col in range(ncols):
            piv = next((r for r in range(rank, nrows) if A[r][col] != 0), None)
            if piv is None:
                continue
            A[rank], A[piv] = A[piv], A[rank]
            A[rank] = [v / A[rank][col] for v in A[rank]]
            for r in range(nrows):
                if r != rank and A[r][col]:
                    A[r] = [a - A[r][col] * b for a, b in zip(A[r], A[rank])]
            piv_cols.append(col)
            rank += 1
        if any(
            all(A[r][c] == 0 for c in range(ncols)) and A[r][ncols] != 0
            for r in range(nrows)
        ):
            return "none", None
        if rank < ncols:
            return "underdetermined", ncols - rank
        sol = [F(0)] * ncols
        for r, c in enumerate(piv_cols):
            sol[c] = A[r][ncols]
        return "unique", sol

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_agreement(self, seed):
        import random

        from sepkit.polynomial import Poly
        from sepkit.recursion import _solve_exact

        rnd = random.Random(seed)
        for _ in range(60):
            ncols = rnd.randint(1, 5)
            deg = rnd.randint(ncols, ncols + 3)
            cols = [
                Poly(
                    [F(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(deg)]
                    + [rnd.randint(0, 3)]
                )
                for _ in range(ncols)
            ]
            if rnd.random() < 0.5:
                rhs = Poly.zero()
                for c in cols:
                    rhs = rhs + F(rnd.randint(-5, 5), rnd.randint(1, 3)) * c
            else:
                rhs = Poly([rnd.randint(-6, 6) for _ in range(deg + 1)])
            if rnd.random() < 0.3 and ncols >= 2:
                cols[-1] = cols[0] * F(rnd.randint(1, 3))
            got = _solve_exact(cols, rhs)
            want_status, want = self._frac_solve(cols, rhs)
            assert got.status == want_status
            if want_status == "unique":
                assert got.coefficients == want
            elif want_status == "underdetermined":
                assert got.kernel_dim == want
                rec = Poly.zero()
                for k, c in zip(got.particular, cols):
                    rec = rec + k * c
                assert rec == rhs
                for vec in got.kernel:
                    z = Poly.zero()
                    for k, c in zip(vec, cols):
                        z = z + k * c
                    assert z.is_zero()


class TestCrossSolver:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_agrees_with_direct_on_relations(self, n):
        cases = [
            (ehrhart_1mn(1, n), ehrhart_bipartite(1, n), [ehrhart_bipartite(1, n - 1)]),
            (ehrhart_bipartite(2, n), ehrhart_bipartite(1, n), [ehrhart_bipartite(1, n - 1)]),
            (cross_polynomial(n), cross_polynomial(n - 1), [cross_polynomial(n - 2)]),
        ]
        for f, g, hs in cases:
            direct = solve_recursion(f, g, hs)
            cross = solve_recursion_cross(f, g, hs)
            assert direct.status == cross.status == "unique"
            assert direct.coefficients == cross.coefficients

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_on_catalogued_instances(self, n):
        from sepkit.recursion import _relation_instances

        for inst in _relation_instances(n):
            direct = solve_recursion(inst["f"], inst["g"], inst["hs"])
            try:
                cross = solve_recursion_cross(inst["f"], inst["g"], inst["hs"])
            except CrossDegreeMismatch:
                continue  # duplicate cross-degrees break the triangular sweep
            assert direct.status == cross.status
            if direct.status == "unique":
                assert direct.coefficients == cross.coefficients, inst["relation"]

    def test_pure_alpha_edge_case(self):
        # C_(d+1) = alpha (2x+1) C_d holds only for d = 0
        assert solve_recursion_cross(cross_polynomial(1), cross_polynomial(0), []).alpha == 1
        assert solve_recursion_cross(cross_polynomial(4), cross_polynomial(3), []).status == "none"

    def test_duplicate_cross_degrees_rejected(self):
        h = ehrhart_bipartite(1, 3)
        with pytest.raises(CrossDegreeMismatch):
            solve_recursion_cross(ehrhart_1mn(1, 4), ehrhart_bipartite(1, 4), [h, h])


class TestKnownRelations:
    def test_relation_a_closed_form(self):
        for n in range(2, 11):
            rep = reproduce_known_relations(n, strict=False)
            row = next(r for r in rep["rows"] if r["relation"] == "a")
            assert row["verified"]
            assert row["coefficients"] == [
                str(F(n + 2, 2 * (n + 1))),
                str(F(n, 2 * (n + 1))),
            ] or row["coefficients"] == [
                f"{n + 2}/{2 * (n + 1)}",
                f"{n}/{2 * (n + 1)}",
            ]

    def test_bipartite_rows(self):
        rep = reproduce_known_relations(3, strict=False)
        row1 = next(r for r in rep["rows"] if r["relation"] == "bipartite-1")
        assert row1["coefficients"] == ["1/2", "1/2"]
        row2 = next(r for r in rep["rows"] if r["relation"] == "bipartite-2")
        assert row2["coefficients"] == ["1/3", "1/2", "1/6"]
        row3 = next(r for r in rep["rows"] if r["relation"] == "bipartite-3")
        assert row3["verified"] and "ambiguous" in row3["note"]

    def test_interlacing_conclusions(self):
        rep = reproduce_known_relations(4, strict=False)
        assert len(rep["interlacings"]) == 4
        assert all(i["certified"] for i in rep["interlacings"])

    def test_displayed_f_g_j_fail_as_stated(self):
        """The displayed relations (g) and (j) admit no nonnegative solution
        for n >= 3, and (f) none for n <= 4; at n = 5 (g) and (j) have unique
        solutions with a negative coefficient while (f) solves.  This is a
        defect of the source display; the package reports it honestly rather
        than papering over it."""
        rep = reproduce_known_relations(5, strict=False)
        bad = {r["relation"] for r in rep["rows"] if not r["verified"]}
        assert bad == {"g", "j"}
        with pytest.raises(RelationFailed):
            reproduce_known_relations(5, strict=True)

    def test_verified_subset_at_n2(self):
        rep = reproduce_known_relations(2, strict=False)
        bad = {r["relation"] for r in rep["rows"] if not r["verified"]}
        assert bad == {"f"}


class TestCorollaryScan:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_m4_alpha2_closed_form(self, n):
        rep = corollary_scan(4, n)
        closed = F(n - n**3, 8 * (5 * n**3 + 39 * n**2 + 100 * n + 96))
        assert rep["alpha2_matches"] and rep["alpha2_negative"]
        assert rep["alpha2"] == (
            f"{closed.numerator}/{closed.denominator}" if closed.denominator != 1 else str(closed)
        )

    def test_low_m_all_positive(self):
        for m in (1, 2, 3):
            rep = corollary_scan(m, m + 3)
            up = rep["rows"][0]
            assert up["status"] == "unique"
            assert all(s == "+" for s in up["signs"])

    def test_bad_range(self):
        with pytest.raises(ValueError):
            corollary_scan(5, 4)


class TestConjectureScan:
    def test_no_violations(self):
        rep = conjecture_scan(6, 6)
        assert rep["violations"] == 0
        assert all(i["certified"] for i in rep["interlacings"])

    @pytest.mark.parametrize("total", range(2, 15))
    def test_partitions_match_the_multiset_filter(self, total):
        got = [parts for k in range(2, total + 1) for parts in recursion._partitions(total, k)]
        assert got == _filtered_multisets(total)

    def test_rows_match_closed_forms_and_triangulation(self):
        """Up to 8 vertices, every row equals one built from the multiset
        filter, with h* from the triangulation, a route independent of the
        closed form's, and past 8 vertices from the closed form.  Past
        `max_total` only the family signatures keep a row: two or three
        classes, or K_{1,1,1,n}."""

        def family(parts):
            return len(parts) <= 3 or (len(parts) == 4 and parts[:3] == (1, 1, 1))

        hstars = {}
        for total in range(2, recursion.FORMULA_TOTAL + 1):
            for parts in _filtered_multisets(total):
                if total <= 8:
                    hstars[parts] = hstar_triangulation(Signature(parts))
                elif family(parts):
                    hstars[parts] = closed_form_hstar(Signature(parts))
        for max_total in range(9):
            want = []
            for parts, h in hstars.items():
                total = sum(parts)
                if total > max_total and not family(parts):
                    continue
                m, s = gamma_vector(h).degree, total - parts[-1]
                want.append(
                    {
                        "signature": ",".join(map(str, parts)),
                        "total": total,
                        "cross_degree": m,
                        "bounds": [s // 2, s],
                        "ok": s // 2 <= m + 1 <= s,
                        "full_sum_ok": total // 2 <= m + 1 <= total,
                    }
                )
            assert conjecture_scan(max_total, 1)["rows"] == want, max_total

    # sha256 of the key-sorted JSON report, pinned before type (ii) and the
    # gamma vector moved to integer arithmetic
    DIGEST = "ba969963ba64664696821d5e9d6341f34555d6f5a1d5cbcaa64aaa9c22828a44"

    def test_digest(self):
        """The full report of `conjecture_scan(6, 8)`, byte for byte."""
        rep = conjecture_scan(6, 8)
        assert len(rep["rows"]) == 102 and len(rep["interlacings"]) == 16
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == self.DIGEST

    def test_each_family_is_transformed_once(self, monkeypatch):
        """E(1^k, n), k = 1, 2, 3, n = 1..8: 24 polynomials, each given one
        CL transform, though E(1,1,n) enters two interlacings."""
        import sepkit.roots as roots

        seen = []
        w_data = roots._w_data

        def counted(e):
            seen.append(e)
            return w_data(e)

        monkeypatch.setattr(roots, "_w_data", counted)
        monkeypatch.setattr(recursion, "_w_data", counted)
        conjecture_scan(6, 8)
        assert len(seen) == len(set(seen)) == 24

    def test_twelve_vertices(self):
        rep = conjecture_scan(12, 2)
        assert len(rep["rows"]) == 259
        assert rep["violations"] == 0 and all(row["ok"] for row in rep["rows"])

    def test_spec_examples(self):
        rows = {r["signature"]: r for r in conjecture_scan(5, 2)["rows"]}
        assert rows["1,2,2"]["cross_degree"] == 2
        assert rows["1,1"]["cross_degree"] == 0
        assert rows["1,2,2"]["bounds"] == [1, 3] and rows["1,2,2"]["ok"]

    def test_negative_range(self):
        """A negative range checks nothing, so it must not report a passing
        scan."""
        for max_total, max_n in ((-3, -2), (-1, 2), (4, -1)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                conjecture_scan(max_total, max_n)
        assert conjecture_scan(0, 0)["interlacings"] == []

    def test_full_sum_reading_reported(self):
        rep = conjecture_scan(4, 2)
        star = next(r for r in rep["rows"] if r["signature"] == "1,3")
        assert star["ok"] and not star["full_sum_ok"]


class TestSolverInvariants:
    def test_exact_division_checked(self):
        assert recursion._exact_div(-8, 2) == -4
        with pytest.raises(ExactSolveFailed, match="lost integrality"):
            recursion._exact_div(7, 2)

    def test_recomposition_checked(self, monkeypatch):
        columns, rhs = [Poly((1,)), Poly((0, 1))], Poly((2, 3))
        assert recursion._solve_exact(columns, rhs).coefficients == [2, 3]
        monkeypatch.setattr(recursion, "Fraction", lambda num, den=1: F(num, den) + 1)
        with pytest.raises(ExactSolveFailed, match="recomposes to"):
            recursion._solve_exact(columns, rhs)

    def test_feasible_point_checked(self, monkeypatch):
        sol = RecursionSolution(
            None, [], status="underdetermined", kernel_dim=1, particular=[F(1), F(1)], kernel=[[F(1), F(-1)]]
        )
        assert all(c >= 0 for c in nonnegative_solution(sol))
        monkeypatch.setattr(recursion, "_fourier_motzkin_feasible", lambda rows: [F(5)])
        with pytest.raises(ExactSolveFailed, match="negative coordinate"):
            nonnegative_solution(sol)


class TestTwoFreeVariables:
    """Fourier-Motzkin over a kernel of dimension 2, which no catalogued
    relation reaches: solutions x = p + t1 k1 + t2 k2 in the shape
    `_solve_exact` reports them, pivots on coordinates 0 and 1 and the free
    coordinates 2 and 3 carrying t1 and t2."""

    @staticmethod
    def underdetermined(p, k1, k2):
        kernel = [[F(c) for c in k1], [F(c) for c in k2]]
        return RecursionSolution(None, [], "underdetermined", 2, [F(c) for c in p], kernel)

    def test_feasible(self):
        # x = (-1 + t1 + t2, 2 - t1 - 3 t2, t1, t2): x >= 0 is the triangle
        # with corners (1, 0), (2, 0) and (1/2, 1/2), and p itself is negative
        p, k1, k2 = (-1, 2, 0, 0), (1, -1, 1, 0), (1, -3, 0, 1)
        point = nonnegative_solution(self.underdetermined(p, k1, k2))
        assert point is not None and all(c >= 0 for c in point)
        t1, t2 = point[2], point[3]
        assert point == [p[i] + t1 * k1[i] + t2 * k2[i] for i in range(4)]

    def test_infeasible(self):
        # x = (1 - 2 t1 + t2, -2 + t1 - 2 t2, t1, t2); each coordinate alone
        # can be made nonnegative, but y = (1, 1, 1, 1) >= 0 has y.k1 = y.k2 = 0
        # and y.p = -1, so y.x = -1 for every t and some coordinate is negative
        p, k1, k2 = (1, -2, 0, 0), (-2, 1, 1, 0), (1, -2, 0, 1)
        y = (1, 1, 1, 1)
        assert min(y) >= 0 and all(sum(map(mul, y, v)) == 0 for v in (k1, k2)) and sum(map(mul, y, p)) < 0
        assert nonnegative_solution(self.underdetermined(p, k1, k2)) is None

    def test_last_variable_in_every_row(self):
        """No row survives the elimination of t2, so t1 is free."""
        rows = [([F(1), F(1)], F(1)), ([F(-1), F(2)], F(0))]
        t = recursion._fourier_motzkin_feasible(rows)
        assert t is not None and all(sum(map(mul, row, t)) >= b for row, b in rows)
