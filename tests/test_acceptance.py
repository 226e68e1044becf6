"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (tolerance zero).  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.

Criterion 5 includes the source's claim that all ten catalogued recursions
(a)-(j) admit nonnegative coefficients for 2 <= n <= 10.  Exact computation
refutes that claim at 19 of the 90 instances: (f,2) has a solution line
with no nonnegative point, (f,3) and (g,3) are inconsistent, and (f,4),
(g,n) for 4 <= n <= 10 and (j,n) for 3 <= n <= 10 are uniquely solvable
with one negative coefficient.  Test 5c decides the criterion: it pins that
refuted set and checks a certificate for every instance, a nonnegative
witness or a proof that none exists.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from sepkit.counting import count_lattice_points, hstar_oracle
from sepkit.formulas import (
    closed_form_hstar,
    contraction_identity_check,
    ehrhart_111n,
    ehrhart_1mn,
    ehrhart_bipartite,
    hstar_bipartite,
    hstar_tripartite_parts,
)
from sepkit.graphs import Signature, enumerate_facet_labelings, facet_count_formula
from sepkit.grobner import (
    build_basis,
    buchberger_verify,
    k222_order_scan,
    leading_term_consistency,
    max_degree,
    reducedness_check,
)
from sepkit.polynomial import (
    HStar,
    Poly,
    cross_polynomial,
    cross_recombine,
    cross_coefficients,
    ehrhart_from_hstar,
    gamma_vector,
    gammalemma_check,
    hstar_from_ehrhart,
    TWO_X_PLUS_1,
)
from sepkit.recursion import (
    conjecture_scan,
    corollary_scan,
    nonnegative_solution,
    reproduce_known_relations,
    solve_recursion,
)
from sepkit.recursion import _relation_instances
from sepkit.roots import interlaces_on_cl, is_cl
from sepkit.triangulation import (
    enumerate_planar_trees,
    hstar_split_by_facet_type,
    hstar_triangulation,
    planar_tree_count,
)


def _signatures(max_total, min_k=2):
    out = []
    for total in range(2, max_total + 1):
        for k in range(min_k, total + 1):
            for parts in combinations_with_replacement(range(1, total), k):
                if sum(parts) == total:
                    out.append(Signature(parts))
    return out


def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {detail}"


# Criterion 5c: the instances of relations (a)-(j), 2 <= n <= 10, that admit
# no nonnegative solution, with the kind of their solution set and, for a
# unique solution, the index of its one negative coefficient (0 is alpha,
# i is alpha_i).  Index 2 multiplies E(2,n) in (f) and (g), E(1,1,n) in (j).
REFUTED_5C = {
    ("f", 2): ("underdetermined", None),
    ("f", 3): ("none", None),
    ("g", 3): ("none", None),
    ("f", 4): ("unique", 2),
    **{("g", n): ("unique", 2) for n in range(4, 11)},
    **{("j", n): ("unique", 2) for n in range(3, 11)},
}


def _signatures_5c(relation, n):
    """Class sizes of f, g, h_1, h_2, h_3 in the catalogued relation at n."""
    return {
        "f": [(4, n), (3, n), (3, n - 1), (2, n), (1, n + 1)],
        "g": [(3, n + 1), (3, n), (3, n - 1), (2, n), (1, n + 1)],
        "j": [(1, 1, 1, n + 1), (1, 1, 1, n), (1, 1, 1, n - 1), (1, 1, n), (1, n + 1)],
    }[relation]


def _combine(coeffs, columns):
    total = Poly.zero()
    for c, col in zip(coeffs, columns):
        total = total + c * col
    return total


def _pair(y, p):
    """y^T p, with y indexed by the powers of x."""
    return sum(y[r] * p[r] for r in range(len(y)))


def _row_reduce(columns, nrows):
    """Gauss-Jordan elimination of the coefficient matrix A of `columns`
    (row r holds the x^r coefficients), tracking the row operations.

    Returns the pivot columns and T with T A in reduced row echelon form, so
    the first rows of T invert A on its pivot columns and the rows after
    them annihilate A.  Callers check what they take from T against A.
    """
    ncols = len(columns)
    rows = [
        [col[r] for col in columns] + [Fraction(int(r == s)) for s in range(nrows)]
        for r in range(nrows)
    ]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        p = next((r for r in range(top, nrows) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [v / rows[top][c] for v in rows[top]]
        for r in range(nrows):
            if r != top and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(c)
    return pivots, [row[ncols:] for row in rows]


def _assert_full_column_rank(columns, nrows, key):
    """Exhibit L with L A = I, which proves the columns independent."""
    pivots, t = _row_reduce(columns, nrows)
    assert pivots == list(range(len(columns))), f"{key}: dependent columns"
    for i, row in enumerate(t[: len(columns)]):
        assert [_pair(row, col) for col in columns] == [
            int(i == j) for j in range(len(columns))
        ], f"{key}: left inverse does not check"


def _certify_refutation(sol, columns, f, key):
    """Prove that f = sum x_j columns[j] has no solution x >= 0.

    Returns the kind of the solution set and the index of the negative
    coefficient of a unique solution.  Only `sol`'s claims are taken from
    the solver, and each is checked here by exact recomposition.
    """
    nrows = 1 + max(p.degree for p in columns + [f])
    if sol.status == "unique":
        x = sol.coefficients
        assert _combine(x, columns) == f, f"{key}: solution does not rebuild f"
        _assert_full_column_rank(columns, nrows, key)
        negative = [i for i, c in enumerate(x) if c < 0]
        assert len(negative) == 1, f"{key}: negative coefficients at {negative}"
        return "unique", negative[0]
    if sol.status == "none":
        pivots, t = _row_reduce(columns, nrows)
        # y^T A = 0 and y^T f != 0 rule out every solution
        y = next((y for y in t[len(pivots):] if _pair(y, f) != 0), None)
        assert y is not None, f"{key}: no left-kernel vector separates f"
        assert all(_pair(y, col) == 0 for col in columns), f"{key}: y^T A != 0"
        return "none", None
    assert sol.status == "underdetermined", f"{key}: status {sol.status}"
    assert len(sol.kernel) == 1, f"{key}: kernel dimension {len(sol.kernel)}"
    p, k = sol.particular, sol.kernel[0]
    assert _combine(p, columns) == f, f"{key}: particular solution does not rebuild f"
    assert _combine(k, columns).is_zero(), f"{key}: kernel vector is not in the kernel"
    # the other columns are independent, so the solutions are exactly p + t k
    free = next(i for i, c in enumerate(k) if c != 0)
    _assert_full_column_rank(columns[:free] + columns[free + 1:], nrows, key)
    # p_i + t k_i >= 0 bounds t below where k_i > 0 and above where k_i < 0
    assert all(pi >= 0 for pi, ki in zip(p, k) if ki == 0), f"{key}: fixed negative"
    lower = max(-pi / ki for pi, ki in zip(p, k) if ki > 0)
    upper = min(-pi / ki for pi, ki in zip(p, k) if ki < 0)
    assert lower > upper, f"{key}: {lower} <= t <= {upper} is not empty"
    return "underdetermined", None


class TestAcceptance:
    def test_01_three_way_agreement(self):
        pinned = {
            (1, 1, 1): (1, 4, 1),
            (2, 2): (1, 5, 5, 1),
            (1, 2, 2): (1, 12, 28, 12, 1),
            (1, 1, 1, 1): (1, 9, 9, 1),
        }
        sigs = _signatures(6)
        for sig in sigs:
            oracle = hstar_oracle(sig)
            triangulated = hstar_triangulation(sig)
            assert oracle == triangulated, f"{sig}: oracle vs triangulation"
            assert closed_form_hstar(sig) == oracle, f"{sig}: formula vs oracle"
            if sig.parts in pinned:
                assert oracle.coefficients == pinned[sig.parts], f"{sig}: pinned value"
        _report(1, True, f"formula = triangulation = oracle on {len(sigs)} signatures")

    def test_02_facet_counts(self):
        pinned = {(1, 1, 1): 6, (1, 1, 2): 12, (2, 2, 2): 56}
        checked = 0
        for sig in _signatures(7, min_k=3):
            got = len(enumerate_facet_labelings(sig))
            assert got == facet_count_formula(sig), str(sig)
            if sig.parts in pinned:
                assert got == pinned[sig.parts]
            checked += 1
        _report(2, True, f"facet counts match the closed formula on {checked} signatures")

    def test_03_groebner_suite(self):
        for sig in _signatures(7):
            basis = build_basis(sig)
            assert reducedness_check(basis), str(sig)
            assert max_degree(basis) <= 3, str(sig)
        for parts in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 1, 1)]:
            sig = Signature(parts)
            assert leading_term_consistency(build_basis(sig)), str(sig)
            assert buchberger_verify(sig), str(sig)
        scan = k222_order_scan(100, seed=7)
        assert scan["rows"][0]["order"] == "canonical" and scan["rows"][0]["obstruction_found"]
        assert scan["all_orders_obstructed"]
        _report(3, True, "reduced+cubic to total 7; Buchberger on 7 signatures; K222 cubic on 101 orders")

    def test_04_tripartite_split(self):
        count = 0
        for sig in [s for s in _signatures(6, min_k=3) if s.k == 3]:
            fi, fii = hstar_tripartite_parts(*sig.parts)
            ti, tii = hstar_split_by_facet_type(sig)
            assert (fi, fii) == (ti, tii), str(sig)
            count += 1
        _report(4, True, f"formula split equals enumerated split on {count} tripartite signatures")

    def test_05a_bipartite_relations(self):
        for n in range(2, 11):
            rep = reproduce_known_relations(n, strict=False)
            row1 = next(r for r in rep["rows"] if r["relation"] == "bipartite-1")
            assert row1["coefficients"] == ["1/2", "1/2"], n
            row2 = next(r for r in rep["rows"] if r["relation"] == "bipartite-2")
            expect = [str(Fraction(1, n)), "1/2"] + ([str(Fraction(n - 2, 2 * n))] if n > 2 else [])
            assert row2["coefficients"] == expect, (n, row2)
        _report("5a", True, "first two bipartite relations give (1/2,1/2) and (1/n,1/2,(n-2)/2n)")

    def test_05b_relation_a_closed_form(self):
        for n in range(2, 11):
            sol = solve_recursion(
                ehrhart_1mn(1, n), ehrhart_bipartite(1, n), [ehrhart_bipartite(1, n - 1)]
            )
            assert sol.alpha == Fraction(n + 2, 2 * (n + 1)), n
            assert sol.alphas == [Fraction(n, 2 * (n + 1))], n
        _report("5b", True, "relation (a) reproduces alpha=(n+2)/(2(n+1)), alpha0=n/(2(n+1))")

    def test_05c_all_ten_relations_nonnegative(self):
        """Decides the criterion "relations (a)-(j) solve with nonnegative
        coefficients for 2 <= n <= 10", which the source asserts and exact
        computation refutes at the 19 instances of REFUTED_5C.

        Every instance carries a certificate checked here, independently of
        the solver's own checks: a nonnegative witness that rebuilds f
        exactly; or, for a refuted instance, a unique solution of full
        column rank with one negative coefficient, a left-kernel vector that
        separates f (inconsistent), or a solution line p + t k whose bounds
        on t are contradictory ((f,2)).  The smallest refuted instances are
        rebuilt from triangulation h* as well, so their refutation does not
        rest on the closed forms alone."""
        refuted = {}
        instances = 0
        for n in range(2, 11):
            for inst in _relation_instances(n):
                key = (inst["relation"], n)
                f = inst["f"]
                columns = [TWO_X_PLUS_1 * inst["g"]] + list(inst["hs"])
                sol = solve_recursion(f, inst["g"], inst["hs"])
                witness = nonnegative_solution(sol) if sol.status != "none" else None
                instances += 1
                if witness is None:
                    refuted[key] = _certify_refutation(sol, columns, f, key)
                    continue
                assert all(c >= 0 for c in witness), f"{key}: witness {witness}"
                assert _combine(witness, columns) == f, f"{key}: witness does not rebuild f"
        assert refuted == REFUTED_5C, f"refuted set changed: {refuted}"
        # closed forms against triangulation h* (at most 7 vertices each)
        triangulated = {}
        for relation, n in [("f", 2), ("f", 3), ("g", 3), ("j", 3)]:
            inst = next(i for i in _relation_instances(n) if i["relation"] == relation)
            polys = [inst["f"], inst["g"]] + list(inst["hs"])
            for parts, poly in zip(_signatures_5c(relation, n), polys):
                sig = Signature(tuple(sorted(parts)))
                if sig not in triangulated:
                    triangulated[sig] = ehrhart_from_hstar(hstar_triangulation(sig, max_total=7))
                assert triangulated[sig] == poly, f"({relation},{n}): E({sig}) closed form"
        listed = ", ".join(f"({r},{n}) {kind}" for (r, n), (kind, _) in refuted.items())
        _report(
            "5c",
            True,
            f"source claim refuted at {len(refuted)}/{instances} instances, "
            f"each certified: {listed}",
        )

    def test_05d_corollary_alpha2(self):
        for n in range(4, 11):
            rep = corollary_scan(4, n)
            assert rep["alpha2_matches"], n
            assert rep["alpha2_negative"], n
        _report("5d", True, "m=4 corollary reproduces alpha_2=(n-n^3)/(8(5n^3+39n^2+100n+96)) < 0")

    def test_06_cl_certification(self):
        families = []
        families += [("E(1,n)", ehrhart_bipartite(1, n)) for n in range(1, 13)]
        families += [("E(2,n)", ehrhart_bipartite(2, n)) for n in range(2, 11)]
        families += [("E(3,n)", ehrhart_bipartite(3, n)) for n in range(3, 11)]
        families += [("E(1,1,n)", ehrhart_1mn(1, n)) for n in range(1, 11)]
        families += [("E(1,2,n)", ehrhart_1mn(2, n)) for n in range(1, 11)]
        families += [("E(1,1,1,n)", ehrhart_111n(n)) for n in range(1, 11)]
        for label, e in families:
            assert is_cl(e).on_cl, label
        _report(6, True, f"{len(families)} Ehrhart polynomials certified on the canonical line")

    def test_07_interlacing_certification(self):
        chains = []
        for n in range(1, 9):
            chains += [
                ("E(1,n) < E(1,n+1)", ehrhart_bipartite(1, n), ehrhart_bipartite(1, n + 1)),
                ("E(2,n) < E(2,n+1)", ehrhart_bipartite(2, max(n, 2)), ehrhart_bipartite(2, max(n, 2) + 1)),
                ("E(1,n) < E(1,1,n)", ehrhart_bipartite(1, n), ehrhart_1mn(1, n)),
                ("E(1,1,n) < E(1,1,n+1)", ehrhart_1mn(1, n), ehrhart_1mn(1, n + 1)),
                ("E(1,1,n) < E(1,2,n)", ehrhart_1mn(1, n), ehrhart_1mn(2, n)),
                ("E(1,1,n) < E(1,1,1,n)", ehrhart_1mn(1, n), ehrhart_111n(n)),
            ]
        for label, g, f in chains:
            assert interlaces_on_cl(g, f).interlaces, label
        _report(7, True, f"{len(chains)} interlacing certificates verified")

    def test_08_property_suites(self):
        # h* <-> Ehrhart round trips and recombinations
        for d in range(13):
            coeffs = [1] + [2 * i + 1 for i in range(1, d + 1)]
            h = HStar(coeffs, d)
            assert hstar_from_ehrhart(ehrhart_from_hstar(h), d) == h
            assert ehrhart_from_hstar(h)(0) == 1
        for d in range(1, 13):
            coeffs = [1] * (d + 1)
            for i in range(1, (d + 1) // 2):
                coeffs[i] = coeffs[d - i] = i + 4
            h = HStar(coeffs, d)
            gamma = gamma_vector(h)  # raises if the recombination breaks
            e = ehrhart_from_hstar(h)
            assert cross_recombine(cross_coefficients(e, d), d) == e
        # cross recursion and the generating-function lemma grid
        for n in range(2, 21):
            assert cross_polynomial(n) == Fraction(1, n) * TWO_X_PLUS_1 * cross_polynomial(
                n - 1
            ) + Fraction(n - 1, n) * cross_polynomial(n - 2)
        for d in range(1, 7):
            for n in range(0, 4):
                assert gammalemma_check(d, n)
        # planar trees; the oracle's mirrored h* against every count up to
        # d+1, most of which it never reads
        for a in range(1, 7):
            for b in range(1, 7):
                assert planar_tree_count(a, b) == len(enumerate_planar_trees(a, b))
        for sig in _signatures(6):
            e = ehrhart_from_hstar(hstar_oracle(sig))
            for k in range(sig.dim + 2):
                assert e(k) == count_lattice_points(sig, k).count, str(sig)
        # contraction identity and bipartite gamma degrees
        for m in range(1, 9):
            for n in range(1, 9):
                assert contraction_identity_check(m, n)
        for a in range(9):
            for b in range(9):
                assert gamma_vector(hstar_bipartite(a, b)).degree == min(a, b)
        _report(8, True, "round trips, recursion, lemma grid, planar counts, oracle vs counts, contraction, gamma degrees")

    def test_09_conjecture_scan(self):
        rep = conjecture_scan(6, 6)
        ok = rep["violations"] == 0 and all(i["certified"] for i in rep["interlacings"])
        _report(9, ok, f"{len(rep['rows'])} signatures scanned, {rep['violations']} violations")
