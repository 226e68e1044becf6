"""Exact recursive relations among Ehrhart polynomials of symmetric edge
polytopes: the linear solver, its cross-basis triangular counterpart, the
catalogue of known relations, and the scans over the corollary grid and the
cross-degree conjecture.

A relation has the shape

    f(x) = alpha (2x+1) g(x) + sum_i alpha_i h_i(x),

solved exactly by comparing coefficients.  Positive solutions feed the
interlacing calculus: when every coefficient is nonnegative and the h_i all
interlace g on the canonical line, g interlaces f there.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from .formulas import (
    IdentityFailed,
    _closed_gamma,
    ehrhart_111n,
    ehrhart_1mn,
    ehrhart_22n,
    ehrhart_bipartite,
)
from .graphs import Signature, VerificationFailed
from .polynomial import (
    TWO_X_PLUS_1,
    Poly,
    cross_coefficients,
    fraction_str,
)
from .roots import _interlace, _w_data, interlaces_on_cl


class DegreeMismatch(ValueError):
    """The relation's degree ladder deg f = deg g + 1 = deg h_i + 2 failed."""


class CrossDegreeMismatch(ValueError):
    """The cross-degree ladder needed for triangular solving failed."""


class RelationFailed(VerificationFailed, AssertionError):
    """A catalogued relation did not solve as the source asserts."""


class ExactSolveFailed(VerificationFailed, ArithmeticError):
    """The exact solver broke one of its own invariants."""


class RecursionSolution(NamedTuple):
    """Outcome of solving f = alpha (2x+1) g + sum alpha_i h_i exactly."""

    alpha: Optional[Fraction]
    alphas: list[Fraction]
    status: str  # unique | none | underdetermined
    kernel_dim: int = 0
    # for underdetermined systems: one solution plus a kernel basis, so
    # that callers can reason about the whole solution set exactly
    particular: Optional[list[Fraction]] = None
    kernel: Optional[list[list[Fraction]]] = None

    @property
    def coefficients(self) -> list[Fraction]:
        return [self.alpha] + list(self.alphas)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ExactSolveFailed(f"fraction-free elimination lost integrality: {num} / {den}")
    return q


def _solve_exact(columns: Sequence[Poly], rhs: Poly) -> RecursionSolution:
    """Solve sum_j x_j columns[j] = rhs by fraction-free elimination.

    Coefficients are compared degree by degree; the integer matrix, each
    column's numerators over one common denominator, goes through Bareiss
    elimination, which keeps every intermediate value an exact integer.
    """
    ncols = len(columns)
    nrows = 1 + max([rhs.degree] + [c.degree for c in columns])
    den = lcm(rhs.den, *[c.den for c in columns])
    cols = [[x * (den // p.den) for x in p.num] + [0] * (nrows - len(p.num)) for p in (*columns, rhs)]
    mat = [list(row) for row in zip(*cols)]

    # one-step fraction-free Gauss-Jordan elimination with row pivoting:
    # every non-pivot row is rewritten as (pivot * row - row[col] * pivot_row)
    # divided by the previous pivot, which stays integral; the division is
    # checked so integrality loss would be loud, never silent
    rank = 0
    pivot_cols: list[int] = []
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        for r in range(nrows):
            if r == rank:
                continue
            factor = mat[r][col]
            row = mat[r]
            prow = mat[rank]
            for c2 in range(ncols + 1):
                row[c2] = _exact_div(pivot * row[c2] - factor * prow[c2], prev)
        prev = pivot
        pivot_cols.append(col)
        rank += 1

    inconsistent = any(
        all(mat[r][c] == 0 for c in range(ncols)) and mat[r][ncols] != 0
        for r in range(nrows)
    )
    if inconsistent:
        return RecursionSolution(None, [], status="none")
    if rank < ncols:
        free_cols = [c for c in range(ncols) if c not in pivot_cols]
        particular = [Fraction(0)] * ncols
        for r, col in enumerate(pivot_cols):
            particular[col] = Fraction(mat[r][ncols], mat[r][col])
        kernel = []
        for fc in free_cols:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for r, col in enumerate(pivot_cols):
                vec[col] = -Fraction(mat[r][fc], mat[r][col])
            kernel.append(vec)
        return RecursionSolution(
            None,
            [],
            status="underdetermined",
            kernel_dim=ncols - rank,
            particular=particular,
            kernel=kernel,
        )

    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivot_cols):
        sol[col] = Fraction(mat[r][ncols], mat[r][col])
    # exactness check: reproduce the right-hand side
    recomposed = Poly.zero()
    for x, c in zip(sol, columns):
        recomposed = recomposed + x * c
    if recomposed != rhs:
        raise ExactSolveFailed(f"exact solution recomposes to {recomposed}, not {rhs}")
    return RecursionSolution(sol[0], sol[1:], status="unique")


def _fourier_motzkin_feasible(
    rows: list[tuple[list[Fraction], Fraction]]
) -> Optional[list[Fraction]]:
    """A point t with a . t >= b for every (a, b), or None; exact throughout.

    Eliminates the last variable by combining every lower bound with every
    upper bound, then back-substitutes the midpoint of the surviving range.
    Only tiny systems arise here (kernel dimension <= 2), so the quadratic
    blowup is irrelevant.
    """
    nvars = len(rows[0][0]) if rows else 0
    if nvars == 0:
        return [] if all(b <= 0 for _, b in rows) else None
    lowers = []  # t_last >= value(t_rest)
    uppers = []
    keep = []
    for a, b in rows:
        c = a[-1]
        rest = a[:-1]
        if c == 0:
            keep.append((rest, b))
        elif c > 0:
            lowers.append(([x / c for x in rest], b / c))
        else:
            uppers.append(([x / c for x in rest], b / c))
    for (al, bl) in lowers:
        for (au, bu) in uppers:
            # bl - al.t <= t_last <= bu - au.t  requires (al - au).t >= bl - bu
            keep.append(([al[i] - au[i] for i in range(nvars - 1)], bl - bu))
    # with no row left, any point of the other variables will do
    rest_point = _fourier_motzkin_feasible(keep) if keep else [Fraction(0)] * (nvars - 1)
    if rest_point is None:
        return None
    lo = [bl - sum(a[i] * rest_point[i] for i in range(nvars - 1)) for a, bl in lowers]
    hi = [bu - sum(a[i] * rest_point[i] for i in range(nvars - 1)) for a, bu in uppers]
    if lo and hi:
        t = (max(lo) + min(hi)) / 2
    elif lo:
        t = max(lo)
    elif hi:
        t = min(hi)
    else:
        t = Fraction(0)
    return rest_point + [t]


def nonnegative_solution(sol: RecursionSolution) -> Optional[list[Fraction]]:
    """A nonnegative point of the solution set, if one exists; None also
    when the system is inconsistent (status "none").

    Unique solutions are checked directly; underdetermined ones are searched
    along their affine solution space by Fourier-Motzkin elimination.
    """
    if sol.status == "unique":
        coeffs = sol.coefficients
        return coeffs if all(c >= 0 for c in coeffs) else None
    if sol.status != "underdetermined":
        return None
    p, kern = sol.particular, sol.kernel
    k = len(kern)
    rows = [([kern[j][i] for j in range(k)], -p[i]) for i in range(len(p))]
    t = _fourier_motzkin_feasible(rows)
    if t is None:
        return None
    point = [p[i] + sum(t[j] * kern[j][i] for j in range(k)) for i in range(len(p))]
    if any(c < 0 for c in point):
        raise ExactSolveFailed(f"feasible point ({', '.join(map(str, point))}) has a negative coordinate")
    return point


def solve_recursion(f: Poly, g: Poly, hs: Sequence[Poly]) -> RecursionSolution:
    """Solve f = alpha (2x+1) g + sum alpha_i h_i by coefficient comparison."""
    if f.degree != g.degree + 1 or any(f.degree != h.degree + 2 for h in hs):
        raise DegreeMismatch(
            f"deg f = {f.degree}, deg g = {g.degree}, deg h = {[h.degree for h in hs]}"
        )
    return _solve_exact([TWO_X_PLUS_1 * g] + list(hs), f)


def solve_recursion_cross(f: Poly, g: Poly, hs: Sequence[Poly]) -> RecursionSolution:
    """Same solution as `solve_recursion`, obtained by back-substitution in
    the cross-polynomial basis.

    Writing p = sum_k v_p[k] C_(deg p - 2k), the relation decouples level by
    level; alpha comes from the top level and each alpha_i from the level
    just above its h_i's cross-degree, descending.  Duplicate cross-degrees
    among the h_i break the triangular structure.
    """
    if f.degree != g.degree + 1 or any(f.degree != h.degree + 2 for h in hs):
        raise DegreeMismatch(
            f"deg f = {f.degree}, deg g = {g.degree}, deg h = {[h.degree for h in hs]}"
        )
    big = f.degree
    t = TWO_X_PLUS_1 * g
    vec_f = cross_coefficients(f, big)
    vec_t = cross_coefficients(t, big)
    vec_hs = [cross_coefficients(h, big - 2) for h in hs]
    deltas = [v.degree for v in vec_hs]
    if len(set(deltas)) != len(deltas):
        raise CrossDegreeMismatch(f"duplicate cross-degrees {deltas}")
    levels = big // 2 + 1  # levels 0 .. big//2 carry C_big, C_(big-2), ...
    by_delta = {d: j for j, d in enumerate(deltas)}

    if vec_t[0] == 0:
        return RecursionSolution(None, [], status="none")
    alpha = vec_f[0] / vec_t[0]
    alphas: list[Optional[Fraction]] = [None] * len(hs)
    for k in range(levels - 1, 0, -1):
        residual = vec_f[k] - alpha * vec_t[k]
        for j, v in enumerate(vec_hs):
            if deltas[j] > k - 1 and alphas[j] is not None:
                residual -= alphas[j] * v[k - 1]
        j_new = by_delta.get(k - 1)
        if j_new is not None:
            lead = vec_hs[j_new][k - 1]
            if lead == 0:
                raise CrossDegreeMismatch("stated cross-degree has zero top coefficient")
            alphas[j_new] = residual / lead
        elif residual != 0:
            return RecursionSolution(None, [], status="none")
    if any(a is None for a in alphas):
        # an h_i whose cross-degree exceeds every usable level cannot occur
        # under the degree ladder; treat defensively
        raise CrossDegreeMismatch("unreached unknown in the triangular sweep")
    recomposed = alpha * t
    for a, h in zip(alphas, hs):
        recomposed = recomposed + a * h
    if recomposed != f:
        return RecursionSolution(None, [], status="none")
    return RecursionSolution(alpha, alphas, status="unique")


# ---------------------------------------------------------------------------
# The catalogue of relations
# ---------------------------------------------------------------------------


def _signs(cs: Sequence[Fraction]) -> list[str]:
    """The sign of each coefficient as "+", "0" or "-"."""
    return ["+" if c > 0 else ("0" if c == 0 else "-") for c in cs]


# the id of every row of `reproduce_known_relations`, in report order
RELATION_IDS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "bipartite-1", "bipartite-2", "bipartite-3")


def _relation_instances(n: int) -> list[dict]:
    """The ten recursions (a)-(j) at parameter n, as solver inputs."""
    return [
        dict(relation="a", f=ehrhart_1mn(1, n), g=ehrhart_bipartite(1, n), hs=[ehrhart_bipartite(1, n - 1)],
             expected=[Fraction(n + 2, 2 * (n + 1)), Fraction(n, 2 * (n + 1))]),
        dict(relation="b", f=ehrhart_1mn(1, n + 1), g=ehrhart_1mn(1, n),
             hs=[ehrhart_1mn(1, n - 1), ehrhart_bipartite(1, n)]),
        dict(relation="c", f=ehrhart_1mn(2, n), g=ehrhart_1mn(1, n),
             hs=[ehrhart_1mn(1, n - 1), ehrhart_bipartite(1, n)]),
        dict(relation="d", f=ehrhart_1mn(2, n + 1), g=ehrhart_1mn(2, n),
             hs=[ehrhart_1mn(2, n - 1), ehrhart_1mn(1, n), ehrhart_bipartite(1, n + 1)]),
        dict(relation="e", f=ehrhart_111n(n), g=ehrhart_1mn(1, n),
             hs=[ehrhart_1mn(1, n - 1), ehrhart_bipartite(1, n)]),
        dict(relation="f", f=ehrhart_bipartite(4, n), g=ehrhart_bipartite(3, n),
             hs=[ehrhart_bipartite(3, n - 1), ehrhart_bipartite(2, n), ehrhart_bipartite(1, n + 1)]),
        dict(relation="g", f=ehrhart_bipartite(3, n + 1), g=ehrhart_bipartite(3, n),
             hs=[ehrhart_bipartite(3, n - 1), ehrhart_bipartite(2, n), ehrhart_bipartite(1, n + 1)]),
        dict(relation="h", f=ehrhart_22n(n), g=ehrhart_1mn(2, n),
             hs=[ehrhart_1mn(2, n - 1), ehrhart_1mn(1, n), ehrhart_bipartite(1, n + 1)]),
        dict(relation="i", f=ehrhart_1mn(3, n), g=ehrhart_1mn(2, n),
             hs=[ehrhart_1mn(2, n - 1), ehrhart_1mn(1, n), ehrhart_bipartite(1, n + 1)]),
        dict(relation="j", f=ehrhart_111n(n + 1), g=ehrhart_111n(n),
             hs=[ehrhart_111n(n - 1), ehrhart_1mn(1, n), ehrhart_bipartite(1, n + 1)]),
    ]


def _bipartite_chain_rows(n: int) -> Iterator[tuple[str, RecursionSolution, list, str]]:
    """(relation, solution, expected, note) for the two fully-displayed
    bipartite relations plus the third one whose printed middle coefficient
    is garbled in the source (flagged as such, expected None)."""
    sol = solve_recursion(ehrhart_bipartite(2, n), ehrhart_bipartite(1, n), [ehrhart_bipartite(1, n - 1)])
    yield "bipartite-1", sol, [Fraction(1, 2), Fraction(1, 2)], ""
    # second relation: E_{2,n} = (1/n)(2x+1)E_{2,n-1} + (1/2)E_{1,n-1}
    #                            + ((n-2)/(2n))(2x+1)E_{1,n-2}
    cols = [TWO_X_PLUS_1 * ehrhart_bipartite(2, n - 1), ehrhart_bipartite(1, n - 1)]
    expected = [Fraction(1, n), Fraction(1, 2)]
    if n > 2:
        cols.append(TWO_X_PLUS_1 * ehrhart_bipartite(1, n - 2))
        expected.append(Fraction(n - 2, 2 * n))
    sol = _solve_exact(cols, ehrhart_bipartite(2, n))
    yield "bipartite-2", sol, expected, "" if n > 2 else "third term vanishes at n=2 and is dropped"
    # third relation: the middle coefficient is ambiguous in the source
    sol = _solve_exact(
        [TWO_X_PLUS_1 * ehrhart_bipartite(2, n + 1), ehrhart_bipartite(2, n), ehrhart_bipartite(1, n + 1)],
        ehrhart_bipartite(3, n + 1),
    )
    expected = [
        Fraction(3 * n * n + 13 * n + 16, 8 * (n * n + 5 * n + 6)),
        None,
        Fraction(4 * n**3 + 9 * n**2 - 13 * n - 32, 8 * (n - 1) * (n**2 + 5 * n + 6)),
    ]
    yield "bipartite-3", sol, expected, "middle coefficient ambiguous in source; solver value is authoritative"


def _row(relation: str, n: int, coeffs: Sequence[Fraction], verified: bool, note: str) -> dict:
    """One report row; only verified coefficients carry their signs."""
    return {
        "relation": relation,
        "n": n,
        "coefficients": [fraction_str(c) for c in coeffs],
        "signs": _signs(coeffs) if verified else [],
        "verified": verified,
        "note": note,
    }


def reproduce_known_relations(n: int, strict: bool = True) -> dict:
    """Solve every catalogued relation at parameter n and certify the
    interlacing statements the positive solutions imply.

    The source asserts, for each relation, the existence of nonnegative
    coefficients.  Existence is decided over the whole solution set (small n
    can collapse isomorphic h-terms and leave a solution line).  In strict
    mode a relation without a nonnegative solution raises RelationFailed
    naming the relation and n; with strict=False it is reported as an
    unverified row instead.  Exact computation shows the displayed relations
    (f), (g) and (j) admit no nonnegative solution at 19 instances with
    2 <= n <= 10: (f) for n <= 4 (a solution line with no nonnegative point
    at n = 2, inconsistent at n = 3, one negative coefficient at n = 4), (g)
    for n >= 3 (inconsistent at n = 3, then one negative coefficient) and (j)
    for n >= 3 (one negative coefficient).  Some relation fails at every n
    from 2 to 15, so strict mode raises there and only strict=False returns
    a report.
    """
    if n < 2:
        raise ValueError("relations are stated for n >= 2")
    rows = []
    for inst in _relation_instances(n):
        relation = inst["relation"]
        sol = solve_recursion(inst["f"], inst["g"], inst["hs"])
        witness = nonnegative_solution(sol)
        if witness is None:
            if sol.status == "none":
                msg = "the displayed identity is inconsistent"
            elif sol.status == "unique":
                msg = (
                    "unique solution has a negative coefficient: "
                    f"{[fraction_str(c) for c in sol.coefficients]}"
                )
            else:
                msg = f"no nonnegative point in the dimension-{sol.kernel_dim} solution set"
            if strict:
                raise RelationFailed(f"relation ({relation}) at n={n}: {msg}")
            rows.append(_row(relation, n, sol.coefficients if sol.status == "unique" else [], False, msg))
            continue
        expected = inst.get("expected")
        if expected is not None and witness != expected:
            raise RelationFailed(f"relation ({relation}) at n={n}: got {[fraction_str(c) for c in witness]}")
        note = "" if sol.status == "unique" else (
            f"solution set has dimension {sol.kernel_dim}; nonnegative representative shown"
        )
        rows.append(_row(relation, n, witness, True, note))
    for relation, sol, expected, note in _bipartite_chain_rows(n):
        if sol.status != "unique":
            raise RelationFailed(f"{relation} at n={n}: {sol.status}")
        if not all(e is None or e == c for e, c in zip(expected, sol.coefficients)):
            raise RelationFailed(f"{relation} at n={n}: displayed coefficients not reproduced")
        rows.append(_row(relation, n, sol.coefficients, True, note))

    interlacings = []
    statements = [
        ("E(1,n) interlaces E(1,1,n)", ehrhart_bipartite(1, n), ehrhart_1mn(1, n)),
        ("E(1,1,n) interlaces E(1,1,n+1)", ehrhart_1mn(1, n), ehrhart_1mn(1, n + 1)),
        ("E(1,1,n) interlaces E(1,2,n)", ehrhart_1mn(1, n), ehrhart_1mn(2, n)),
        ("E(1,1,n) interlaces E(1,1,1,n)", ehrhart_1mn(1, n), ehrhart_111n(n)),
    ]
    for label, g, f in statements:
        cert = interlaces_on_cl(g, f)
        if not cert.interlaces:
            raise RelationFailed(f"{label} failed at n={n}")
        interlacings.append({"statement": label, "n": n, "certified": True})
    return {"n": n, "rows": rows, "interlacings": interlacings}


# ---------------------------------------------------------------------------
# Corollary and conjecture scans
# ---------------------------------------------------------------------------


def corollary_scan(m: int, n: int) -> dict:
    """Solve both bipartite corollary systems at (m, n) and report signs.

    Corollary A: E_{m+1,n+1} = (2x+1) alpha E_{m,n+1} + sum_i alpha_i E_{m-i,n+i}
    Corollary B: E_{m,n+1}   = (2x+1) alpha E_{m,n}   + sum_i alpha_i E_{m-i,n+i-1}

    For m = 4 the scan also reports the closed form of alpha_2 in corollary A,
    (n - n^3) / (8 (5n^3 + 39n^2 + 100n + 96)), which is negative.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    E = ehrhart_bipartite
    rows = []
    sol_a = solve_recursion(
        E(m + 1, n + 1), E(m, n + 1), [E(m - i, n + i) for i in range(m)]
    )
    sol_b = solve_recursion(
        E(m, n + 1), E(m, n), [E(m - i, n + i - 1) for i in range(m)]
    )
    for label, sol in (("ladder-up", sol_a), ("shift-right", sol_b)):
        rows.append(
            {
                "corollary": label,
                "m": m,
                "n": n,
                "status": sol.status,
                "coefficients": [fraction_str(c) for c in sol.coefficients]
                if sol.status == "unique"
                else [],
                "signs": _signs(sol.coefficients) if sol.status == "unique" else [],
            }
        )
    report = {"m": m, "n": n, "rows": rows}
    if m == 4 and sol_a.status == "unique":
        closed = Fraction(n - n**3, 8 * (5 * n**3 + 39 * n**2 + 100 * n + 96))
        report["alpha2"] = fraction_str(sol_a.alphas[2])
        report["alpha2_closed_form"] = fraction_str(closed)
        report["alpha2_matches"] = sol_a.alphas[2] == closed
        report["alpha2_negative"] = sol_a.alphas[2] < 0
    return report


def _partitions(total: int, parts: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """Nondecreasing `parts`-tuples of integers >= least that sum to
    `total`, in lexicographic order; the caller keeps parts * least <= total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(least, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


# past max_total the scan keeps only the family signatures, up to this total
FORMULA_TOTAL = 12


def conjecture_scan(max_total: int, max_n: int) -> dict:
    """Scan the cross-degree inequalities floor(s/2) <= m+1 <= s.

    The conjecture bounds the cross-degree of K_{a_1,...,a_k,n} in terms of
    the small classes alone, so for a sorted signature the bounding sum s
    excludes the largest class.  (Including it, as a literal reading of the
    display might suggest, is falsified already by the cross-polytopes
    K_{1,n}; the report carries that reading as `full_sum_ok` for
    reference.)  The rows run over every signature with k >= 2 classes by
    total, then k, then lexicographically, each with the cross-degree read
    as the index of the last nonzero entry of the gamma vector that
    `closed_form_hstar` expands (`_closed_gamma`).  Each row checks two
    facts that hold for every symmetric edge polytope, gamma_0 = 1 and
    gamma_1 = 2(|E| - n + 1) from h*_1 = 2|E| + 1 - n, and raises
    IdentityFailed on a mismatch.  Every signature up to `max_total` has a
    row; past it, up to FORMULA_TOTAL, only the family signatures (k <= 3,
    or K_{1,1,1,n}) do.  The ones-family interlacing conjecture is certified
    for K_{1^k,n} against K_{1^(k+1),n}, k = 1, 2, n <= max_n.  A negative
    ``max_total`` or ``max_n`` raises ValueError.
    """
    if max_total < 0 or max_n < 0:
        raise ValueError(f"max_total and max_n must be nonnegative, not {max_total} and {max_n}")
    rows = []
    violations = 0
    for total in range(2, max(max_total, FORMULA_TOTAL) + 1):
        for k in range(2, total + 1):
            for parts in _partitions(total, k):
                if total > max_total and not (k <= 3 or (k == 4 and parts[:3] == (1, 1, 1))):
                    continue
                sig = Signature(parts)
                gamma = _closed_gamma(sig)
                edges = (total * total - sum(a * a for a in parts)) // 2
                head, want = (gamma + [0])[:2], [1, 2 * (edges - total + 1)]
                if head != want:
                    raise IdentityFailed(f"K_({sig}): gamma_0, gamma_1 = {head}, not {want} for |E| = {edges}")
                m = len(gamma) - 1
                s = total - parts[-1]
                lower, upper = s // 2, s
                ok = lower <= m + 1 <= upper
                if not ok:
                    violations += 1
                rows.append(
                    {
                        "signature": str(sig),
                        "total": total,
                        "cross_degree": m,
                        "bounds": [lower, upper],
                        "ok": ok,
                        "full_sum_ok": total // 2 <= m + 1 <= total,
                    }
                )

    # E(1^k, n) for k = 1, 2, 3, each transformed once: the middle family
    # is interlaced by the first and interlaces the last
    families = [
        [_w_data(e) for e in (ehrhart_bipartite(1, n), ehrhart_1mn(1, n), ehrhart_111n(n))]
        for n in range(1, max_n + 1)
    ]
    interlacings = []
    for k in (1, 2):
        for n, w in enumerate(families, 1):
            cert = _interlace(w[k - 1], w[k])
            interlacings.append(
                {
                    "statement": f"E(1^{k},{n}) interlaces E(1^{k + 1},{n})",
                    "certified": cert.interlaces,
                }
            )
            if not cert.interlaces:
                violations += 1
    return {
        "max_total": max_total,
        "formula_total": FORMULA_TOTAL,
        "violations": violations,
        "rows": rows,
        "interlacings": interlacings,
    }
