#!/usr/bin/env python3
"""Regenerate ``reference.json``, the answers the benchmark checks against.

Run from the repository root:  python3 sepbench/refgen.py

The mathematical references are computed here, independently of the
program under test:

* Lattice-point counts come from a class-wise transfer count.  For a
  complete multipartite graph, x lies in k P_G iff sum(x) = 0, the positive
  parts of x sum to at most k, and sum_{v in A_i} |x_v| <= k for every class
  A_i.  So E(k) is a convolution over the classes of c_a(P, N), the number
  of vectors in Z^a with positive mass P and negative mass N.
* h* follows from the counts by h*(t) = (1 - t)^(d+1) sum_k E(k) t^k, with
  the coefficient of t^(d+1) checked to vanish.  The counts are checked
  against closed forms written out here: C(n-1, i)^2 for K_n, and the
  bipartite sum of C(2i, i) C(a, i) C(b, i) t^i (1+t)^(d-2i).  Tripartite
  counts are also checked against the program's tripartite formula.
* Roots on the canonical line: with u = 2x + 1, 2^d E((u-1)/2) =
  u^parity H(u^2).  The real roots of H are bracketed here to width 2^-40
  by exact sign changes, starting from floating-point estimates.  Finding
  deg H sign changes proves that every root is real and simple.
* Interlacing verdicts come from those brackets.  Recursion and corollary
  coefficients come from an exact Gaussian elimination written here.

Two parts come from the program, because nothing else computes them: the
split of h* by facet type uses the closed type-(i) formula of the program's
``formulas`` module (the triangulation under test is a different method),
and ``cli_digest`` holds SHA-256 digests of the CLI's output at the time of
generation.  The digests only count output changes; a changed digest is not
a failure.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, lcm

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402

# ---------------------------------------------------------------------------
# transfer count
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> int:
    if parts == 0:
        return 1 if total == 0 else 0
    return comb(total - 1, parts - 1) if total >= parts else 0


def _class_table(a: int, k: int) -> list[list[int]]:
    """t[P][N] = #{x in Z^a : positive mass P, negative mass N}, P + N <= k."""
    t = [[0] * (k + 1) for _ in range(k + 1)]
    for p in range(k + 1):
        for n in range(k + 1 - p):
            t[p][n] = sum(
                comb(a, j) * comb(a - j, l) * _compositions(p, j) * _compositions(n, l)
                for j in range(a + 1)
                for l in range(a - j + 1)
            )
    return t


def ehrhart_count(parts, k: int) -> int:
    """|k P_G  ∩ Z^n| for G = K_parts."""
    dp = {(0, 0): 1}
    for a in parts:
        t = _class_table(a, k)
        nxt: dict[tuple[int, int], int] = {}
        for (p0, n0), ways in dp.items():
            for p in range(k + 1 - p0):
                for n in range(k + 1 - n0):
                    if p + n > k or not t[p][n]:
                        continue
                    s = (p0 + p, n0 + n)
                    nxt[s] = nxt.get(s, 0) + ways * t[p][n]
        dp = nxt
    return sum(w for (p, n), w in dp.items() if p == n)


def hstar(parts) -> list[int]:
    d = sum(parts) - 1
    counts = [ehrhart_count(parts, k) for k in range(d + 2)]
    h = [sum((-1) ** j * comb(d + 1, j) * counts[i - j] for j in range(i + 1)) for i in range(d + 2)]
    if h[d + 1] != 0 or min(h) < 0:
        raise AssertionError(f"transfer count failed its guard on {parts}: {h}")
    h = h[: d + 1]
    check_closed_forms(parts, h)
    return h


def check_closed_forms(parts, h: list[int]) -> None:
    d = sum(parts) - 1
    if all(a == 1 for a in parts):
        assert h == [comb(d, i) ** 2 for i in range(d + 1)], parts
    if len(parts) == 2:
        a, b = parts[0] - 1, parts[1] - 1
        total = [0] * (d + 1)
        for i in range(min(a, b) + 1):
            c = comb(2 * i, i) * comb(a, i) * comb(b, i)
            for j in range(d - 2 * i + 1):
                total[i + j] += c * comb(d - 2 * i, j)
        assert h == total, parts
    if len(parts) == 3:
        from sepkit.formulas import hstar_tripartite

        assert h == list(hstar_tripartite(*parts).coefficients), parts


# ---------------------------------------------------------------------------
# exact polynomials (lists of Fractions, constant term first)
# ---------------------------------------------------------------------------


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def pscale(p, c):
    return trim([c * a for a in p])


def ehrhart_poly(h: list[int]) -> list[Fraction]:
    """E(x) = sum_i h_i C(x + d - i, d)."""
    d = len(h) - 1
    total: list[Fraction] = []
    for i, hi in enumerate(h):
        if not hi:
            continue
        term = [Fraction(1)]
        for j in range(d):  # (x + d - i - j)
            term = pmul(term, [Fraction(d - i - j), Fraction(1)])
        total = padd(total, pscale(term, Fraction(hi, factorial(d))))
    return total


# ---------------------------------------------------------------------------
# roots on the canonical line
# ---------------------------------------------------------------------------


def half_square(e: list[Fraction]) -> tuple[int, list[Fraction]]:
    """(parity, H) with 2^d E((u-1)/2) = u^parity H(u^2)."""
    d = len(e) - 1
    f: list[Fraction] = []
    power = [Fraction(1)]
    for c in e:  # sum c_j ((u-1)/2)^j, times 2^d
        f = padd(f, pscale(power, c))
        power = pmul(power, [Fraction(-1, 2), Fraction(1, 2)])
    f = pscale(f, Fraction(2) ** d)
    parity = d & 1
    assert all(f[i] == 0 for i in range(len(f)) if (i - parity) % 2), "E is not symmetric"
    return parity, trim(f[parity::2])


def _sign(p_int: list[int], x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    n = len(p_int) - 1
    v = sum(c * num**i * den ** (n - i) for i, c in enumerate(p_int))
    return (v > 0) - (v < 0)


def w_roots(e: list[Fraction]) -> dict:
    """Independent root data of H: zero multiplicity and 2^-40 brackets of
    every nonzero real root, or on_cl False when some root is not real and
    nonpositive."""
    parity, h = half_square(e)
    zero = 0
    while h and h[0] == 0:
        h = h[1:]
        zero += 1
    den = lcm(*(c.denominator for c in h))
    g = [int(c * den) for c in h]
    deg = len(g) - 1
    out = {"parity": parity, "zero_multiplicity": zero, "roots": [], "on_cl": True}
    if deg <= 0:
        return out
    est = numpy.roots([float(c) for c in reversed(g)])
    if any(abs(r.imag) > 1e-6 * max(1.0, abs(r.real)) or r.real >= 0 for r in est):
        out["on_cl"] = False
        return out
    est = sorted(r.real for r in est)
    cuts = [Fraction(2 * est[0] - 1)]
    cuts += [Fraction((x + y) / 2) for x, y in zip(est, est[1:])]
    cuts.append(Fraction(0))
    signs = [_sign(g, c) for c in cuts]
    if any(s == 0 for s in signs) or any(a == b for a, b in zip(signs, signs[1:])):
        raise AssertionError("floating-point estimates did not separate the roots")
    for lo, hi, s_lo in zip(cuts, cuts[1:], signs):
        while hi - lo > Fraction(1, 2**40):
            mid = (lo + hi) / 2
            s = _sign(g, mid)
            if s == 0:
                lo = hi = mid
                break
            if s == s_lo:
                lo = mid
            else:
                hi = mid
        out["roots"].append([str(lo), str(hi)])
    return out


def line_positions(roots: dict) -> list[float]:
    """Imaginary parts of all roots of E on the canonical line, with
    multiplicity, bottom to top."""
    pos = []
    for lo, _ in roots["roots"]:
        s = (-float(Fraction(lo))) ** 0.5 / 2
        pos += [s, -s]
    pos += [0.0] * (2 * roots["zero_multiplicity"] + roots["parity"])
    return sorted(pos)


def interlaces(g_roots: dict, f_roots: dict) -> bool:
    """Weak alternation a_1 <= b_1 <= a_2 <= ... of the roots of f (a) and g (b)."""
    if not (g_roots["on_cl"] and f_roots["on_cl"]):
        return False
    a, b = line_positions(f_roots), line_positions(g_roots)
    if len(a) != len(b) + 1:
        return False
    tol = 1e-9
    return all(a[i] <= b[i] + tol and b[i] <= a[i + 1] + tol for i in range(len(b)))


# ---------------------------------------------------------------------------
# recursions
# ---------------------------------------------------------------------------

TWO_X_PLUS_1 = [Fraction(1), Fraction(2)]


def solve(columns: list[list[Fraction]], rhs: list[Fraction]) -> tuple[str, list[Fraction]]:
    """Solve sum_j x_j columns[j] = rhs exactly: ("unique", x), ("none", [])
    or ("underdetermined", [])."""
    rows = max([len(rhs)] + [len(c) for c in columns])
    m = [[(c[i] if i < len(c) else Fraction(0)) for c in columns] + [rhs[i] if i < len(rhs) else Fraction(0)]
         for i in range(rows)]
    ncol = len(columns)
    pivots = []
    r = 0
    for col in range(ncol):
        piv = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    if any(all(v == 0 for v in row[:ncol]) and row[ncol] != 0 for row in m):
        return "none", []
    if len(pivots) < ncol:
        return "underdetermined", []
    return "unique", [m[i][ncol] for i in range(ncol)]


class Families:
    """Ehrhart polynomials and root data of the families, memoized."""

    def __init__(self):
        self.h: dict[str, list[int]] = {}
        self.e: dict[str, list[Fraction]] = {}
        self.r: dict[str, dict] = {}

    def hstar(self, parts) -> list[int]:
        k = W.key(parts)
        if k not in self.h:
            self.h[k] = hstar(tuple(sorted(parts)))
        return self.h[k]

    def E(self, fam: tuple) -> list[Fraction]:
        if fam[0] == "bip" and 0 in fam[1:]:
            return [Fraction(1)]  # K_{1,0}: a point
        k = W.key(W.family_parts(fam))
        if k not in self.e:
            self.e[k] = ehrhart_poly(self.hstar(W.family_parts(fam)))
        return self.e[k]

    def roots(self, fam: tuple) -> dict:
        k = W.key(W.family_parts(fam))
        if k not in self.r:
            self.r[k] = w_roots(self.E(fam))
        return self.r[k]

    def interlaces(self, g: tuple, f: tuple) -> bool:
        return interlaces(self.roots(g), self.roots(f))


def relation_instances(fam: Families, n: int) -> list[tuple[str, list, list]]:
    """(name, columns, rhs) of the ten catalogued recursions and the three
    bipartite ones, in the order the program reports them."""
    E = fam.E

    def rel(f, g, hs):
        return [pmul(TWO_X_PLUS_1, E(g))] + [E(h) for h in hs], E(f)

    b, one, t, tt = "bip", "1mn", "111n", "22n"
    table = [
        ("a", (one, 1, n), (b, 1, n), [(b, 1, n - 1)]),
        ("b", (one, 1, n + 1), (one, 1, n), [(one, 1, n - 1), (b, 1, n)]),
        ("c", (one, 2, n), (one, 1, n), [(one, 1, n - 1), (b, 1, n)]),
        ("d", (one, 2, n + 1), (one, 2, n), [(one, 2, n - 1), (one, 1, n), (b, 1, n + 1)]),
        ("e", (t, n), (one, 1, n), [(one, 1, n - 1), (b, 1, n)]),
        ("f", (b, 4, n), (b, 3, n), [(b, 3, n - 1), (b, 2, n), (b, 1, n + 1)]),
        ("g", (b, 3, n + 1), (b, 3, n), [(b, 3, n - 1), (b, 2, n), (b, 1, n + 1)]),
        ("h", (tt, n), (one, 2, n), [(one, 2, n - 1), (one, 1, n), (b, 1, n + 1)]),
        ("i", (one, 3, n), (one, 2, n), [(one, 2, n - 1), (one, 1, n), (b, 1, n + 1)]),
        ("j", (t, n + 1), (t, n), [(t, n - 1), (one, 1, n), (b, 1, n + 1)]),
    ]
    out = [(name, *rel(f, g, hs)) for name, f, g, hs in table]
    two = lambda fam_: pmul(TWO_X_PLUS_1, E(fam_))  # noqa: E731
    out.append(("bipartite-1", [two((b, 1, n)), E((b, 1, n - 1))], E((b, 2, n))))
    cols = [two((b, 2, n - 1)), E((b, 1, n - 1))] + ([two((b, 1, n - 2))] if n > 2 else [])
    out.append(("bipartite-2", cols, E((b, 2, n))))
    out.append(("bipartite-3", [two((b, 2, n + 1)), E((b, 2, n)), E((b, 1, n + 1))], E((b, 3, n + 1))))
    return out


def relations_reference(fam: Families, n: int) -> dict:
    rows = {}
    for name, cols, rhs in relation_instances(fam, n):
        status, x = solve(cols, rhs)
        if status == "underdetermined":
            raise AssertionError(f"relation {name} at n={n} has a solution set; pick another n")
        rows[name] = {
            "verified": status == "unique" and all(c >= 0 for c in x),
            "coefficients": [str(c) for c in x],
        }
    statements = [
        (("bip", 1, n), ("1mn", 1, n)),
        (("1mn", 1, n), ("1mn", 1, n + 1)),
        (("1mn", 1, n), ("1mn", 2, n)),
        (("1mn", 1, n), ("111n", n)),
    ]
    return {"rows": rows, "interlacings": [fam.interlaces(g, f) for g, f in statements]}


def corollary_reference(fam: Families, m: int, n: int) -> dict:
    E = fam.E
    rows = {}
    systems = {
        "ladder-up": ([pmul(TWO_X_PLUS_1, E(("bip", m, n + 1)))] + [E(("bip", m - i, n + i)) for i in range(m)],
                      E(("bip", m + 1, n + 1))),
        "shift-right": ([pmul(TWO_X_PLUS_1, E(("bip", m, n)))] + [E(("bip", m - i, n + i - 1)) for i in range(m)],
                        E(("bip", m, n + 1))),
    }
    for label, (cols, rhs) in systems.items():
        status, x = solve(cols, rhs)
        rows[label] = {"status": status, "coefficients": [str(c) for c in x]}
    return {"rows": rows}


def gamma_degree(h: list[int]) -> int:
    d = len(h) - 1
    h = list(h)
    top = -1
    for i in range(d // 2 + 1):
        g = h[i]
        if g:
            top = i
            for j in range(d - 2 * i + 1):
                h[i + j] -= g * comb(d - 2 * i, j)
    assert not any(h), "h* is not palindromic"
    return top


def conjecture_reference(fam: Families, max_total: int, max_n: int, formula_total: int = 12) -> dict:
    """Cross-degrees over the conjecture scan's domain: every signature up
    to max_total, then bipartite, tripartite and K_{1,1,1,n} up to
    formula_total; and the ones-family interlacings for n <= max_n."""
    rows = {}
    for total in range(2, max_total + 1):
        for p in W.partitions(total):
            rows[W.okey(p)] = gamma_degree(fam.hstar(p))
    for total in range(max_total + 1, formula_total + 1):
        for p in W.partitions(total):
            if len(p) in (2, 3) or p == (1, 1, 1, total - 3):
                rows[W.okey(p)] = gamma_degree(fam.hstar(p))
    violations = 0
    for sig, m in rows.items():
        parts = [int(a) for a in sig.split(",")]
        s = sum(parts) - max(parts)
        violations += not (s // 2 <= m + 1 <= s)
    chains = [fam.interlaces(("bip", 1, n), ("1mn", 1, n)) for n in range(1, max_n + 1)]
    chains += [fam.interlaces(("1mn", 1, n), ("111n", n)) for n in range(1, max_n + 1)]
    violations += sum(not c for c in chains)
    return {"rows": rows, "interlacings": chains, "violations": violations}


# ---------------------------------------------------------------------------
# assembling the file
# ---------------------------------------------------------------------------


def orientations(parts) -> list[tuple[int, ...]]:
    return sorted(set(itertools.permutations(parts)))


def cli_variants() -> list[list[str]]:
    """Every argument vector a cli-mix cycle can draw."""
    out = []
    o = lambda p: [W.okey(q) for q in orientations(p)]  # noqa: E731
    for s in o(W.CLI_HSTAR_ALL_7):
        out.append(["hstar", "--signature", s, "--method", "all"])
    for p in W.CLI_HSTAR_ALL_5:
        out += [["hstar", "--signature", s, "--method", "all"] for s in o(p)]
    for p in W.CLI_DILATION:
        out += [["hstar", "--signature", s, "--method", "oracle", "--max-dilation", str(W.CLI_DILATION_K)]
                for s in o(p)]
    for p in W.CLI_CSV_BIP:
        out += [["hstar", "--signature", s, "--method", "formula", "--format", "csv"] for s in o(p)]
    for p in W.CLI_ROOTS:
        out += [["roots", "--signature", s] for s in o(p)]
    for p in W.CLI_ROOTS_CSV:
        out += [["roots", "--signature", s, "--format", "csv"] for s in o(p)]
    for a, b in W.CLI_INTERLACE:
        out += [["interlace", "--a", sa, "--b", sb] for sa in o(a) for sb in o(b)]
    for seed in W.CLI_K222_SEEDS:
        out.append(["gb", "--signature", "2,2,2", "--checks", "reduced,lead,degree,membership,k222",
                    "--seed", str(seed)])
        out.append(["scan", "--kind", "k222", "--seed", str(seed)])
    out += [["gb", "--signature", s, "--checks", "buchberger,export"] for s in o(W.CLI_BUCHBERGER_EXPORT)]
    out += [["gb", "--signature", s, "--checks", "buchberger"] for s in o(W.CLI_BUCHBERGER)]
    out.append(["recursion", "--n", "5"])
    out += [["recursion", "--relation", r, "--n", str(n)] for r, n in W.CLI_RELATION]
    out.append(["scan", "--kind", "conjecture", "--max-total", str(W.CONJECTURE[0]), "--max-n", str(W.CONJECTURE[1])])
    out += [["scan", "--kind", "corollary", "--m", str(m), "--max-n", str(n)] for m, n in W.CLI_COROLLARY]
    return out


def cli_digests() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    digests = {}
    for argv in cli_variants():
        out = subprocess.run([sys.executable, "-m", "sepkit.cli", *argv], env=env, cwd=ROOT,
                             capture_output=True, timeout=300).stdout
        digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    return digests


def main() -> None:
    from sepkit.formulas import hstar_type_i

    fam = Families()
    ref: dict = {"hstar": {}, "counts": {}, "split": {}, "cl": {}, "chains": {}, "relations": {},
                 "corollary": {}, "conjecture": {}, "interlace": {}}

    sigs = list(W.HSTAR_SIGS) + W.TREE_FIXED + W.TREE_DRAWN + W.SPLIT_FIXED + W.SPLIT_DRAWN
    sigs += [W.CLI_HSTAR_ALL_7] + W.CLI_HSTAR_ALL_5 + W.CLI_DILATION + W.CLI_CSV_BIP
    for p in sigs:
        ref["hstar"][W.key(p)] = fam.hstar(p)
    for p in W.CLI_DILATION:
        ref["counts"][W.key(p)] = [ehrhart_count(tuple(sorted(p)), k) for k in range(W.CLI_DILATION_K + 1)]

    for p in W.SPLIT_FIXED + W.SPLIT_DRAWN:
        h = fam.hstar(p)
        for q in orientations(p):
            type_i = [int(c) for c in hstar_type_i(q).coeffs]
            type_i += [0] * (len(h) - len(type_i))
            ref["split"][W.okey(q)] = {"type_i": type_i, "type_ii": [a - b for a, b in zip(h, type_i)]}

    fams = [("bip", m, m) for m in W.CL_KMM]
    fams += [("bip", a, s - a) for s in W.CL_BIP_SUMS for a in range(W.CL_BIP_MIN, s // 2 + 1)]
    fams += [("tri", *p) for s in W.CL_TRI_SUMS for p in W.partitions(s, 3) if len(p) == 3]
    fams += [("1mn", m, s - m) for s in W.CL_1MN_SUMS for m in range(1, s // 2 + 1)]
    fams += [("111n", n) for n in W.CL_111N] + [("22n", n) for n in W.CL_22N]
    fams += [("sig", *p) for p in W.CLI_ROOTS + W.CLI_ROOTS_CSV]
    for f in fams:
        ref["cl"][W.key(W.family_parts(f))] = {"ehrhart": [str(c) for c in fam.E(f)], **fam.roots(f)}
    for name, top in W.CHAINS:
        ref["chains"][name] = [fam.interlaces(g, f) for g, f in W.chain_pairs(name, top)]
    for n in sorted(set(W.RELATION_NS + [5] + [n for _, n in W.CLI_RELATION])):
        ref["relations"][str(n)] = relations_reference(fam, n)
    for m, n in sorted(set(W.COROLLARY_PAIRS + W.CLI_COROLLARY)):
        ref["corollary"][f"{m},{n}"] = corollary_reference(fam, m, n)
    ref["conjecture"]["%d,%d" % W.CONJECTURE] = conjecture_reference(fam, *W.CONJECTURE)
    for a, b in W.CLI_INTERLACE:
        ref["interlace"][f"{W.key(a)}|{W.key(b)}"] = fam.interlaces(("sig", *a), ("sig", *b))
    # statements of the source about the Groebner basis: the constructed
    # basis passes every check, and every edge order of K_{2,2,2} forces a
    # cubic element
    ref["gb"] = {"verified": True, "k222_all_obstructed": True, "k222_max_degree": 3}
    ref["cli_digest"] = cli_digests()

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
