"""The reduced degrevlex Groebner basis of the toric ideal of a symmetric
edge polytope of a complete multipartite graph, its checks and its
certificate.

Variables are z (the interior lattice point) and one variable per directed
edge; the directed edge a -> b carries the lattice point e_b - e_a.  The
monomial order is degrevlex with z smallest, directed-edge variables grouped
by the edge order, and within one undirected edge the small-to-large
orientation preceding the reverse.

The basis is at most cubic.  Its elements, all binomials lead - tail:

  kind 1   x(a,b) x(b,a) - z^2                 one per undirected edge
  kind 2   x(a,b) x(b,c) - z x(a,c)            a, b, c in three distinct classes
  kind 3a  x(b,c) x(c,d) - x(b,a) x(a,d)       b, d in one class, a the smallest
                                               vertex adjacent to both, c any other
  kind 3b  x(b,c) x(d,a) - x(b,a) x(d,c)       crossing pair of a 4-cycle whose
                                               smallest edge lies on the tail side
  kind 4   x(a,b) x(b,c) x(d,e) - z x(d,c) x(a,e)   5-cycle, a and c in one
                                               class, b the smallest vertex
                                               outside it, no lead pair a
                                               3b lead
  kind 5   x(b,c) x(d,e) x(f,a) - x(b,a) x(d,c) x(f,e)  6-cycle, alternating,
                                               smallest cycle edge on the tail
                                               side, no lead pair a 3b lead

These conditions characterize the minimal generators of the initial ideal.

In the canonical edge order the edges at one vertex rank as their other
ends, and a cycle's smallest edge joins its smallest vertex to the smaller
of that vertex's two cycle neighbours.  So every rank test reads off vertex
numbers.  A crossing pair x(s1,t1) x(s2,t2) of a 4-cycle is a 3b lead
exactly when its sources and its targets come in opposite orders.  Chord
lemma: the smallest edge of a kind-5 cycle is a tail edge, ab, cd or ef,
and a partner edge of the lead pair (bc, fa), (bc, de) or (de, fa); if
that pair's chord c-f, b-e or a-d exists, the pair is a 3b lead.  So
kind 5 is enumerated through a missing chord, a same-class pair.

Order contract: the kinds come in the order above; kind 1 follows the edge
order, kind 3b the directed edges (small-to-large, then large-to-small) of
x(s1,t1), then of x(s2,t2); the other kinds come in lexicographic order of
(a, b, c) for kind 2, (b, d, c) for 3a, (a, c, d, e) for 4 and
(a, b, c, d, e, f) for 5, turned so that a is the smallest of a, c and e.

``buchberger_verify`` certifies the basis by its Hilbert series; it and the
standard-tree search share one lead index (``_lead_partners``) and one
bound.  The test suite also recomputes the minimal generators afresh
by grouping monomials of degree <= 3 into toric weight classes, an
independent referee for ``build_basis`` (``tests/initial_ideal.py``).
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from typing import NamedTuple, Optional, Sequence

from .graphs import Signature, SizeExceeded, VerificationFailed, edge_order

Mono = tuple[int, ...]  # sorted variable indices, with multiplicity

Z = 0  # variable index of z

DEFAULT_TREE_MAX_TOTAL = 10  # vertex bound of the standard-tree search and `buchberger_verify`


class VarTable:
    """The variables of one edge order and per-edge orientation.

    ``edges``, when given, lists every edge once, from smallest to largest,
    each in the orientation that occupies the earlier of its two variable
    slots; by default the edges come lexicographically and small-to-large
    first.  The edge of rank r gets variables 1 + 2r (that orientation)
    and 2 + 2r (the reverse).

    ``var[t][h]`` is the variable of the directed edge t -> h, 0 for a
    non-edge; ``dirs[v]`` is the directed edge of variable v, None for z.
    ``self.edges`` lists the edges in order as (u, w), u < w.
    """

    def __init__(self, sig: Signature, edges: Optional[Sequence[tuple[int, int]]] = None):
        self.sig = sig
        oriented = edge_order(sig) if edges is None else edges
        self.edges = [(min(e), max(e)) for e in oriented]
        self.nvars = 1 + 2 * len(oriented)
        size = sig.total + 1
        self.var = [[0] * size for _ in range(size)]
        self.dirs: list[Optional[tuple[int, int]]] = [None] * self.nvars
        for r, (t, h) in enumerate(oriented):
            self.var[t][h], self.var[h][t] = 1 + 2 * r, 2 + 2 * r
            self.dirs[1 + 2 * r], self.dirs[2 + 2 * r] = (t, h), (h, t)

    def weight(self, mono: Mono) -> tuple[int, ...]:
        """Sum of the lattice points of the monomial's variables."""
        n = self.sig.total
        vec = [0] * n
        for v in mono:
            if v == Z:
                continue
            tail, head = self.dirs[v]
            vec[head - 1] += 1
            vec[tail - 1] -= 1
        return tuple(vec)

    def mono_str(self, mono: Mono) -> str:
        parts = []
        for v in mono:
            if v == Z:
                parts.append("z")
            else:
                t, h = self.dirs[v]
                parts.append(f"x({t},{h})")
        return "*".join(parts) if parts else "1"


# -- monomial arithmetic (sorted tuples of variable indices) ---------------


def mono_divides(m1: Mono, m2: Mono) -> bool:
    """Does m1 divide m2, i.e. is every index of m1 matched by one of m2?"""
    n = len(m2)
    if len(m1) > n:
        return False
    j = 0
    for v in m1:
        while j < n and m2[j] < v:
            j += 1
        if j == n or m2[j] != v:
            return False
        j += 1
    return True


def drl_greater(m1: Mono, m2: Mono) -> bool:
    """Graded reverse lexicographic: higher total degree wins; on a tie the
    monomial with the smaller exponent at the smallest differing variable is
    the larger one, which on sorted index tuples is the larger tuple."""
    return len(m1) > len(m2) or (len(m1) == len(m2) and m1 > m2)


class GBElement(NamedTuple):
    """A binomial lead - tail, tagged with its structural kind."""

    kind: str
    lead: Mono
    tail: Mono


# -- basis construction ------------------------------------------------------


def build_basis(sig: Signature, vt: Optional[VarTable] = None) -> list[GBElement]:
    """Construct the reduced Groebner basis for the canonical order.

    ``vt`` may flip the orientation of edges but must keep the canonical
    edge order, which the rules below read off the vertex numbers; a table
    of another order raises ValueError.

    In the 5-cycle elements (kind 4) the middle vertex b of the protected
    2-path a -> b -> c is the smallest vertex outside the class of a.  The
    literal reading that pins b to the smallest vertex of the first two
    classes fails the referees: for 2,2,1 both `buchberger_verify` and the
    test suite's initial-ideal referee reject it.

    The loops walk neighbour lists, and kind 5 also the class of c, so they
    visit only vertices that can extend the path or cycle at hand;
    two-variable monomials are sorted by one comparison.
    """
    if vt is None:
        vt = VarTable(sig)
    elif vt.edges != edge_order(sig):
        raise ValueError(f"the table's edges are not the canonical edge order of {sig}")
    table = sig.class_table()
    V = vt.var
    verts = sig.vertices()
    classes = sig.classes()
    # nbrs[v]: the vertices outside the class of v, in increasing order; its
    # first entry is the smallest such vertex, the canonical 4-cycle apex
    nbrs = [[u for u in verts if table[u] != table[v]] for v in range(sig.total + 1)]
    out: list[GBElement] = []

    # kind 1: one per undirected edge
    for (u, w) in vt.edges:
        x, y = V[u][w], V[w][u]
        out.append(GBElement("1", (x, y) if x < y else (y, x), (Z, Z)))

    # kind 2: directed 2-paths across three distinct classes
    for a in verts:
        ta, Va = table[a], V[a]
        for b in nbrs[a]:
            x, Vb = Va[b], V[b]
            for c in nbrs[b]:
                if table[c] != ta:
                    y = Vb[c]
                    out.append(GBElement("2", (x, y) if x < y else (y, x), (Z, Va[c])))

    # kind 3a: 2-paths with both endpoints in one class, rerouted via the apex
    for cls in classes:
        for b in cls:
            a0, *others = nbrs[b]
            Vb = V[b]
            for d in cls:
                if b == d:
                    continue
                x, y = Vb[a0], V[a0][d]
                tail = (x, y) if x < y else (y, x)
                for c in others:
                    x, y = Vb[c], V[c][d]
                    out.append(GBElement("3a", (x, y) if x < y else (y, x), tail))

    # kind 3b: crossing pairs x(s1,t1) x(s2,t2), s1 < s2, of 4-cycles whose
    # smallest edge lies on the tail side, that is t2 < t1
    dir_edges = vt.edges + [(w, u) for (u, w) in vt.edges]
    # later[s]: the directed edges from a vertex after s to a neighbour of s,
    # in the order of dir_edges
    later = [[(s2, t2) for s2, t2 in dir_edges if s2 > s and table[t2] != table[s]] for s in range(sig.total + 1)]
    for s1, t1 in dir_edges:
        tt, x, Vs1 = table[t1], V[s1][t1], V[s1]
        for s2, t2 in later[s1]:
            # s2 a neighbour of t1 makes s1 t1 s2 t2 a 4-cycle
            if t2 < t1 and table[s2] != tt:
                y = V[s2][t2]
                p, q = Vs1[t2], V[s2][t1]
                out.append(GBElement("3b", (x, y) if x < y else (y, x), (p, q) if p < q else (q, p)))

    # kind 4: 5-cycles a-b-c-d-e with a protected 2-path a -> b -> c.  As b
    # lies below d and e, (ab, de) is a 3b lead when b-d is an edge and
    # d < a, and (bc, de) when b-e is an edge and e < c
    for a in verts:
        ta, Va = table[a], V[a]
        b = nbrs[a][0]
        tb, xab = table[b], Va[b]
        for c in classes[ta]:
            if c == a:
                continue
            xbc = V[b][c]
            for d in nbrs[c]:
                if d == b or (d < a and table[d] != tb):
                    continue
                Vd = V[d]
                x = Vd[c]
                for e in nbrs[d]:
                    te = table[e]
                    if e == b or te == ta or (e < c and te != tb):
                        continue
                    y = Va[e]
                    out.append(GBElement("4", tuple(sorted((xab, xbc, Vd[e]))), (Z, x, y) if x < y else (Z, y, x)))

    # kind 5: alternating 6-cycles a-b-c-d-e-f turned so that ab is the
    # smallest cycle edge, which makes c and f share a class (the chord
    # lemma).  ab is below bc and fa when a < c and b < f, and below cd, de
    # and ef when d and e exceed min(a, b)
    down = [vs[::-1] for vs in nbrs]  # nbrs, decreasing
    six = []
    for cls in classes:
        tc = table[cls[0]]
        for c in cls:
            for f in cls:
                if f == c:
                    continue
                for b in nbrs[c]:
                    if b > f:
                        break
                    tb = table[b]
                    for a in nbrs[b]:
                        if a > c:
                            break
                        ta = table[a]
                        if ta == tc:
                            continue
                        lo, hi = (a, b) if a < b else (b, a)
                        for d in down[c]:
                            if d <= lo:
                                break
                            if d == hi:
                                continue
                            # (bc, de) is a 3b lead when b-e is an edge and
                            # b < d, c < e disagree; (de, fa) likewise
                            bd, df, ad_edge = b < d, d < f, table[d] != ta
                            for e in down[d]:
                                if e <= lo:
                                    break
                                te = table[e]
                                if e == hi or te == tc:
                                    continue
                                if te != tb and (c < e) != bd:
                                    continue
                                if ad_edge and (e < a) != df:
                                    continue
                                # each cycle comes once; key it by the turn
                                # with a the smallest of a, c and e
                                six.append(min((a, b, c, d, e, f), (c, d, e, f, a, b), (e, f, a, b, c, d)))
    for a, b, c, d, e, f in sorted(six):
        lead = tuple(sorted((V[b][c], V[d][e], V[f][a])))
        tail = tuple(sorted((V[b][a], V[d][c], V[f][e])))
        out.append(GBElement("5", lead, tail))
    return out


# -- verification -------------------------------------------------------------


def toric_membership_check(vt: VarTable, elem: GBElement) -> bool:
    """Lead and tail must have equal degree and equal lattice-point sums
    under the table's variables."""
    return len(elem.lead) == len(elem.tail) and vt.weight(elem.lead) == vt.weight(elem.tail)


def reducedness_check(basis: Sequence[GBElement]) -> bool:
    """No element's leading monomial divides another element's lead."""
    leads = [e.lead for e in basis]
    for i, m in enumerate(leads):
        for j, other in enumerate(leads):
            if i != j and mono_divides(m, other):
                return False
    return True


def leading_term_consistency(basis: Sequence[GBElement]) -> bool:
    """The degrevlex-computed lead of every binomial is its stated lead."""
    return all(drl_greater(e.lead, e.tail) for e in basis)


def max_degree(basis: Sequence[GBElement]) -> int:
    return max(len(e.lead) for e in basis)


def _lead_partners(basis: Sequence[GBElement], nvars: int) -> tuple[list[int], list[list[int]]]:
    """Leading monomials with all-distinct variables, indexed by variable.

    ``pair[v]`` is the bitmask of the variables w with v w a leading
    monomial; ``triple[v][w]`` is the bitmask of the variables x with v w x a
    leading monomial.  Leads with a repeated variable can never divide a
    square-free monomial and are dropped.
    """
    pair = [0] * nvars
    triple = [[0] * nvars for _ in range(nvars)]
    for e in basis:
        lead = e.lead
        if len(set(lead)) != len(lead):
            continue
        if len(lead) == 2:
            a, b = lead
            pair[a] |= 1 << b
            pair[b] |= 1 << a
        else:
            a, b, c = lead
            triple[a][b] |= 1 << c
            triple[b][a] |= 1 << c
            triple[a][c] |= 1 << b
            triple[c][a] |= 1 << b
            triple[b][c] |= 1 << a
            triple[c][b] |= 1 << a
    return pair, triple


def _face_counts(pair: list[int], triple: list[list[int]], nvars: int, d: int) -> Optional[list[int]]:
    """``f[i]``: the sets of i directed-edge variables whose product no
    leading monomial divides, for i = 0..d; None as soon as such a set has
    d + 1 members.

    Depth-first with an explicit stack.  Each frame is (bitmask of the
    variables that may still join, chosen variables).  Variables join in
    increasing order, so each set is met once; a variable may join when it
    forms no degree-2 lead with a chosen variable and completes no degree-3
    lead with two of them.  A frame is only pushed when some variable may
    join it.
    """
    f = [1] + [0] * d
    stack = [((1 << nvars) - 2, ())]  # every variable but z
    while stack:
        free, chosen = stack.pop()
        size = len(chosen) + 1
        if size > d:
            return None
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            f[size] += 1
            blocked = pair[v]
            partners = triple[v]
            for c in chosen:
                blocked |= partners[c]
            if free & ~blocked:
                stack.append((free & ~blocked, chosen + (v,)))
    return f


def buchberger_verify(sig: Signature) -> bool:
    """Is ``build_basis(sig)`` a Groebner basis of the toric ideal I?

    Let J be the ideal of the leads.  When every element lies in I and is
    led by its larger term, J lies in in(I), so S/J has at least the Hilbert
    function of S/I in every degree, with equality exactly when J = in(I).
    P_G has a unimodular triangulation (Higashitani, Kummer and Michalek,
    2017), so S/I has the Ehrhart series h*(t) / (1-t)^(d+1).  With
    square-free leads free of z, S/J is k[z] times the Stanley-Reisner ring
    of the complex of lead-free sets of directed-edge variables (Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 8).  A lead-free set of d + 1
    variables gives S/J a larger dimension than S/I; without one, and with
    f_i lead-free sets of i variables, S/J has the series
    sum_i f_i t^i (1-t)^(d-i) / (1-t)^(d+1).  So the basis is a Groebner
    basis exactly when no lead-free set has d + 1 variables and that
    numerator is h*.  Any other element, and any lead of degree above 3,
    makes the check return False.

    The facets of the complex are the standard trees, so the count walks
    the complex of the triangulation's tree search, under its bound: more
    than ``DEFAULT_TREE_MAX_TOTAL`` vertices raise SizeExceeded.  h* comes
    from `counting.hstar_oracle`, so the check rests on the lattice-point
    counts, which the oracle's palindromy guard and the test suite's brute
    force (``tests/countpure.py``) check.
    """
    if sig.total > DEFAULT_TREE_MAX_TOTAL:
        raise SizeExceeded(f"signature total {sig.total} exceeds bound {DEFAULT_TREE_MAX_TOTAL}")
    vt = VarTable(sig)
    basis = build_basis(sig, vt)
    for e in basis:
        lead = e.lead
        if not (toric_membership_check(vt, e) and drl_greater(lead, e.tail)):
            return False
        if Z in lead or len(set(lead)) != len(lead) or len(lead) > 3:
            return False
    d = sig.dim
    f = _face_counts(*_lead_partners(basis, vt.nvars), vt.nvars, d)
    if f is None:
        return False
    # imported here, so that a `gb` call without this check loads no counting layer
    from .counting import hstar_oracle

    h = [sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1)) for j in range(d + 1)]
    return tuple(h) == hstar_oracle(sig).coefficients


def basis_to_text(vt: VarTable, basis: Sequence[GBElement]) -> str:
    """One element per line, each monomial's variables in index order and
    named by the table the basis was built on."""
    return "\n".join(f"{vt.mono_str(e.lead)} - {vt.mono_str(e.tail)}" for e in basis)


# -- the K_{2,2,2} cubic obstruction -------------------------------------------


def _deg2_standard_map(vt: VarTable) -> set[Mono]:
    """Degree-2 monomials that are the minimum of their weight class.

    Monomials of one degree come in increasing tuple order, so the first
    one met in each weight class is its degrevlex minimum.  The weight
    e_h - e_t of x(t,h) is keyed as the integer 8^h - 8^t; a sum of two
    such keys has digits in -2..2 in base 8, so it determines the weight."""
    key = [0] + [(1 << 3 * h) - (1 << 3 * t) for t, h in vt.dirs[1:]]
    first: dict[int, Mono] = {}
    for a, b in combinations_with_replacement(range(vt.nvars), 2):
        first.setdefault(key[a] + key[b], (a, b))
    return set(first.values())


def _k222_obstruction(vt: VarTable) -> Optional[dict]:
    """Find a 6-cycle binomial through the smallest edge whose lead no
    quadratic element of the toric ideal can divide."""
    sig = vt.sig
    table = sig.class_table()
    var = vt.var
    standard = _deg2_standard_map(vt)
    u, w = vt.edges[0]
    others = [v for v in sig.vertices() if v not in (u, w)]
    for a, b in ((u, w), (w, u)):
        for rest in permutations(others):
            c, d, e, f = rest
            cyc = [(a, b), (b, c), (c, d), (d, e), (e, f), (f, a)]
            if any(table[x] == table[y] for x, y in cyc):
                continue
            lead = tuple(sorted(var[s][t] for s, t in [(b, c), (d, e), (f, a)]))
            tail = tuple(sorted(var[s][t] for s, t in [(b, a), (d, c), (f, e)]))
            # the tail holds x(b,a), the variable 1 or 2 of the smallest edge,
            # and no lead variable lies on that edge, so the lead is always the
            # larger monomial; skipping a cycle here could flip the scan's verdict
            if not drl_greater(lead, tail):
                raise VerificationFailed(f"{vt.mono_str(lead)} does not lead {vt.mono_str(tail)}")
            # the lead is sorted, so its pairs come sorted
            if all(p in standard for p in combinations(lead, 2)):
                return {
                    "cycle": [a, b, c, d, e, f],
                    "lead": vt.mono_str(lead),
                    "tail": vt.mono_str(tail),
                }
    return None


def k222_order_scan(num_orders: int, seed: int) -> dict:
    """Scan edge orders of K_{2,2,2} for the degree-3 obstruction.

    The canonical order plus ``num_orders`` random orders (random edge
    permutation and random per-edge slot orientation, seeded) are each
    checked for a 6-cycle binomial through the smallest edge whose leading
    monomial no quadratic lead divides.  Such a binomial forces a cubic
    element into every Groebner basis for that order.  A negative
    ``num_orders`` raises ValueError.
    """
    if num_orders < 0:
        raise ValueError(f"the number of random orders must be nonnegative, not {num_orders}")
    sig = Signature((2, 2, 2))
    rng = random.Random(seed)
    rows = []
    all_found = True
    base_edges = edge_order(sig)
    for idx in range(num_orders + 1):
        if idx == 0:
            vt = VarTable(sig)
            label = "canonical"
        else:
            edges = list(base_edges)
            rng.shuffle(edges)
            vt = VarTable(sig, [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges])
            label = f"random-{idx}"
        witness = _k222_obstruction(vt)
        found = witness is not None
        all_found = all_found and found
        rows.append(
            {
                "order": label,
                "smallest_edge": list(vt.edges[0]),
                "obstruction_found": found,
                "witness": witness,
            }
        )
    return {
        "signature": "2,2,2",
        "seed": seed,
        "num_orders": num_orders,
        "all_orders_obstructed": all_found,
        "rows": rows,
    }
