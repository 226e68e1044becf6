"""Complete multipartite graphs, their canonical vertex/edge order, and
facet-defining vertex labelings of the symmetric edge polytope.

Vertex numbering is fixed class by class in signature order: for signature
(a_1, ..., a_k) the vertices are 1..a_1 in class 1, a_1+1..a_1+a_2 in class
2, and so on.  Edges are the inter-class pairs ordered lexicographically by
(smaller endpoint, larger endpoint).  Every module in the package shares this
numbering; the Groebner basis and the triangulation depend on it.

A labeling lambda: V -> Z supports the facet <lambda, x> <= 1 of P_G exactly
when every edge has |lambda(u) - lambda(v)| <= 1 and the edges with
difference exactly 1 form a connected spanning subgraph.  The first half is
``is_facet_labeling``, checked class by class rather than edge by edge; the
enumeration adds the second, and the triangulation gets it from a tree whose
edges all have difference 1.  Complete multipartite graphs have diameter
<= 2, so after normalizing min(lambda) = 0 the values lie in {0, 1, 2}; we
enumerate that box directly and cross-check the count against the closed
facet-count formula in the tests.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import NamedTuple, Optional, Sequence


class DirectedEdge(NamedTuple):
    """A directed edge between vertices of distinct classes."""

    tail: int
    head: int


class SizeExceeded(ValueError):
    """The requested computation is beyond the configured size bound."""


class VerificationFailed(Exception):
    """An exact invariant of a computation failed: a bug, never bad input.

    Every such error of every layer derives from this class, beside the
    builtin base it always had; the command line exits 3 on it."""


class Unclassifiable(VerificationFailed, ValueError):
    """A labeling matched none of the facet normal forms (enumeration bug)."""


class Signature:
    """Ordered class sizes (a_1, ..., a_k), k >= 2, of a complete multipartite
    graph."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(a < 1 for a in parts):
            raise ValueError(f"class sizes must be positive: {parts}")
        if len(parts) < 2:
            raise ValueError("need at least two classes")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Signature is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))

    @staticmethod
    def parse(text: str) -> "Signature":
        """Parse 'a_1,a_2,...,a_k' (comma-separated positive integers)."""
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad signature text: {text!r}") from None
        return Signature(parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def dim(self) -> int:
        """Dimension of the symmetric edge polytope (total - 1)."""
        return self.total - 1

    def class_vertices(self, i: int) -> range:
        lo = sum(self.parts[:i]) + 1
        return range(lo, lo + self.parts[i])

    def classes(self) -> list[range]:
        return [self.class_vertices(i) for i in range(self.k)]

    def vertices(self) -> range:
        return range(1, self.total + 1)

    def class_table(self) -> list[int]:
        """class_table[v] = class of vertex v, index 0 unused."""
        table = [-1] * (self.total + 1)
        for i in range(self.k):
            for v in self.class_vertices(i):
                table[v] = i
        return table

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.parts)


def edge_order(sig: Signature) -> list[tuple[int, int]]:
    """All inter-class pairs {v, w} as (v, w) with v < w, in the canonical
    order: (v, w) < (v', w') iff v < v' or (v = v' and w < w')."""
    table = sig.class_table()
    return [
        (v, w)
        for v in sig.vertices()
        for w in range(v + 1, sig.total + 1)
        if table[v] != table[w]
    ]


class FacetLabeling:
    """Integer vertex labeling normalized to min 0; supports <lambda,x> <= 1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        object.__setattr__(self, "values", values)  # values[v-1] = label of vertex v

    def __setattr__(self, *a):  # immutability
        raise AttributeError("FacetLabeling is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash((self.values,))

    def __getitem__(self, v: int) -> int:
        return self.values[v - 1]


class FacetType(Enum):
    TYPE_I = "i"
    TYPE_IIA = "ii-a"
    TYPE_IIB = "ii-b"


def _connected_spanning(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 1:
        return True
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(adj) < n:
        return False
    seen = {next(iter(adj))}
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_facet_labeling(sig: Signature, values: Sequence[Optional[int]]) -> bool:
    """Whether a labeling whose difference-1 edges span the vertices
    supports a facet: every vertex has a label (``values[v-1]`` is not
    None) and every difference across two classes is at most 1.

    A spread of at most 1 always fits, and one of 3 or more never does
    when k >= 2.  A spread of 2 fits when it lies within one class and
    every other class is constant at the middle label: one class at most
    is mixed.  So the test takes O(n + k) steps, class by class, not edge
    by edge."""
    if None in values:
        return False
    low, high = min(values), max(values)
    if high - low != 2:
        return high - low <= 1
    mixed = False
    lo = 0
    for a in sig.parts:
        if values[lo : lo + a].count(low + 1) < a:
            if mixed:
                return False
            mixed = True
        lo += a
    return True


def enumerate_facet_labelings(sig: Signature) -> list[FacetLabeling]:
    """All facet-defining labelings, normalized to min 0, each exactly once.

    Values range over {0, 1, 2}: min 0 plus edge differences <= 1 plus
    diameter <= 2 bound every label by 2.  A labeling qualifies when it
    passes ``is_facet_labeling`` and its unit-difference edges form a
    connected spanning subgraph.
    """
    n = sig.total
    edges = edge_order(sig)
    out = []
    for values in product((0, 1, 2), repeat=n):
        if min(values) != 0 or not is_facet_labeling(sig, values):
            continue
        unit = [(u, w) for u, w in edges if abs(values[u - 1] - values[w - 1]) == 1]
        if _connected_spanning(n, unit):
            out.append(FacetLabeling(values))
    return out


def classify_labeling(sig: Signature, lam: FacetLabeling) -> FacetType:
    """Sort a facet labeling into the three normal forms (k >= 3 only).

    After re-centering, type (i) has one class carrying {-1, 1} with all
    other vertices at 0; type (ii) is {0,1}-valued, split into (a) constant
    on every class and (b) some class mixed with mixed complement.  The
    vertices are numbered class by class, so each class is a slice of the
    values, and the test takes O(n + k) steps.
    """
    if sig.k < 3:
        raise ValueError("classification defined for k >= 3")
    vals = lam.values
    hi = max(vals)
    slices, lo = [], 0
    for a in sig.parts:
        slices.append(vals[lo : lo + a])
        lo += a
    if hi == 2:
        # re-center by -1: the {0,2} class becomes {-1,1}, the rest must sit at 1
        off = [s for s in slices if s.count(1) < len(s)]
        if len(off) == 1 and set(off[0]) - {1} == {0, 2}:
            return FacetType.TYPE_I
        raise Unclassifiable(f"{vals} matches no normal form")
    if hi <= 1:
        per_class = [set(s) for s in slices]
        if all(len(s) == 1 for s in per_class):
            return FacetType.TYPE_IIA
        # a mixed class, and both labels among the other classes: two
        # classes or more hold a 0, and two or more a 1
        if (
            {0, 1} in per_class
            and set().union(*per_class) == {0, 1}
            and sum(0 in s for s in per_class) > 1
            and sum(1 in s for s in per_class) > 1
        ):
            return FacetType.TYPE_IIB
        raise Unclassifiable(f"{vals} has a mixed class but constant complement")
    raise Unclassifiable(f"{vals} not normalized")


def facet_count_formula(sig: Signature) -> int:
    """Closed facet count for k >= 3: 2^n - sum_i (2^(a_i) - 2) - 2.

    Counting the {0,1}-labelings that fail the facet conditions (the two
    constant ones, plus one mixed class against a constant complement in
    2 (2^(a_i) - 2) ways per class) and adding the 2^(a_i) - 2 labelings of
    type (i) per class gives exactly this count.
    """
    return 2**sig.total - sum(2**a - 2 for a in sig.parts) - 2
