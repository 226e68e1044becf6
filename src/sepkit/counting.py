"""Lattice-point counting and the counting oracle's h* for symmetric edge
polytopes.

The facets of P_G (see ``graphs``) come from {0,1} labelings and from
labelings that are -1 and 1 on one class and 0 elsewhere.  Together they
reduce membership in the k-th dilate to three conditions:

* sum(x) = 0,
* the positive parts of x sum to at most k,
* sum_{v in A_i} |x_v| <= k for every class A_i.

So the count is a transfer over the classes.  A class of size a contributes
c_a(P, N) vectors with positive mass P and negative mass N, where P + N <= k;
convolving these tables class by class, keeping total masses up to k, and
summing the entries with equal positive and negative mass gives
|k P_G ∩ Z^n|.  The table of a class size at a dilate k is a truncation of
its table at any larger dilate, so a run of dilates builds one per size.

``hstar_oracle`` reads h* straight off the counts (``hstar_from_counts``):
the Ehrhart series gives h*_j from L(0..j) alone, and h* is palindromic
because P_G is reflexive, so the counts up to floor(d/2) + 1 fix it, with
one coefficient to spare that guards the count.  No Ehrhart polynomial is
interpolated.

The test suite counts the same points by brute force against the full list
of ``enumerate_facet_labelings`` (``tests/countpure.py``) and holds this
count to it on every signature with at most 6 vertices.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .graphs import Signature, SizeExceeded, VerificationFailed
from .polynomial import HStar, NegativeHStar

DEFAULT_MAX_TOTAL = 36


class InvalidCount(VerificationFailed, ValueError):
    """A dilate's count misses the origin or is even (a counting bug)."""


class DilationCount:
    """Number of lattice points in the k-th dilate."""

    __slots__ = ("k", "count")

    def __init__(self, k: int, count: int):
        if count < 1:
            raise InvalidCount("every dilate contains the origin")
        if count % 2 == 0:
            raise InvalidCount("central symmetry forces an odd count")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "count", count)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("DilationCount is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.count) == (other.k, other.count)

    def __hash__(self):
        return hash((self.k, self.count))


def _check_bound(sig: Signature, max_total: Optional[int]) -> None:
    bound = DEFAULT_MAX_TOTAL if max_total is None else max_total
    if sig.total > bound:
        raise SizeExceeded(
            f"signature total {sig.total} exceeds bound {bound}; "
            f"pass an explicit bound to override"
        )


def _weak_compositions(mass: int, parts: int) -> int:
    """Ways to write `mass` as an ordered sum of `parts` nonnegative integers."""
    if mass < 0:
        return 0
    if parts == 0:
        return 1 if mass == 0 else 0
    return comb(mass + parts - 1, parts - 1)


def _class_table(a: int, k: int) -> list[list[int]]:
    """table[P][N] = c_a(P, N) for P + N <= k.  A vector with i positive
    coordinates is a choice of those coordinates, a composition of P into i
    positive parts, and a weak composition of N over the other a - i
    coordinates.  Each row is cut after its last nonzero entry: for a = 1
    every row but the first is [1], which keeps that class cheap."""
    table = []
    for p in range(k + 1):
        row = [
            sum(comb(a, i) * _weak_compositions(p - i, i) * _weak_compositions(n, a - i) for i in range(a + 1))
            for n in range(k + 1 - p)
        ]
        while row[-1] == 0:  # c_a(P, 0) >= 1, so the row never empties
            row.pop()
        table.append(row)
    return table


def _class_tables(sig: Signature, top: int) -> dict[int, list[list[int]]]:
    """One table per distinct class size, built at the largest dilate `top`."""
    return {a: _class_table(a, top) for a in set(sig.parts)}


def _transfer_count(sig: Signature, k: int, tables: dict[int, list[list[int]]]) -> int:
    """|k P_G ∩ Z^n| from class tables built at some dilate >= k, each
    truncated to P + N <= k."""
    at_k = {a: [row[: k + 1 - p] for p, row in enumerate(table[: k + 1])] for a, table in tables.items()}
    # ways[P][N]: vectors on the classes so far with positive mass P and
    # negative mass N, each class within its bound
    ways = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(k)]
    for a in sig.parts:
        table = at_k[a]
        nxt = [[0] * (k + 1) for _ in range(k + 1)]
        for P, row in enumerate(ways):
            for N, w in enumerate(row):
                if not w:
                    continue
                for p, cells in enumerate(table[: k + 1 - P]):
                    out = nxt[P + p]
                    end = N + len(cells)
                    out[N:end] = [x + w * c for x, c in zip(out[N:end], cells)]
        ways = nxt
    return sum(ways[m][m] for m in range(k + 1))


def count_lattice_points(sig: Signature, k: int, max_total: Optional[int] = None) -> DilationCount:
    """Exact |k P_G  ∩ Z^n| by the class-wise transfer count."""
    if k < 0:
        raise ValueError("dilation must be nonnegative")
    _check_bound(sig, max_total)
    return DilationCount(k, _transfer_count(sig, k, _class_tables(sig, k)))


def dilation_counts(sig: Signature, up_to: int, max_total: Optional[int] = None) -> list[DilationCount]:
    """|k P_G ∩ Z^n| for k = 0..up_to, with one class table per class size."""
    _check_bound(sig, max_total)
    tables = _class_tables(sig, up_to)
    return [DilationCount(k, _transfer_count(sig, k, tables)) for k in range(up_to + 1)]


class CountGuardFailed(VerificationFailed, ArithmeticError):
    """The h* read off the counts is not palindromic, or h*_0 != 1 (a
    counting bug)."""


def hstar_oracle(sig: Signature, max_total: Optional[int] = None) -> HStar:
    """Ground-truth h*: `hstar_from_counts` of L(0..floor(d/2) + 1)."""
    return hstar_from_counts(sig, dilation_counts(sig, sig.dim // 2 + 1, max_total=max_total))


def hstar_from_counts(sig: Signature, counts: list[DilationCount]) -> HStar:
    """h* from the counts L(0..top), top = floor(d/2) + 1, of a run that may go on.

    sum_k L(k) t^k = h*(t) / (1-t)^(d+1) (Stanley, 1980), so
    h*_j = sum_i (-1)^i C(d+1, i) L(j-i) needs only L(0..j).  P_G is
    reflexive, so h* is palindromic (Hibi, 1992): the lower half fixes the
    rest.  Every computed coefficient whose mirror is also computed must
    equal it, and h*_0 = L(0) must be 1; otherwise CountGuardFailed.
    """
    d = sig.dim
    top = d // 2 + 1  # <= d, since d >= 1
    alternating = [(-1) ** i * comb(d + 1, i) for i in range(top + 1)]
    lower = [sum(alternating[i] * counts[j - i].count for i in range(j + 1)) for j in range(top + 1)]
    if lower[0] != 1:
        raise CountGuardFailed(f"h*_0 = L(0) = {lower[0]}, not 1")
    for j in range(d - top, (d + 1) // 2):  # j < d - j <= top
        if lower[j] != lower[d - j]:
            raise CountGuardFailed(
                f"h* from the counts is not palindromic: h*_{j} = {lower[j]}, h*_{d - j} = {lower[d - j]}"
            )
    for j, c in enumerate(lower):
        if c < 0:
            raise NegativeHStar(f"h*_{j} = {c} < 0")
    return HStar(lower + [lower[d - j] for j in range(top + 1, d + 1)], d)
