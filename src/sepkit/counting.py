"""Lattice-point counting, Ehrhart interpolation and h* extraction for
symmetric edge polytopes.

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
|k P_G ∩ Z^n|.

``_countpure`` counts the same points by brute force against the full list
of ``enumerate_facet_labelings``; the test suite holds this count to it on
every signature with at most 6 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm, prod
from typing import Optional

from .graphs import Signature, SizeExceeded, enumerate_facet_labelings
from .polynomial import Poly, HStar, _div_linear, _poly_over, _times_linear, hstar_from_ehrhart

DEFAULT_MAX_TOTAL = 24


@dataclass(frozen=True)
class DilationCount:
    """Number of lattice points in the k-th dilate."""

    k: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("every dilate contains the origin")
        if self.count % 2 == 0:
            raise ValueError("central symmetry forces an odd count")


def _check_bound(sig: Signature, max_total: Optional[int]) -> None:
    bound = DEFAULT_MAX_TOTAL if max_total is None else max_total
    if sig.total > bound:
        raise SizeExceeded(
            f"signature total {sig.total} exceeds bound {bound}; "
            f"pass an explicit bound to override"
        )
    if sig.k < 2:
        raise ValueError("need at least two classes")


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


def _transfer_count(sig: Signature, k: int) -> int:
    # ways[P][N]: vectors on the classes so far with positive mass P and
    # negative mass N, each class within its bound
    ways = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(k)]
    for a in sig.parts:
        table = _class_table(a, k)
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
    return DilationCount(k, _transfer_count(sig, k))


def dilation_counts(sig: Signature, up_to: int, max_total: Optional[int] = None) -> list[DilationCount]:
    return [count_lattice_points(sig, k, max_total=max_total) for k in range(up_to + 1)]


class InterpolationGuardFailed(ArithmeticError):
    """The degree-d interpolant missed the count at d+1 (counting bug)."""


def _lagrange(points: list[tuple[int, int]]) -> Poly:
    """Exact Lagrange interpolation through integer points, on integers:
    with W = prod_j (x - x_j) and D_i = prod_(j != i) (x_i - x_j), the sum
    of y_i (L / D_i) W / (x - x_i) over L = lcm |D_i|, divided once by L."""
    w = [1]
    for xj, _ in points:
        w = _times_linear(w, -xj)
    denoms = [prod(xi - xj for j, (xj, _) in enumerate(points) if j != i) for i, (xi, _) in enumerate(points)]
    den = lcm(*denoms)
    total = [0] * len(points)
    for (xi, yi), di in zip(points, denoms):
        if yi:
            scale = yi * (den // di)
            total = [t + scale * c for t, c in zip(total, _div_linear(w, -xi))]
    return _poly_over(total, den)


def ehrhart_interpolate(sig: Signature, max_total: Optional[int] = None) -> Poly:
    """Unique degree-d interpolant through the counts at k = 0..d, with an
    integrality-and-value guard at k = d + 1."""
    _check_bound(sig, max_total)
    d = sig.dim
    counts = [count_lattice_points(sig, k, max_total=max_total).count for k in range(d + 2)]
    poly = _lagrange([(k, counts[k]) for k in range(d + 1)])
    guard = poly(d + 1)
    if guard.denominator != 1 or int(guard) != counts[d + 1]:
        raise InterpolationGuardFailed(
            f"interpolant gives E({d + 1}) = {guard}, the count gives {counts[d + 1]}"
        )
    return poly


def hstar_oracle(sig: Signature, max_total: Optional[int] = None) -> HStar:
    """Ground-truth h*: interpolate the Ehrhart polynomial, then convert."""
    return hstar_from_ehrhart(ehrhart_interpolate(sig, max_total=max_total), sig.dim)


def enumerate_dilate_points(sig: Signature, k: int) -> list[tuple[int, ...]]:
    """Explicit point list for small inputs (used by symmetry checks), by
    brute force against the full facet list."""
    from . import _countpure

    facets = [list(lam.values) for lam in enumerate_facet_labelings(sig)]
    return _countpure.enumerate_points(k, sig.total, facets)
