"""Additivity referees on the two h* methods that use no formula code.

If h*(K_A) is a part that depends on the total n alone plus one term per
class of size a >= 2 that depends on n and a only, then two pairs {A, B}
and {C, D} of signatures with total n, whose classes of size at least two
make the same multiset, have h*(A) + h*(B) = h*(C) + h*(D).  For example
h*(1,1,4) + h*(2,2,2) = h*(1,1,2,2) + h*(2,4).  The counting oracle and the
triangulation must satisfy every such identity."""

from collections import defaultdict
from itertools import combinations_with_replacement

from sepkit.counting import hstar_oracle
from sepkit.triangulation import hstar_triangulation

from test_graphs import signatures_with_total


def pair_groups(total):
    """The unordered pairs {A, B} of signatures with k >= 2 classes and this
    total, A = B allowed, grouped by the multiset union of their classes of
    size at least two; only the groups of two or more pairs."""
    groups = defaultdict(list)
    for a, b in combinations_with_replacement(signatures_with_total(total, total), 2):
        groups[tuple(sorted(x for x in a.parts + b.parts if x >= 2))].append((a, b))
    return [pairs for pairs in groups.values() if len(pairs) > 1]


def check_additivity(hstar, max_total):
    """Assert h*(A) + h*(B) alike across every group up to max_total, and
    return the number of equalities checked: one per pair after the first
    of its group."""
    checked = 0
    for total in range(2, max_total + 1):
        h = {sig: hstar(sig).coefficients for sig in signatures_with_total(total, total)}
        for pairs in pair_groups(total):
            sums = [[x + y for x, y in zip(h[a], h[b])] for a, b in pairs]
            for pair, s in zip(pairs[1:], sums[1:]):
                assert s == sums[0], [list(map(str, p)) for p in (pairs[0], pair)]
            checked += len(pairs) - 1
    return checked


def test_grouping():
    groups = [{frozenset(map(str, pair)) for pair in pairs} for pairs in pair_groups(6)]
    assert any({frozenset(("1,1,4", "2,2,2")), frozenset(("1,1,2,2", "2,4"))} <= g for g in groups)


def test_oracle():
    assert check_additivity(hstar_oracle, 10) == 744


def test_triangulation():
    assert check_additivity(hstar_triangulation, 8) == 134
