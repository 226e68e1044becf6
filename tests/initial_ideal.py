"""The initial ideal from first principles, the test suite's referee for
``sepkit.grobner.build_basis``.

Toric ideals are weight-homogeneous, so the minimal generators of the
initial ideal in degrees 2 and 3 can be read off the weight classes of all
monomials of those degrees: every monomial but the degrevlex minimum of its
class is in the initial ideal.  Nothing here uses the structural
description of the basis that ``build_basis`` follows; the test suite checks
the two against each other.  The cost grows with the cube of the number of
variables, so it is meant for at most 7 vertices.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Optional

import sepkit.grobner as grobner
from sepkit.graphs import Signature
from sepkit.grobner import Mono, VarTable, drl_greater, mono_divides


def initial_ideal_ground_truth(
    sig: Signature, vt: Optional[VarTable] = None
) -> tuple[set[Mono], set[Mono]]:
    """Minimal generators of the initial ideal in degrees 2 and 3, computed
    from first principles.

    Toric ideals are weight-homogeneous, so the degree-D part of the initial
    ideal consists exactly of the degree-D monomials that are not the
    degrevlex minimum of their weight class.  Degree-2 generators are all
    such monomials; degree-3 generators are the ones no degree-2 generator
    divides.
    """
    vt = vt or VarTable(sig)
    nvars = vt.nvars

    def classes(deg: int) -> dict[tuple[int, ...], list[Mono]]:
        groups: dict[tuple[int, ...], list[Mono]] = {}
        for mono in combinations_with_replacement(range(nvars), deg):
            groups.setdefault(vt.weight(mono), []).append(mono)
        return groups

    deg2_leads: set[Mono] = set()
    for group in classes(2).values():
        if len(group) > 1:
            mn = group[0]
            for m in group[1:]:
                if drl_greater(mn, m):
                    mn = m
            deg2_leads.update(m for m in group if m != mn)

    deg3_min: set[Mono] = set()
    for group in classes(3).values():
        if len(group) <= 1:
            continue
        mn = group[0]
        for m in group[1:]:
            if drl_greater(mn, m):
                mn = m
        for m in group:
            if m == mn:
                continue
            # m is sorted, so its pairs come sorted; keep those that divide m
            pairs = (p for p in combinations_with_replacement(m, 2) if mono_divides(p, m))
            if not any(p in deg2_leads for p in pairs):
                deg3_min.add(m)
    return deg2_leads, deg3_min


def basis_matches_ground_truth(sig: Signature, vt: Optional[VarTable] = None) -> bool:
    """Do the construction's leads coincide with the minimal generators,
    under the given table or the canonical one?"""
    vt = vt or VarTable(sig)
    basis = grobner.build_basis(sig, vt=vt)  # looked up at call time, so tests can patch it
    built2 = {e.lead for e in basis if len(e.lead) == 2}
    built3 = {e.lead for e in basis if len(e.lead) == 3}
    truth2, truth3 = initial_ideal_ground_truth(sig, vt)
    return built2 == truth2 and built3 == truth3 and len(basis) == len(built2) + len(built3)
