"""Value semantics of the result types of every layer: the immutable ones
compare by their fields, hash by them when no field is a list, and refuse
assignment; the one mutable record, Isolation, is unhashable and narrows
in place."""

from fractions import Fraction

import pytest

from sepkit.counting import DilationCount
from sepkit.formulas import ehrhart_bipartite
from sepkit.graphs import DirectedEdge, FacetLabeling, Signature
from sepkit.grobner import GBElement
from sepkit.polynomial import HStar, Poly
import sepkit.roots as roots
from sepkit.recursion import RecursionSolution
from sepkit.triangulation import DirTree

F = Fraction

# name -> (a maker of equal values, a value with other fields, the fields)
FROZEN = {
    "Signature": (lambda: Signature((2, 3)), Signature((3, 2)), ("parts",)),
    "FacetLabeling": (lambda: FacetLabeling((0, 1, 1)), FacetLabeling((0, 1, 2)), ("values",)),
    "HStar": (lambda: HStar((1, 4, 1), 2), HStar((1, 4, 1), 3), ("coefficients", "dim")),
    "DilationCount": (lambda: DilationCount(1, 13), DilationCount(2, 13), ("k", "count")),
    "GBElement": (lambda: GBElement("1", (0, 1), ()), GBElement("2", (0, 1), ()), ("kind", "lead", "tail")),
    "DirTree": (lambda: DirTree((DirectedEdge(1, 2),)), DirTree((DirectedEdge(2, 1),)), ("edges",)),
    "CLTransform": (
        lambda: roots.cl_transform(Poly((1, 2, 2))),
        roots.cl_transform(Poly((1, 2))),
        ("parity", "h", "den"),
    ),
    "WRoot": (
        lambda: roots.WRoot(F(-1), F(0), 1),
        roots.WRoot(F(-2), F(-1), 2, exact=F(-1)),
        ("lo", "hi", "multiplicity", "exact"),
    ),
    "RootCertificate": (
        lambda: roots.is_cl(Poly((1, 2, 2))),
        roots.is_cl(Poly((1, 2))),
        ("source", "symmetric", "on_cl", "parity", "half_square", "w_roots", "distinct_real_in_range", "reason"),
    ),
    "InterlaceCertificate": (
        lambda: roots.interlaces_on_cl(ehrhart_bipartite(1, 2), ehrhart_bipartite(1, 3)),
        roots.interlaces_on_cl(ehrhart_bipartite(1, 1), ehrhart_bipartite(1, 2)),
        ("interlaces", "shared_factor", "order", "reason"),
    ),
    "RecursionSolution": (
        lambda: RecursionSolution(None, [], "underdetermined", 1, [F(1), F(1)], [[F(1), F(-1)]]),
        RecursionSolution(F(1), [F(2)], "unique"),
        ("alpha", "alphas", "status", "kernel_dim", "particular", "kernel"),
    ),
}

MUTABLE = {
    "Isolation": lambda: roots._isolate([-2, 0, 1])[1],
}


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_value_semantics(name):
    if name in FROZEN:
        make, other, fields = FROZEN[name]
        x, y = make(), make()
        assert x is not y and x == y
        if not any(isinstance(getattr(x, field), list) for field in fields):
            assert hash(x) == hash(y)
        assert x != other
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(x, field, getattr(other, field))
        assert x == y
        return
    x = MUTABLE[name]()
    with pytest.raises(TypeError):
        hash(x)
    lo, hi = x.lo, x.hi
    x.bisect()
    assert x.hi - x.lo == (hi - lo) / 2 and lo <= x.lo < x.hi <= hi
    assert x.lo ** 2 < 2 < x.hi ** 2
