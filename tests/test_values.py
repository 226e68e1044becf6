"""Value semantics of the result types of every layer: the immutable ones
compare and hash by their fields and refuse assignment, the mutable records
are unhashable and change in place."""

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
}

MUTABLE = {
    "Isolation": lambda: roots._isolate([-2, 0, 1])[1],
    "WRoot": lambda: roots.WRoot(F(-1), F(0), 1),
    "RootCertificate": lambda: roots.is_cl(Poly((1, 2, 2))),
    "InterlaceCertificate": lambda: roots.interlaces_on_cl(ehrhart_bipartite(1, 2), ehrhart_bipartite(1, 3)),
    "RecursionSolution": lambda: RecursionSolution(None),
}


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_value_semantics(name):
    if name in FROZEN:
        make, other, fields = FROZEN[name]
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
        assert x != other
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(x, field, getattr(other, field))
        assert x == y
        return
    x = MUTABLE[name]()
    with pytest.raises(TypeError):
        hash(x)
    if name == "Isolation":
        lo, hi = x.lo, x.hi
        x.bisect()
        assert x.hi - x.lo == (hi - lo) / 2 and lo <= x.lo < x.hi <= hi
        assert x.lo ** 2 < 2 < x.hi ** 2
    if name == "RecursionSolution":
        y = RecursionSolution(None)
        x.alphas.append(F(1))
        assert y.alphas == [] and x.alphas == [F(1)]
        x.status = "none"
        assert x.status == "none" and y.status == "unique"
