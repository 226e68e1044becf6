"""The hot paths leave no reference cycles for the cyclic collector."""

import gc

from sepkit.formulas import closed_form_hstar, ehrhart_bipartite
from sepkit.graphs import Signature
from sepkit.recursion import conjecture_scan
from sepkit.roots import interlaces_on_cl, is_cl
from sepkit.triangulation import (
    enumerate_planar_trees,
    enumerate_standard_trees,
    hstar_split_by_facet_type,
    hstar_triangulation,
)


def test_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        list(enumerate_standard_trees(Signature((1, 2, 3))))
        hstar_split_by_facet_type(Signature((1, 1, 2, 2)))
        hstar_triangulation(Signature((1, 1, 2, 2)))
        closed_form_hstar(Signature((2, 3, 4)))
        conjecture_scan(4, 3)
        enumerate_planar_trees(3, 3)
        is_cl(ehrhart_bipartite(6, 6))
        interlaces_on_cl(ehrhart_bipartite(1, 5), ehrhart_bipartite(1, 6))
        assert gc.collect() == 0
    finally:
        gc.enable()
