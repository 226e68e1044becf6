"""The hot paths leave no reference cycles for the cyclic collector."""

import gc

from sepkit.formulas import closed_form_hstar
from sepkit.graphs import Signature
from sepkit.recursion import conjecture_scan
from sepkit.triangulation import enumerate_standard_trees, hstar_split_by_facet_type


def test_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        list(enumerate_standard_trees(Signature((1, 2, 3))))
        hstar_split_by_facet_type(Signature((1, 1, 2, 2)))
        closed_form_hstar(Signature((2, 3, 4)))
        conjecture_scan(4, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
