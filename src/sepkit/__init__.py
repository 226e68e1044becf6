"""sepkit: exact Ehrhart-theoretic invariants of symmetric edge polytopes of
complete multipartite graphs.

h*-polynomials by three independent methods (closed formulas, the Groebner
triangulation, and lattice-point counting by a class-wise transfer), gamma
vectors and cross-polynomial expansions, recursive relations among Ehrhart
polynomials, and certified statements about roots on the canonical line
Re(z) = -1/2.  All arithmetic is exact.

The public names below resolve on first use: ``import sepkit`` loads no
layer, and ``sepkit.hstar_oracle`` imports only the counting layer and what
it needs.
"""

import importlib

# public name -> defining module; each module is imported on first access
# (PEP 562), so a caller pays only for the layers it uses
_MODULE_OF = {
    "DilationCount": "counting",
    "count_lattice_points": "counting",
    "hstar_oracle": "counting",
    "closed_form_hstar": "formulas",
    "contraction_identity_check": "formulas",
    "hstar_111n": "formulas",
    "hstar_1mn": "formulas",
    "hstar_22n": "formulas",
    "hstar_bipartite": "formulas",
    "hstar_tripartite": "formulas",
    "FacetLabeling": "graphs",
    "FacetType": "graphs",
    "Signature": "graphs",
    "SizeExceeded": "graphs",
    "VerificationFailed": "graphs",
    "edge_order": "graphs",
    "enumerate_facet_labelings": "graphs",
    "build_basis": "grobner",
    "buchberger_verify": "grobner",
    "k222_order_scan": "grobner",
    "reducedness_check": "grobner",
    "HStar": "polynomial",
    "Poly": "polynomial",
    "cross_coefficients": "polynomial",
    "cross_polynomial": "polynomial",
    "ehrhart_from_hstar": "polynomial",
    "gamma_vector": "polynomial",
    "hstar_from_ehrhart": "polynomial",
    "conjecture_scan": "recursion",
    "corollary_scan": "recursion",
    "reproduce_known_relations": "recursion",
    "solve_recursion": "recursion",
    "solve_recursion_cross": "recursion",
    "interlaces_on_cl": "roots",
    "is_cl": "roots",
    "enumerate_standard_trees": "triangulation",
    "hstar_split_by_facet_type": "triangulation",
    "hstar_triangulation": "triangulation",
}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
