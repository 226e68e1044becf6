"""sepkit: exact Ehrhart-theoretic invariants of symmetric edge polytopes of
complete multipartite graphs.

h*-polynomials by three independent methods (closed formulas, the Groebner
triangulation, and lattice-point counting by a class-wise transfer), gamma
vectors and cross-polynomial expansions, recursive relations among Ehrhart
polynomials, and certified statements about roots on the canonical line
Re(z) = -1/2.  All arithmetic is exact.
"""

from .counting import (
    DilationCount,
    SizeExceeded,
    count_lattice_points,
    ehrhart_interpolate,
    hstar_oracle,
)
from .formulas import (
    closed_form_hstar,
    contraction_identity_check,
    hstar_111n,
    hstar_1mn,
    hstar_22n,
    hstar_bipartite,
    hstar_tripartite,
)
from .graphs import FacetLabeling, FacetType, Signature, edge_order, enumerate_facet_labelings
from .grobner import build_basis, buchberger_verify, k222_order_scan, reducedness_check
from .polynomial import (
    HStar,
    Poly,
    cross_coefficients,
    cross_polynomial,
    ehrhart_from_hstar,
    gamma_vector,
    hstar_from_ehrhart,
    is_symmetric_about_cl,
)
from .recursion import (
    conjecture_scan,
    corollary_scan,
    reproduce_known_relations,
    solve_recursion,
    solve_recursion_cross,
)
from .roots import interlaces_on_cl, is_cl, sturm_count
from .triangulation import enumerate_standard_trees, hstar_split_by_facet_type, hstar_triangulation

__version__ = "0.1.0"

__all__ = [
    "DilationCount",
    "FacetLabeling",
    "FacetType",
    "HStar",
    "Poly",
    "Signature",
    "SizeExceeded",
    "build_basis",
    "buchberger_verify",
    "closed_form_hstar",
    "conjecture_scan",
    "contraction_identity_check",
    "corollary_scan",
    "count_lattice_points",
    "cross_coefficients",
    "cross_polynomial",
    "edge_order",
    "ehrhart_from_hstar",
    "ehrhart_interpolate",
    "enumerate_facet_labelings",
    "enumerate_standard_trees",
    "gamma_vector",
    "hstar_111n",
    "hstar_1mn",
    "hstar_22n",
    "hstar_bipartite",
    "hstar_from_ehrhart",
    "hstar_oracle",
    "hstar_split_by_facet_type",
    "hstar_triangulation",
    "hstar_tripartite",
    "interlaces_on_cl",
    "is_cl",
    "is_symmetric_about_cl",
    "k222_order_scan",
    "reducedness_check",
    "reproduce_known_relations",
    "solve_recursion",
    "solve_recursion_cross",
    "sturm_count",
]
