"""Exact Euler calculus on finite simplicial complexes, with local
obstruction tests for realizability as a real algebraic set."""

# The one version string, set before the submodules load, so that any of
# them may import it.
__version__ = "0.1.0"

from .dyadic import Dyadic
from .complexes import (Simplex, SimplicialComplex, SimplicialMap,
                        MapViolation, Subdivision, build_complex,
                        barycentric_subdivision, cone, disjoint_union,
                        euler_characteristic, full_subcomplex, geometric_link,
                        join, point_complex, simplicial_link, suspension,
                        validate_map, vertex_link)
from .functions import (ConstructibleFunction, ParityObstruction, dual,
                        euler_integral, half_link, indicator,
                        indicator_of_subcomplex, is_euler, link_operator,
                        p_operator, pullback, pushforward, restrict_to_link,
                        subdivide_function)
from .invariants import (BonnardBounds, BoundQuery, DivisibilityCertificate,
                         InvariantVector, ObstructionReport, TestRow,
                         b_vector, bonnard_bounds, dim3_check,
                         divisibility_certificate, merge_reports,
                         search_check, sullivan_check)
from .search import (ExpressionWitness, SearchBudget, SearchResult,
                     closure_search, replay_witness)

__all__ = [
    "Dyadic",
    "Simplex", "SimplicialComplex", "SimplicialMap", "MapViolation",
    "Subdivision", "build_complex", "barycentric_subdivision", "cone",
    "disjoint_union", "euler_characteristic", "full_subcomplex",
    "geometric_link", "join", "point_complex", "simplicial_link",
    "suspension", "validate_map", "vertex_link",
    "ConstructibleFunction", "ParityObstruction", "dual", "euler_integral",
    "half_link", "indicator", "indicator_of_subcomplex", "is_euler",
    "link_operator", "p_operator", "pullback", "pushforward",
    "restrict_to_link", "subdivide_function",
    "BonnardBounds", "BoundQuery", "DivisibilityCertificate",
    "InvariantVector", "ObstructionReport", "TestRow", "b_vector",
    "bonnard_bounds", "dim3_check", "divisibility_certificate",
    "merge_reports", "search_check", "sullivan_check",
    "ExpressionWitness", "SearchBudget", "SearchResult", "closure_search",
    "replay_witness",
]
