"""Exact-arithmetic Bergman fans and Chow rings of polymatroids."""

from .building import (BuildingSet, BuildingSetError, is_geometric_building_set,
                       lifted_building_set, maximal_building_set, nested_complex)
from .chow import ChowPair, nested_basis, dp_ring, fy_ring, pairing_matrix, phi_iso_check
from .fan import (Fan, balancing_check, bergman_fan, boolean_bergman_fan,
                  cone_contains, in_support, is_face_closed, is_unimodular, nested_set_fan,
                  pairwise_intersections_are_faces, refines, same_support,
                  validate_fan)
from .kahler import (ambient_complete_fan, hard_lefschetz_check, hodge_riemann_check,
                     is_strictly_convex, kahler_package_report, nestohedron_class)
from .lift import MultisymMatroid, geometric_flat_lattice, lift
from .polymatroid import Polymatroid, PolymatroidError, ProjectionMap, boolean_polymatroid
from .polytope import Polypermutohedron, minimizing_vertices, normal_fan_equals

__version__ = "0.1.0"

__all__ = [
    "BuildingSet", "BuildingSetError", "ChowPair", "Fan", "MultisymMatroid", "Polymatroid",
    "PolymatroidError", "Polypermutohedron", "ProjectionMap",
    "ambient_complete_fan", "balancing_check", "bergman_fan",
    "boolean_bergman_fan", "boolean_polymatroid",
    "cone_contains", "nested_basis", "dp_ring", "fy_ring",
    "geometric_flat_lattice", "hard_lefschetz_check",
    "hodge_riemann_check", "in_support", "is_face_closed",
    "is_geometric_building_set",
    "is_strictly_convex", "is_unimodular", "kahler_package_report",
    "lift", "lifted_building_set",
    "maximal_building_set", "minimizing_vertices", "nested_complex",
    "nested_set_fan", "nestohedron_class", "normal_fan_equals",
    "pairing_matrix",
    "pairwise_intersections_are_faces", "phi_iso_check", "refines",
    "same_support", "validate_fan",
]
