"""Induced star/path cover and partition invariants of graphs.

Library layout:

- ``graph``: bitmask graph core and piece-shape predicates
- ``generators``: named graph families and random graphs
- ``iso``: induced-subgraph containment, forbidden families, targets
- ``bounds``: Ramsey numbers and derived size constants
- ``solvers``: exact cover/partition solvers and classical subroutines
- ``constructive``: proof-shaped constructions with validity traces
- ``naive``: reference solvers for cross-checking
- ``formats``: graph6 and edge-list serialization
- ``verify``: check tables for ``coverlab verify`` and the acceptance gate
- ``cli``: the ``coverlab`` command
"""

from .graph import Graph, PieceKind, build_graph
from .iso import characterize, contains_induced, family_leq, target_family
from .solvers import (PieceCertificate, invariant_value, min_cover, min_partition,
                      validate_certificate)
from .bounds import BoundValue, Status, ramsey
from .constructive import (ConstructionTrace, cover_to_path_cover,
                           cover_to_star_cover, insc_bounded, insp_bounded,
                           sp_cover_construct, sp_partition_construct,
                           star_partition_neighborhood)

__version__ = "1.0.0"

__all__ = [
    "BoundValue", "ConstructionTrace", "Graph", "PieceCertificate", "PieceKind",
    "Status", "build_graph", "characterize", "contains_induced", "cover_to_path_cover",
    "cover_to_star_cover", "family_leq", "insc_bounded", "insp_bounded",
    "invariant_value", "min_cover", "min_partition", "ramsey",
    "sp_cover_construct", "sp_partition_construct",
    "star_partition_neighborhood", "target_family", "validate_certificate",
]
