"""Degree-balanced spanning subgraphs of cubic graphs."""

from .connected import ExceptionKind, Statement, target_profile
from .errors import DegbalError, ExceptionGraph, ParityMismatch
from .formats import (
    ResultDocument,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    render_result,
)
from .general import DecompositionResult, decompose, statement_target
from .graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    build_graph,
    complement_within,
    connected_components,
    profile_of,
    shortest_cycle,
)
from .oracle import (
    AchievabilityReport,
    achievable_profiles,
    find_witness,
    min_max_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "AchievabilityReport",
    "DecompositionResult",
    "DegbalError",
    "DegreeProfile",
    "EdgeSubset",
    "ExceptionGraph",
    "ExceptionKind",
    "Graph",
    "ParityMismatch",
    "ResultDocument",
    "SmallClass",
    "Statement",
    "achievable_profiles",
    "build_graph",
    "complement_within",
    "connected_components",
    "decompose",
    "encode_graph6",
    "find_witness",
    "min_max_deviation",
    "parse_edge_list",
    "parse_graph6",
    "profile_of",
    "render_result",
    "shortest_cycle",
    "statement_target",
    "target_profile",
]
