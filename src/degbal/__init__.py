"""Degree-balanced spanning subgraphs of cubic graphs."""

from .connected import (
    ColoringState,
    ConnectedTrace,
    ExceptionKind,
    Statement,
    fallback_search,
    special_14_construction,
    target_profile,
)
from .errors import DegbalError, ExceptionGraph, ParityMismatch
from .formats import (
    ResultDocument,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    render_result,
)
from .general import (
    DecompositionResult,
    decompose,
    detect_exception,
    k33_table,
    k4_table,
    statement_target,
)
from .graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    build_graph,
    classify_small,
    complement_within,
    connected_components,
    profile_of,
    shortest_cycle,
    validate_regular,
)
from .oracle import (
    AchievabilityReport,
    achievable_profiles,
    is_achievable,
    min_max_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "AchievabilityReport",
    "ColoringState",
    "ConnectedTrace",
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
    "classify_small",
    "complement_within",
    "connected_components",
    "decompose",
    "detect_exception",
    "encode_graph6",
    "fallback_search",
    "is_achievable",
    "k33_table",
    "k4_table",
    "min_max_deviation",
    "parse_edge_list",
    "parse_graph6",
    "profile_of",
    "render_result",
    "shortest_cycle",
    "special_14_construction",
    "statement_target",
    "target_profile",
    "validate_regular",
]
