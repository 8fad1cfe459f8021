"""Open neighbourhood locating-dominating sets on small graphs.

Exact OLD numbers, forced-vertex analysis, half-graph construction and
recognition, and an exhaustive harness for the extremal
characterisation gamma_OL(G) = n iff G is a half-graph.
"""

from .domination import (
    BRANCH_AND_BOUND,
    BRUTEFORCE,
    ForcedClassification,
    SolveResult,
    bondy_check,
    classify_forced,
    domination_forced,
    location_forced,
    old_number,
    old_number_bruteforce,
)
from .enumeration import MAX_BUILTIN_ORDER, enumerate_connected_graphs
from .graph6 import GraphFormatError, parse_graph6, to_graph6
from .graphs import (
    CANONICAL_ORDER_LIMIT,
    Graph,
    NotLocatableError,
    VertexSet,
    canonical_form,
    connected_components,
    disjoint_union,
    from_edges,
    induced_subgraph,
    is_connected,
    is_locatable,
    is_old_set,
    iter_bits,
    mask_of,
    open_neighbourhood,
    open_twins,
    vertices_of,
)
from .halfgraphs import (
    HalfGraphLabeling,
    PeelStep,
    half_graph,
    is_half_graph,
    is_union_of_half_graphs,
    peel,
)
from .harness import HarnessReport, run_harness

__version__ = "0.1.0"

__all__ = [
    "BRANCH_AND_BOUND",
    "BRUTEFORCE",
    "NotLocatableError",
    "SolveResult",
    "is_old_set",
    "old_number",
    "old_number_bruteforce",
    "MAX_BUILTIN_ORDER",
    "enumerate_connected_graphs",
    "ForcedClassification",
    "bondy_check",
    "classify_forced",
    "domination_forced",
    "location_forced",
    "GraphFormatError",
    "parse_graph6",
    "to_graph6",
    "CANONICAL_ORDER_LIMIT",
    "Graph",
    "VertexSet",
    "canonical_form",
    "connected_components",
    "disjoint_union",
    "from_edges",
    "induced_subgraph",
    "is_connected",
    "is_locatable",
    "iter_bits",
    "mask_of",
    "open_neighbourhood",
    "open_twins",
    "vertices_of",
    "HalfGraphLabeling",
    "PeelStep",
    "half_graph",
    "is_half_graph",
    "is_union_of_half_graphs",
    "peel",
    "HarnessReport",
    "run_harness",
    "__version__",
]
