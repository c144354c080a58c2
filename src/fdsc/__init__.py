"""Folded divide-and-swap cube toolkit.

Label arithmetic and graph construction for DSC_n / FDSC_n, explicit
star-pattern fault families, an exact brute-force connectivity oracle, and
a verification suite over the structural facts the constructions rely on.
"""

__version__ = "0.1.0"

from .checks import CheckReport, run_all
from .cuts import (
    CutReport,
    FaultFamily,
    Star,
    apply_cut,
    k1_cut,
    k11_cut,
    k1m_cut,
    validate_family,
)
from .errors import LabelParseError, ParameterError, ResourceCapError
from .graph import (
    ComponentCensus,
    Graph,
    build_graph,
    components_after_removal,
    cross_edges,
    export,
    girth,
    quotient_census,
    vertex_connectivity,
)
from .labels import (
    DSC,
    FDSC,
    Dim,
    apex_pair,
    e1_neighbor,
    external_neighbor,
    f_neighbor,
    format_label,
    make_dim,
    module_address,
    neighbor_set,
    parse_label,
    swap_neighbor,
)
from .oracle import (
    OracleResult,
    check_vertex_edge_removals,
    enumerate_candidates,
    exact_structure_connectivity,
    reference_value,
    super_cut_probe,
)

__all__ = [
    "CheckReport",
    "ComponentCensus",
    "CutReport",
    "Dim",
    "DSC",
    "FDSC",
    "FaultFamily",
    "Graph",
    "LabelParseError",
    "OracleResult",
    "ParameterError",
    "ResourceCapError",
    "Star",
    "apex_pair",
    "apply_cut",
    "build_graph",
    "check_vertex_edge_removals",
    "components_after_removal",
    "cross_edges",
    "e1_neighbor",
    "enumerate_candidates",
    "exact_structure_connectivity",
    "export",
    "external_neighbor",
    "f_neighbor",
    "format_label",
    "girth",
    "k1_cut",
    "k11_cut",
    "k1m_cut",
    "make_dim",
    "module_address",
    "neighbor_set",
    "parse_label",
    "quotient_census",
    "reference_value",
    "run_all",
    "super_cut_probe",
    "swap_neighbor",
    "validate_family",
    "vertex_connectivity",
]
