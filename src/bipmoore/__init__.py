"""Construction, search, and certification of bipartite diameter-3 graphs
near the bipartite Moore bound."""

from .bounds import DefectRecord, defect, max_m_upper_bound, moore_bound
from .caseanalysis import (
    AuditEntry,
    AuditReport,
    ContractionSurvey,
    contraction_diameter_at_most_2,
    contraction_feasibility,
    enumerate_multisets,
    nonexistence_case_audit,
)
from .circulant import (
    PhiSpec,
    ResidueCoverage,
    build_phi,
    build_phi_spec,
    build_theta,
    canonicalize,
    diameter_at_most_3,
    format_spec,
    parse_spec,
    two_step_residues,
)
from .graphs import (
    INF,
    LEFT,
    RIGHT,
    BipartiteGraph,
    DistanceProfile,
    GraphCheck,
    RegularityVerdict,
    Vertex,
    bfs_distances,
    check_graph,
    diameter,
    format_adjacency,
    girth,
    parse_adjacency,
    parse_edge_list,
    read_adjacency,
    regularity_check,
    write_adjacency,
)
from .search import MaxMResult, SearchCounters, SearchReport, SearchTask, max_m, search_offsets
from .structure import (
    BudgetError,
    Decomposition,
    FourCycle,
    IsoCheck,
    ObservationReport,
    ObservationResult,
    PhiComponent,
    RepeatStructure,
    ShortCycleSet,
    ThetaComponent,
    check_isomorphism,
    check_observations,
    classify_and_decompose,
    find_isomorphism,
    repeat_structure,
    short_cycles,
    verify_isomorphism,
)
from .witnesses import DEGREE4_WITNESS, DEGREE5_WITNESS, KNOWN_DEGREE11_SPECS

__version__ = "0.1.0"
