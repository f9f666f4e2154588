"""Entrywise matrix powers preserving positive semidefiniteness on
graph-structured cones: exact combinatorial descriptions for chordal
patterns, partial oracles for cycles and bipartite patterns, and numeric
witness search for everything else."""

from .chordal import (
    CliqueOrdering,
    Decomposition,
    NotChordalError,
    check_decomposition,
    check_perfect_ordering,
    decompose,
    find_chordless_cycle,
    is_chordal,
    is_perfect_elimination_order,
    perfect_ordering,
)
from .cones import (
    FAMILIES,
    PSD_TOL,
    WITNESS_TOL,
    PsdVerdict,
    ThreeFactorForm,
    certify_not_psd,
    conforms_to_pattern,
    entrywise_power,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    random_psd_for_graph,
    schur_complement,
    split_by_decomposition,
    superadditive_defect,
    symmetrize,
    three_factor_form,
    witness_matrix,
)
from .exponents import (
    HSet,
    WitnessReport,
    conjecture_scan,
    critical_exponent,
    expected_hset,
    find_counterexample,
    hset_bipartite,
    hset_complete,
    hset_cycle,
    superadditive_powers,
)
from .graphs import (
    Graph,
    GraphParseError,
    connected_components,
    generate,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    parse_edge_list,
    to_edge_list,
)

__version__ = "0.1.0"
