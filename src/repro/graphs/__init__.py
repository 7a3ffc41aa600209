"""Knowledge connectivity graph substrate.

This package implements everything the paper needs at the graph level:

* :class:`~repro.graphs.knowledge_graph.KnowledgeGraph` -- the directed graph
  formed collectively by the participant detectors (Section II-C).
* Vertex connectivity and node-disjoint path computations
  (:mod:`repro.graphs.connectivity`), implemented from scratch with a
  node-splitting max-flow construction (Menger's theorem).
* Strongly connected components, condensation and sink components
  (:mod:`repro.graphs.components`).
* The static analysis of a whole graph (:mod:`repro.graphs.requirements`):
  the ``k``-OSR check of Definition 1, the extended ``k``-OSR check and core
  identification of Definition 2, the model requirements of Theorem 1 and
  Section V, and the static oracle that computes the sink / core of a graph
  directly, used to validate the online protocols.
* Generators for every figure in the paper and for random (extended) k-OSR
  families (:mod:`repro.graphs.generators`).
"""

from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.components import (
    strongly_connected_components,
    condensation,
    sink_components,
    sink_members,
    is_strongly_connected,
)
from repro.graphs.connectivity import (
    node_disjoint_path_count,
    vertex_connectivity,
    is_k_strongly_connected,
    node_disjoint_paths_between_sets,
)
from repro.graphs.requirements import (
    is_k_osr,
    osr_report,
    max_osr_k,
    is_extended_k_osr,
    extended_osr_report,
    find_core,
    satisfies_bft_cup,
    satisfies_bft_cupft,
    bft_cup_report,
    bft_cupft_report,
    StaticOracle,
)

__all__ = [
    "KnowledgeGraph",
    "strongly_connected_components",
    "condensation",
    "sink_components",
    "sink_members",
    "is_strongly_connected",
    "node_disjoint_path_count",
    "vertex_connectivity",
    "is_k_strongly_connected",
    "node_disjoint_paths_between_sets",
    "is_k_osr",
    "osr_report",
    "max_osr_k",
    "is_extended_k_osr",
    "extended_osr_report",
    "find_core",
    "satisfies_bft_cup",
    "satisfies_bft_cupft",
    "bft_cup_report",
    "bft_cupft_report",
    "StaticOracle",
]
