"""The paper's contribution: k-path separators and the object-location
data structures built on them.

Public surface:

* :class:`PathSeparator`, :class:`SeparatorPhase` — the Definition 1
  object, with programmatic validation of properties (P1)-(P3).
* Separator engines (:mod:`repro.core.engines`) — compute k-path
  separators for trees, bounded-treewidth graphs, planar graphs, and
  arbitrary graphs (greedy peeling), plus *strong* single-phase mode.
* :class:`DecompositionTree` — the recursive decomposition of Section 4.
* :class:`DistanceLabeling` / :class:`PathSeparatorOracle` — Theorem 2.
* :class:`CompactRoutingScheme` — the stretch-(1+eps) routing scheme.
* Small-world augmentation and greedy routing — Theorem 3 / Section 4.
* Doubling separators — Section 5.3 / Theorem 8.
"""

from repro.core.decomposition import DecompositionNode, DecompositionTree, build_decomposition
from repro.core.doubling import (
    DoublingNode,
    DoublingOracle,
    MetricNetOracle,
    greedy_net,
    DoublingSeparator,
    doubling_dimension_estimate,
    grid3d_doubling_decomposition,
)
from repro.core.engines import (
    CenterBagEngine,
    FundamentalCycleEngine,
    GreedyPeelingEngine,
    SeparatorEngine,
    StrongGreedyEngine,
    TreeCentroidEngine,
    auto_engine,
)
from repro.core.flat import CSRGraph, FlatLabel, flat_estimate
from repro.core.labeling import DistanceLabeling, build_labeling
from repro.core.oracle import PathSeparatorOracle
from repro.core.portals import claim1_landmarks, epsilon_cover_portals
from repro.core.routing import CompactRoutingScheme
from repro.core.separator import PathSeparator, SeparatorPhase
from repro.core.serialize import (
    RemoteLabels,
    SerializationError,
    dump_labeling,
    load_labeling,
)
from repro.core.smallworld import (
    AugmentationDistribution,
    AugmentedGraph,
    ClosestSeparatorAugmentation,
    GreedyRouter,
    PathSeparatorAugmentation,
    estimate_aspect_ratio,
    greedy_route,
)

__all__ = [
    "AugmentationDistribution",
    "AugmentedGraph",
    "CSRGraph",
    "CenterBagEngine",
    "ClosestSeparatorAugmentation",
    "CompactRoutingScheme",
    "DecompositionNode",
    "DecompositionTree",
    "DistanceLabeling",
    "FlatLabel",
    "DoublingNode",
    "DoublingOracle",
    "DoublingSeparator",
    "FundamentalCycleEngine",
    "GreedyPeelingEngine",
    "MetricNetOracle",
    "GreedyRouter",
    "PathSeparator",
    "PathSeparatorAugmentation",
    "PathSeparatorOracle",
    "RemoteLabels",
    "SeparatorEngine",
    "SerializationError",
    "SeparatorPhase",
    "StrongGreedyEngine",
    "TreeCentroidEngine",
    "auto_engine",
    "build_decomposition",
    "build_labeling",
    "claim1_landmarks",
    "doubling_dimension_estimate",
    "dump_labeling",
    "epsilon_cover_portals",
    "estimate_aspect_ratio",
    "flat_estimate",
    "greedy_net",
    "greedy_route",
    "load_labeling",
    "grid3d_doubling_decomposition",
]
