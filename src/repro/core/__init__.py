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

from repro.util.lazy import lazy_attributes

# Each module and the public names it defines.  Names resolve on first
# access, so importing this package, or one of its modules such as the
# label core, loads no separator engine and no scipy.
__getattr__, __dir__ = lazy_attributes(globals(), {
    "repro.core.decomposition": (
        "DecompositionNode", "DecompositionTree", "build_decomposition",
    ),
    "repro.core.doubling": (
        "DoublingNode", "DoublingOracle", "DoublingSeparator", "MetricNetOracle",
        "doubling_dimension_estimate", "greedy_net",
        "grid3d_doubling_decomposition",
    ),
    "repro.core.engines": (
        "CenterBagEngine", "FundamentalCycleEngine", "GreedyPeelingEngine",
        "SeparatorEngine", "StrongGreedyEngine", "TreeCentroidEngine",
        "auto_engine",
    ),
    "repro.core.flat": ("FlatLabel", "flat_estimate"),
    "repro.core.flat_build": ("CSRGraph",),
    "repro.core.labeling": ("DistanceLabeling", "build_labeling"),
    "repro.core.oracle": ("PathSeparatorOracle",),
    "repro.core.portals": ("claim1_landmarks", "epsilon_cover_portals"),
    "repro.core.routing": ("CompactRoutingScheme",),
    "repro.core.separator": ("PathSeparator", "SeparatorPhase"),
    "repro.core.serialize": (
        "RemoteLabels", "SerializationError", "dump_labeling", "load_labeling",
    ),
    "repro.core.smallworld": (
        "AugmentationDistribution", "AugmentedGraph",
        "ClosestSeparatorAugmentation", "GreedyRouter",
        "PathSeparatorAugmentation", "estimate_aspect_ratio", "greedy_route",
    ),
})

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
