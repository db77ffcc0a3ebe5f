"""repro — Object Location Using Path Separators (PODC 2006).

A faithful, self-contained implementation of Abraham & Gavoille's
k-path separators and the object-location data structures built on
them:

* k-path separators (Definition 1) with validated (P1)-(P3) properties
  and engines for trees, bounded-treewidth, planar, and general graphs;
* the recursive decomposition tree (Section 4);
* (1+eps)-approximate distance labels and oracle (Theorem 2);
* a labeled compact routing scheme with polylog tables;
* small-worldization with the Claim-1 landmark distribution and greedy
  routing (Theorem 3);
* (k, alpha)-doubling separators for 3D meshes (Theorem 8);
* baselines: exact, Thorup-Zwick, landmarks, Kleinberg/uniform
  small worlds.

Quick start::

    from repro import PathSeparatorOracle
    from repro.generators import random_delaunay_graph

    graph, _ = random_delaunay_graph(500, seed=1)
    oracle = PathSeparatorOracle.build(graph, epsilon=0.1)
    d = oracle.query(0, 499)   # within a factor 1.1 of the true distance
"""

from repro.util.lazy import lazy_attributes

__version__ = "1.0.0"

__all__ = [
    "CompactRoutingScheme",
    "DecompositionTree",
    "DistanceLabeling",
    "DoublingOracle",
    "Graph",
    "GreedyRouter",
    "PathSeparator",
    "PathSeparatorAugmentation",
    "PathSeparatorOracle",
    "SeparatorPhase",
    "__version__",
    "build_decomposition",
    "build_labeling",
    "greedy_route",
]

# Every public name but __version__ comes from repro.core (which
# resolves its own lazily) or, for Graph, repro.graphs, imported on
# first access, so ``import repro.serve`` loads no build machinery.
__getattr__, __dir__ = lazy_attributes(globals(), {
    "repro.core": [name for name in __all__ if name not in ("Graph", "__version__")],
    "repro.graphs": ["Graph"],
})
