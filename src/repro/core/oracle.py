"""Theorem 2's centralized form: the (1+eps)-approximate distance oracle.

The oracle is the labeling stored centrally: O(k/eps * n log n) words
of space, O(k/eps * log n) query time, stretch in [1, 1+eps].
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.decomposition import DecompositionTree, build_decomposition
from repro.core.engines import SeparatorEngine
from repro.core.labeling import DistanceLabeling, build_labeling
from repro.graphs.graph import Graph
from repro.obs import span
from repro.util.rng import SeedLike
from repro.util.sizing import SizeReport

Vertex = Hashable


class PathSeparatorOracle:
    """(1+eps)-approximate distance oracle over a k-path separable graph.

    >>> from repro.generators import grid_2d
    >>> g = grid_2d(8)
    >>> oracle = PathSeparatorOracle.build(g, epsilon=0.25)
    >>> d = oracle.query((0, 0), (7, 7))
    >>> 14 <= d <= 14 * 1.25
    True
    """

    def __init__(self, labeling: DistanceLabeling) -> None:
        self.labeling = labeling
        self.graph = labeling.graph
        self.tree = labeling.tree
        self.epsilon = labeling.epsilon

    @classmethod
    def build(
        cls,
        graph: Graph,
        epsilon: float = 0.25,
        engine: Optional[SeparatorEngine] = None,
        tree: Optional[DecompositionTree] = None,
        parallel: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> "PathSeparatorOracle":
        """Build the oracle: decomposition tree (unless given) + labels.

        ``parallel=N`` fans label construction out over N worker
        processes; the result is byte-identical to a serial build (see
        :func:`repro.core.labeling.build_labeling`).  ``seed`` only
        feeds per-worker child-seed derivation.
        """
        with span("oracle.build", n=graph.num_vertices, epsilon=epsilon):
            if tree is None:
                tree = build_decomposition(graph, engine=engine)
            labeling = build_labeling(
                graph,
                tree,
                epsilon=epsilon,
                parallel=parallel,
                seed=seed,
            )
        return cls(labeling)

    def query(self, u: Vertex, v: Vertex) -> float:
        """(1+eps)-approximate distance; 0.0 when u == v."""
        return self.labeling.estimate(u, v)

    def space_words(self) -> int:
        """Total oracle space in the paper's word model."""
        return self.size_report().total_words

    def size_report(self) -> SizeReport:
        return self.labeling.size_report()

    def __repr__(self) -> str:
        return (
            f"PathSeparatorOracle(n={self.graph.num_vertices}, "
            f"epsilon={self.epsilon}, words={self.space_words()})"
        )
