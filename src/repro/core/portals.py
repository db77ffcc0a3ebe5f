"""Portal (landmark) selection along separator paths.

Two selection rules are implemented:

* :func:`epsilon_cover_portals` — the Thorup-style rule behind
  Theorem 2: for a vertex v and a separator path Q of the residual
  graph J, pick a subset C of Q such that every x in Q is
  (1+eps)-covered: some c in C has
  ``d_J(v,c) + d_Q(c,x) <= (1+eps) * d_J(v,x)``.
  The greedy scan below enforces that invariant pointwise, so the
  cover property holds *by construction* (it is also re-checked by the
  property-based tests).

* :func:`claim1_landmarks` — the paper's own Section 4 rule used by
  the small-world augmentation: offsets ``(i/2)*d`` for i in 0..10 and
  ``2^i * d`` for i in 0..ceil(log2 Delta) on both sides of the
  closest vertex x_c, giving the 3/4-contraction of Claim 1.

The query-time combine over two portal lists lives in
:func:`repro.core.flat.flat_estimate`.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Hashable, List, Sequence, Tuple

Vertex = Hashable
# A portal entry: (prefix position along the path, distance from the vertex).
PortalEntry = Tuple[float, float]
INF = float("inf")


def epsilon_cover_portals(
    path: Sequence[Vertex],
    prefix: Sequence[float],
    dist: Dict[Vertex, float],
    epsilon: float,
) -> List[Tuple[int, float]]:
    """Select portals of *path* for a vertex with distance map *dist*.

    Parameters
    ----------
    path, prefix:
        The separator path and its cumulative-distance prefix.
    dist:
        ``d_J(v, .)`` for the relevant residual graph J; path vertices
        missing from *dist* are unreachable in J and need no cover.
    epsilon:
        The stretch slack; must be positive.

    Returns
    -------
    Sorted list of ``(position_index, distance)`` pairs.
    """
    return epsilon_cover_portals_at(
        prefix, [dist.get(x, INF) for x in path], epsilon
    )


def epsilon_cover_portals_at(
    prefix: Sequence[float],
    pos_dist: Sequence[float],
    epsilon: float,
) -> List[Tuple[int, float]]:
    """Positional form of :func:`epsilon_cover_portals`.

    *pos_dist* gives ``d_J(v, path[i])`` per path position (``inf``
    for unreachable positions).  This is the shape the batched
    per-level distance maps produce (one distance row per vertex), so
    label construction can select portals without materializing a
    vertex-keyed dict per path.  Selection is identical to the
    dict-based form: same greedy scan, same portals.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    reached = [i for i, dx in enumerate(pos_dist) if dx < INF]
    if not reached:
        return []
    closest = min(reached, key=lambda i: (pos_dist[i], i))
    chosen = {closest}

    # Scan outwards from the closest vertex in both directions,
    # adding a portal whenever the current one no longer covers.
    for direction in (1, -1):
        current = closest
        idx = closest + direction
        while (direction == 1 and idx <= reached[-1]) or (
            direction == -1 and idx >= reached[0]
        ):
            dx = pos_dist[idx]
            if dx < INF:
                via = pos_dist[current] + abs(prefix[idx] - prefix[current])
                if via > (1 + epsilon) * dx:
                    chosen.add(idx)
                    current = idx
            idx += direction
    return sorted((i, pos_dist[i]) for i in chosen)


def claim1_landmarks(
    path: Sequence[Vertex],
    prefix: Sequence[float],
    dist: Dict[Vertex, float],
    aspect_ratio: float,
) -> List[int]:
    """The paper's landmark rule L(Q) (Section 4).

    Let x_c be the vertex of Q closest to v and d its distance.  On
    each side of x_c, add the first vertex at path-distance at least
    ``(i/2)*d`` for i = 0..10 and at least ``2^i * d`` for
    i = 0..ceil(log2 Delta).  Claim 1: for every x on Q some landmark
    l satisfies ``d_Q(l, x) <= (3/4) d_J(v, x)``.

    Returns the landmark *position indices* on the path.
    """
    reached = [i for i, x in enumerate(path) if dist.get(x, INF) < INF]
    if not reached:
        return []
    c = min(reached, key=lambda i: (dist[path[i]], i))
    d = dist[path[c]]
    if d == 0:
        return [c]

    offsets = [(i / 2) * d for i in range(11)]
    log_delta = max(0, math.ceil(math.log2(max(2.0, aspect_ratio))))
    offsets.extend((2.0**i) * d for i in range(log_delta + 1))
    offsets = sorted(set(offsets))

    landmarks = {c}
    # prefix is monotone along the path, so the first vertex at
    # path-distance >= target on each side is found by bisection.
    for target in offsets:
        # Rightward: smallest i >= c with prefix[i] - prefix[c] >= target.
        i = bisect.bisect_left(prefix, prefix[c] + target, lo=c)
        if i < len(path):
            landmarks.add(i)
        # Leftward: largest i <= c with prefix[c] - prefix[i] >= target.
        j = bisect.bisect_right(prefix, prefix[c] - target, hi=c + 1) - 1
        if j >= 0:
            landmarks.add(j)
    return sorted(landmarks)

