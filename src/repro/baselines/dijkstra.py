"""Dijkstra baselines: the paper's reference competitor [9].

Two engines are provided:

* :class:`DijkstraEngine` — textbook unidirectional Dijkstra with early
  termination at the target (what the paper benchmarks as "Dijkstra");
* :class:`BidirectionalEngine` — the alternating two-front variant, which
  is also the skeleton FC/AH/CH queries are built on.

Both answer a distance query by actually finding the shortest path first,
which is why the paper observes identical timings for Dijkstra's distance
and path queries (Section 6.3) — our engines reproduce that behaviour.
"""

from __future__ import annotations

from typing import Optional

from ..graph.path import Path
from ..graph.traversal import (
    bidirectional_distance,
    bidirectional_path,
    distance_query,
    shortest_path_query,
)
from .base import BatchCapabilities, QueryEngine

__all__ = ["DijkstraEngine", "BidirectionalEngine"]


class DijkstraEngine(QueryEngine):
    """Plain Dijkstra with early exit; no preprocessing, no index."""

    name = "Dijkstra"

    def batch_capabilities(self) -> BatchCapabilities:
        """Point and batch paths run the *same* forward Dijkstra (same
        relaxation order, same float accumulation), so the planner may
        fold shared-source point queries into one target-pruned search
        without changing a bit.  BidirectionalEngine cannot make this
        promise: its point query sums a forward and a backward label at
        the meeting node, a different association than the one-sided
        batch fallback."""
        return BatchCapabilities(exact_point_coalescing=True)

    def distance(self, source: int, target: int) -> float:
        """Distance via a single forward search stopped at ``target``."""
        return distance_query(self.graph, *self._check_pair(source, target))

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Shortest path via a single forward search with parents."""
        return shortest_path_query(self.graph, *self._check_pair(source, target))


class BidirectionalEngine(QueryEngine):
    """Bidirectional Dijkstra; roughly halves the searched ball radius."""

    name = "BiDijkstra"

    def distance(self, source: int, target: int) -> float:
        """Distance via alternating forward/backward searches."""
        return bidirectional_distance(self.graph, *self._check_pair(source, target))

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Path via alternating searches with meeting-node splicing."""
        return bidirectional_path(self.graph, *self._check_pair(source, target))
