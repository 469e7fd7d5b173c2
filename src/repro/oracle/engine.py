"""Oracle engine: recompute-from-scratch continuous matching.

``OracleEngine`` answers each stream event by exhaustively enumerating the
embeddings that contain the event edge.  On arrival it first applies the
edge, on expiration it enumerates before removing the edge — exactly the
delta semantics of the problem statement.  It exists so that every
optimized engine can be diffed against unquestionable ground truth, so
it stores every edge: its graph is not the admitting ``_window_graph``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.oracle.enumerate import enumerate_embeddings
from repro.query.temporal_query import TemporalQuery
from repro.streaming.engine import MatchEngine
from repro.streaming.match import Match


class OracleEngine(MatchEngine):
    """Brute-force reference engine (exponential; tests only)."""

    name = "oracle"

    def __init__(self, query: TemporalQuery, labels: Dict[int, object],
                 edge_label_fn=None):
        super().__init__(query, labels, edge_label_fn)
        self.graph = TemporalGraph(label_fn=labels.__getitem__,
                                   directed=query.directed)

    def on_edge_insert(self, edge: Edge) -> List[Match]:
        self.stats.events_processed += 1
        if not self.graph.insert_edge(edge, label=self._edge_label(edge)):
            return []  # duplicate (u, v, t): idempotent no-op
        matches = sorted(
            enumerate_embeddings(self.query, self.graph, must_contain=edge))
        self.stats.matches_emitted += len(matches)
        return matches

    def on_edge_expire(self, edge: Edge) -> List[Match]:
        self.stats.events_processed += 1
        if not self.graph.has_edge(edge):
            return []  # expiration of a deduplicated arrival: no-op
        matches = sorted(
            enumerate_embeddings(self.query, self.graph, must_contain=edge))
        self.graph.remove_edge(edge)
        self.stats.matches_emitted += len(matches)
        return matches
