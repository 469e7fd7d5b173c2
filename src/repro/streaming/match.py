"""Canonical representation of a time-constrained embedding.

A time-constrained embedding (Definition II.3) maps query vertices to data
vertices and query edges to data edges.  ``Match`` stores both mappings as
index-ordered tuples so that matches are hashable, comparable, and cheap to
collect into sets for the oracle cross-checks.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import TemporalQuery


class Match(NamedTuple):
    """An embedding: ``vertex_map[u]`` and ``edge_map[e]`` by query index.

    A ``NamedTuple`` for the reason :class:`Edge` is one: a dense event
    reports tens of thousands of embeddings, each built, sorted into the
    canonical ``(vertex_map, edge_map)`` order and hashed by the checks,
    and tuples do all three in C.
    """

    vertex_map: Tuple[int, ...]
    edge_map: Tuple[Edge, ...]

    @staticmethod
    def from_dicts(query: TemporalQuery,
                   vertices: Dict[int, int],
                   edges: Dict[int, Edge]) -> "Match":
        """Build a Match from query-index -> image dictionaries."""
        return Match(
            vertex_map=tuple(vertices[u] for u in range(query.num_vertices)),
            edge_map=tuple(edges[e] for e in range(query.num_edges)),
        )

    def contains_edge(self, edge: Edge) -> bool:
        """True if ``edge`` is the image of some query edge."""
        return edge in self.edge_map

    def timestamps(self) -> Tuple[int, ...]:
        """Timestamps of the mapped data edges, by query-edge index."""
        return tuple(e.t for e in self.edge_map)

    def is_valid(self, query: TemporalQuery, graph: TemporalGraph) -> bool:
        """Full validity check against Definition II.3 (used by tests).

        Checks injectivity on vertices and edges, label preservation,
        incidence, edge existence in ``graph``, and the temporal order.
        """
        if len(self.vertex_map) != query.num_vertices:
            return False
        if len(self.edge_map) != query.num_edges:
            return False
        if len(set(self.vertex_map)) != len(self.vertex_map):
            return False
        if len(set(self.edge_map)) != len(self.edge_map):
            return False
        for u, v in enumerate(self.vertex_map):
            if not graph.has_vertex(v):
                return False
            if query.label(u) != graph.label(v):
                return False
        for qe in query.edges:
            image = self.edge_map[qe.index]
            if not graph.has_edge(image):
                return False
            a = self.vertex_map[qe.u]
            b = self.vertex_map[qe.v]
            if query.directed:
                if (image.u, image.v) != (a, b):
                    return False
            elif {a, b} != {image.u, image.v}:
                return False
            label = query.edge_label(qe.index)
            if label is not None and graph.edge_label(image) != label:
                return False
        return query.order.is_consistent(self.timestamps())
