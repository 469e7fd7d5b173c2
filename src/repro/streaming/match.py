"""Canonical representation of a time-constrained embedding.

A time-constrained embedding (Definition II.3) maps query vertices to data
vertices and query edges to data edges.  ``Match`` stores both mappings as
index-ordered tuples so that matches are hashable, comparable, and cheap to
collect into sets for the oracle cross-checks.  What one event reports is
a canonical-order *sequence* of them: a plain list from the baselines, a
:class:`MatchBlock` from TCM.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import TemporalQuery


class Match(NamedTuple):
    """An embedding: ``vertex_map[u]`` and ``edge_map[e]`` by query index.

    A ``NamedTuple`` for the reason :class:`Edge` is one: a dense event
    reports tens of thousands of embeddings, each built (when read),
    compared in the canonical ``(vertex_map, edge_map)`` order and
    hashed by the checks, and tuples do all three in C.
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


class MatchBlock(Sequence):
    """The embeddings one event reported: a read-only canonical-order
    sequence of :class:`Match` that builds them only when read.

    Embeddings that share a vertex map differ only in which parallel
    edge each query edge took, so the block holds ``groups`` — sorted
    ``(vertex_map, sorted rows)``, a row being the timestamps by query
    edge — next to ``ends`` (the ``(u, v)`` query endpoints per edge)
    and ``undirected``.  ``len()`` and truthiness cost nothing;
    iteration builds group by group and caches nothing (so does
    indexing: it reads the whole block); ``==`` holds against any
    sequence of equal matches, lists included.
    """

    __slots__ = ("ends", "undirected", "groups", "_count")

    def __init__(self, ends, undirected: bool, groups, count: int):
        self.ends = ends
        self.undirected = undirected
        self.groups = groups
        self._count = count

    def __len__(self) -> int:
        return self._count

    def _matches(self, vertex_map: Tuple[int, ...],
                 rows: List[tuple]) -> List[Match]:
        """One group's matches — the only place a timestamp row becomes
        a ``Match``.  They share ``vertex_map`` and one ``Edge`` per
        (query edge, timestamp)."""
        new = tuple.__new__     # skips the NamedTuples' Python __new__
        columns = []
        for (u, v), stamps in zip(self.ends, zip(*rows)):
            a, b = vertex_map[u], vertex_map[v]
            if a > b and self.undirected:
                a, b = b, a     # Edge.make's endpoint order
            images = {t: new(Edge, (a, b, t)) for t in set(stamps)}
            columns.append(map(images.__getitem__, stamps))
        return [new(Match, (vertex_map, edge_map))
                for edge_map in zip(*columns)]

    def __iter__(self) -> Iterator[Match]:
        for vertex_map, rows in self.groups:
            yield from self._matches(vertex_map, rows)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)
