"""RapidFlow [34] adapted to time-constrained matching by post-checking.

RapidFlow's headline ideas are (1) not forcing the matching order to
start from the inserted edge — it reduces the query and matches a dense
nucleus first — and (2) avoiding duplicate work across automorphic
orderings.  Reproducing its full machinery (query reduction, dual
matching) is out of scope; what the comparison in the paper needs is a
competitive continuous-matching engine with *local* candidate
computation (no global DCS index) and no temporal awareness, with the
temporal order checked on complete embeddings.  This engine provides
exactly that:

* a static matching order over query vertices, densest-first (maximum
  degree, then label selectivity), computed once per query — this
  mirrors RapidFlow's nucleus-first ordering;
* candidates computed locally from the window graph (label + adjacency
  checks only) instead of an incrementally maintained index;
* every complete vertex embedding is expanded into parallel-edge
  combinations containing the event edge and post-checked against the
  temporal order.

The behaviours the benchmarks rely on (temporal-order insensitivity,
post-check expansion cost) are preserved.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Set

from repro.graph.temporal_graph import Edge
from repro.query.matching import (
    candidate_images, candidate_timestamps, orientations_of,
)
from repro.query.temporal_query import QueryEdge, TemporalQuery
from repro.streaming.engine import MatchEngine
from repro.streaming.match import Match


class RapidFlowEngine(MatchEngine):
    """Index-free continuous matching, temporal order post-checked."""

    name = "rapidflow"

    def __init__(self, query: TemporalQuery, labels: Dict[int, object],
                 edge_label_fn=None):
        super().__init__(query, labels, edge_label_fn)
        if query.num_edges == 0:
            raise ValueError("query must contain at least one edge")
        self.graph = self._window_graph()
        self._static_order = self._dense_first_order()
        self._vmap: List[Optional[int]] = [None] * query.num_vertices
        self._used_v: Set[int] = set()
        self._out: List[Match] = []
        self._event_edge: Optional[Edge] = None
        self._event_qe: Optional[QueryEdge] = None

    def _dense_first_order(self) -> List[int]:
        """Static vertex priority: highest degree first (nucleus first)."""
        return sorted(range(self.query.num_vertices),
                      key=lambda u: -self.query.degree(u))

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge_insert(self, edge: Edge) -> List[Match]:
        matches: List[Match] = []  # unless admitted, and not a duplicate
        if self.graph.insert_edge(edge, label=self._edge_label(edge)):
            matches = self._find(edge)
        self._note_event()
        return matches

    def on_edge_expire(self, edge: Edge) -> List[Match]:
        matches: List[Match] = []  # unless the engine holds the edge
        if self.graph.has_edge(edge):
            matches = self._find(edge)
            self.graph.remove_edge(edge)
        self._note_event()
        return matches

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _find(self, edge: Edge) -> List[Match]:
        self._out = []
        self._event_edge = edge
        glabel = self.graph.label
        elabel = self.graph.edge_label(edge)
        orients = [(a, b, glabel(a), glabel(b))
                   for a, b in orientations_of(self.query, edge)]
        for meta in self.query.edge_meta():
            if meta.edge_label is not None and meta.edge_label != elabel:
                continue
            qe = meta.edge
            for va, vb, la, lb in orients:
                if la != meta.label_u or lb != meta.label_v:
                    continue
                self._event_qe = qe
                self._vmap[qe.u], self._vmap[qe.v] = va, vb
                self._used_v.update((va, vb))
                self._extend()
                self._used_v.difference_update((va, vb))
                self._vmap[qe.u] = self._vmap[qe.v] = None
        self.stats.matches_emitted += len(self._out)
        self._out.sort()
        return self._out

    def _next_vertex(self) -> Optional[int]:
        """First unmapped vertex in the static order that touches the
        mapped region (the order is only consulted among extendable
        vertices so connectivity is preserved)."""
        for u in self._static_order:
            if self._vmap[u] is not None:
                continue
            if any(self._vmap[w] is not None
                   for w in self.query.neighbors(u)):
                return u
        return None

    def _extend(self) -> None:
        self.stats.backtrack_nodes += 1
        u = self._next_vertex()
        if u is None:
            self._expand_edges()
            return
        label = self.query.label(u)
        anchors = [qe for qe in self.query.incident_edges(u)
                   if self._vmap[qe.other(u)] is not None]
        pool = self.graph.neighbors(self._vmap[anchors[0].other(u)])
        for v in pool:
            if v in self._used_v or self.graph.label(v) != label:
                continue
            if not all(self._supported(qe, u, v) for qe in anchors):
                continue
            self._vmap[u] = v
            self._used_v.add(v)
            self._extend()
            self._used_v.discard(v)
            self._vmap[u] = None

    def _supported(self, qe: QueryEdge, u: int, v: int) -> bool:
        """True if some data edge supports mapping ``u -> v`` across
        ``qe`` (direction and edge label aware)."""
        w = self._vmap[qe.other(u)]
        a, b = (v, w) if u == qe.u else (w, v)
        return bool(candidate_timestamps(self.query, self.graph,
                                         qe.index, a, b))

    def _expand_edges(self) -> None:
        event_qe = self._event_qe
        per_edge: List[List[Edge]] = []
        for qe in self.query.edges:
            if qe is event_qe:
                per_edge.append([self._event_edge])
                continue
            images = candidate_images(
                self.query, self.graph, qe.index,
                self._vmap[qe.u], self._vmap[qe.v])
            if not images:
                return
            per_edge.append(images)
        vertex_map = tuple(self._vmap)  # type: ignore[arg-type]
        order = self.query.order
        for combo in product(*per_edge):
            self.stats.backtrack_nodes += 1
            if order.is_consistent([e.t for e in combo]):
                self._out.append(Match(vertex_map, tuple(combo)))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def structure_entries(self) -> int:
        return 0  # RapidFlow keeps no auxiliary index.

    def _note_event(self) -> None:
        self.stats.events_processed += 1
        extra = self.stats.extra
        extra["events"] = extra.get("events", 0) + 1
