"""Timing [17]: incremental joins over materialized partial matches.

Timing solves time-constrained continuous matching by decomposing the
query into subqueries and *storing every partial embedding* of each
subquery alive in the window; edge arrivals join the stored partials
into larger ones, edge expirations evict them.  The defining property —
and the weakness the paper measures in Figure 10 — is that the stored
partial-match sets can grow exponentially with the query size.

We materialize the partials of every *prefix* of a connected query edge
order (a left-deep join plan).  On the arrival of an edge ``s`` the new
partials at prefix length ``i`` are::

    Delta_i = (P[i-1] join s at position i)  union  (Delta_{i-1} join E_i)

computed for ascending ``i`` with ``P`` in its pre-arrival state, so
every new partial contains ``s`` exactly once; ``Delta_{m-1}`` is the
set of newly occurring full embeddings.  Temporal-order constraints are
checked during each join (Timing is temporal-aware), so stored partials
are always order-consistent.  On expiration, partials containing the
edge are evicted from every level and the evicted full embeddings are
reported.

Partial sets are indexed by bound (query vertex, data vertex) pairs and
by contained data edge so joins and evictions do not scan whole levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.temporal_graph import Edge
from repro.query.matching import candidate_images, image_compatible
from repro.query.temporal_query import QueryEdge, TemporalQuery
from repro.streaming.engine import MatchEngine
from repro.streaming.match import Match


@dataclass(frozen=True)
class Partial:
    """A partial embedding: vertex images (None = unbound) plus the edge
    images of the first ``len(images)`` positions of the join order."""

    vmap: Tuple[Optional[int], ...]
    images: Tuple[Edge, ...]


class _Level:
    """The stored partials of one prefix length, with join indexes."""

    def __init__(self) -> None:
        self.partials: Set[Partial] = set()
        self.by_vertex: Dict[Tuple[int, int], Set[Partial]] = {}
        self.by_edge: Dict[Edge, Set[Partial]] = {}

    def add(self, partial: Partial) -> None:
        if partial in self.partials:
            return
        self.partials.add(partial)
        for qv, dv in enumerate(partial.vmap):
            if dv is not None:
                self.by_vertex.setdefault((qv, dv), set()).add(partial)
        for image in partial.images:
            self.by_edge.setdefault(image, set()).add(partial)

    def evict_edge(self, edge: Edge) -> List[Partial]:
        """Remove and return all partials whose image set contains
        ``edge``."""
        victims = list(self.by_edge.get(edge, ()))
        for partial in victims:
            self.partials.discard(partial)
            for qv, dv in enumerate(partial.vmap):
                if dv is not None:
                    bucket = self.by_vertex.get((qv, dv))
                    if bucket is not None:
                        bucket.discard(partial)
                        if not bucket:
                            del self.by_vertex[(qv, dv)]
            for image in partial.images:
                bucket = self.by_edge.get(image)
                if bucket is not None:
                    bucket.discard(partial)
                    if not bucket:
                        del self.by_edge[image]
        return victims

    def size_entries(self) -> int:
        return sum(len(p.images) for p in self.partials)


class TimingEngine(MatchEngine):
    """Materialized-partial-match engine (exponential space)."""

    name = "timing"

    def __init__(self, query: TemporalQuery, labels: Dict[int, object],
                 edge_label_fn=None):
        super().__init__(query, labels, edge_label_fn)
        if query.num_edges == 0:
            raise ValueError("query must contain at least one edge")
        self.graph = self._window_graph()
        self._positions: List[QueryEdge] = self._connected_edge_order()
        self._pos_of_edge = {qe.index: i
                             for i, qe in enumerate(self._positions)}
        self._levels = [_Level() for _ in self._positions]
        self._empty = Partial(vmap=(None,) * query.num_vertices, images=())

    def _connected_edge_order(self) -> List[QueryEdge]:
        """A join order in which every edge after the first shares a
        vertex with an earlier edge (BFS over the query)."""
        order = [self.query.edges[0]]
        bound = {order[0].u, order[0].v}
        remaining = set(range(1, self.query.num_edges))
        while remaining:
            nxt = next(e for e in sorted(remaining)
                       if self.query.edges[e].u in bound
                       or self.query.edges[e].v in bound)
            remaining.discard(nxt)
            qe = self.query.edges[nxt]
            bound.update((qe.u, qe.v))
            order.append(qe)
        return order

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge_insert(self, edge: Edge) -> List[Match]:
        if not self.graph.insert_edge(edge, label=self._edge_label(edge)):
            self._note_event()
            return []  # not admitted, or a duplicate (u, v, t)
        delta_prev: List[Partial] = []
        for i, qe in enumerate(self._positions):
            delta_i: List[Partial] = []
            for prefix in self._prefixes_joinable_with(i, edge):
                delta_i.extend(self._extend(prefix, i, edge))
            for prefix in delta_prev:
                for image in self._edge_candidates(prefix, i):
                    delta_i.extend(self._extend(prefix, i, image))
            for partial in delta_i:
                self._levels[i].add(partial)
            delta_prev = delta_i
        self._note_event()
        matches = sorted(self._to_match(p) for p in delta_prev)
        self.stats.matches_emitted += len(matches)
        return matches

    def on_edge_expire(self, edge: Edge) -> List[Match]:
        if not self.graph.has_edge(edge):
            self._note_event()
            return []  # an edge the engine does not hold
        expired: List[Partial] = []
        for i, level in enumerate(self._levels):
            victims = level.evict_edge(edge)
            if i == len(self._levels) - 1:
                expired = victims
        self.graph.remove_edge(edge)
        self._note_event()
        matches = sorted(self._to_match(p) for p in expired)
        self.stats.matches_emitted += len(matches)
        return matches

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _prefixes_joinable_with(self, i: int,
                                edge: Edge) -> Iterable[Partial]:
        """Stored prefixes of length ``i`` that ``edge`` might extend at
        position ``i`` (index lookup on a bound endpoint)."""
        if i == 0:
            return (self._empty,)
        qe = self._positions[i]
        level = self._levels[i - 1]
        candidates: Set[Partial] = set()
        for qv in (qe.u, qe.v):
            for dv in (edge.u, edge.v):
                candidates.update(level.by_vertex.get((qv, dv), ()))
        return candidates

    def _edge_candidates(self, prefix: Partial, i: int) -> List[Edge]:
        """Window edges that could fill position ``i`` of ``prefix``."""
        qe = self._positions[i]
        iu, iv = prefix.vmap[qe.u], prefix.vmap[qe.v]
        if iu is not None and iv is not None:
            return candidate_images(self.query, self.graph, qe.index, iu, iv)
        if iu is None and iv is None:
            raise AssertionError("join order is connected; cannot happen")
        bound_img = iu if iu is not None else iv
        free_qv = qe.v if iu is not None else qe.u
        label = self.query.label(free_qv)
        out: List[Edge] = []
        for w in self.graph.neighbors(bound_img):
            if self.graph.label(w) != label:
                continue
            a, b = (bound_img, w) if iu is not None else (w, bound_img)
            out.extend(candidate_images(self.query, self.graph,
                                        qe.index, a, b))
        return out

    def _extend(self, prefix: Partial, i: int,
                image: Edge) -> List[Partial]:
        """All valid extensions of ``prefix`` mapping position ``i`` to
        ``image`` (two for the orientation-free first position)."""
        if image in prefix.images:
            return []
        qe = self._positions[i]
        out: List[Partial] = []
        orientations = ((image.u, image.v), (image.v, image.u))
        for img_u, img_v in orientations:
            partial = self._try_orientation(prefix, qe, i, image,
                                            img_u, img_v)
            if partial is not None:
                out.append(partial)
            if image.u == image.v:
                break
        return out

    def _try_orientation(self, prefix: Partial, qe: QueryEdge, i: int,
                         image: Edge, img_u: int,
                         img_v: int) -> Optional[Partial]:
        bound_u, bound_v = prefix.vmap[qe.u], prefix.vmap[qe.v]
        if bound_u is not None and bound_u != img_u:
            return None
        if bound_v is not None and bound_v != img_v:
            return None
        if not image_compatible(self.query, self.graph, qe, image,
                                img_u, img_v):
            return None
        # Vertex injectivity for newly bound endpoints.
        for qv, dv in ((qe.u, img_u), (qe.v, img_v)):
            if prefix.vmap[qv] is None and dv in prefix.vmap:
                return None
        if img_u == img_v:
            return None
        # Temporal order against the mapped prefix (Timing checks the
        # constraints during the join, not post-hoc).
        e_i = qe.index
        for j, earlier in enumerate(prefix.images):
            e_j = self._positions[j].index
            if self.query.precedes(e_j, e_i) and not earlier.t < image.t:
                return None
            if self.query.precedes(e_i, e_j) and not image.t < earlier.t:
                return None
        vmap = list(prefix.vmap)
        vmap[qe.u], vmap[qe.v] = img_u, img_v
        return Partial(vmap=tuple(vmap), images=prefix.images + (image,))

    # ------------------------------------------------------------------
    # Reporting / statistics
    # ------------------------------------------------------------------
    def _to_match(self, partial: Partial) -> Match:
        edge_map: List[Optional[Edge]] = [None] * self.query.num_edges
        for pos, image in enumerate(partial.images):
            edge_map[self._positions[pos].index] = image
        return Match(vertex_map=partial.vmap,  # type: ignore[arg-type]
                     edge_map=tuple(edge_map))  # type: ignore[arg-type]

    def structure_entries(self) -> int:
        return sum(level.size_entries() for level in self._levels)

    def _note_event(self) -> None:
        self.stats.note_structure_size(self.structure_entries())
        self.stats.events_processed += 1
        extra = self.stats.extra
        extra["events"] = extra.get("events", 0) + 1
        extra["partials_sum"] = (
            extra.get("partials_sum", 0)
            + sum(len(level.partials) for level in self._levels))
