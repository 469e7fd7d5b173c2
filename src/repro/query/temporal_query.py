"""Temporal query graphs (Definition II.2).

A temporal query graph is a connected, simple, undirected, vertex-labeled
graph together with a strict partial order on its edge set.  Query vertices
and edges are referred to by dense integer indices so the matching engines
can use array-backed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.query.partial_order import PartialOrder


@dataclass(frozen=True)
class QueryEdge:
    """A query edge: its index and endpoint vertex indices (u < v)."""

    index: int
    u: int
    v: int

    def other(self, endpoint: int) -> int:
        """Return the endpoint opposite to ``endpoint``."""
        if endpoint == self.u:
            return self.v
        if endpoint == self.v:
            return self.u
        raise ValueError(f"vertex {endpoint} is not an endpoint of {self}")

    def endpoints(self) -> Tuple[int, int]:
        """Return the two endpoints as a tuple."""
        return (self.u, self.v)


class EdgeMeta(NamedTuple):
    """Per-query-edge lookups memoized for the event hot path.

    Candidate generation consults, for every stream event and every
    query edge, the edge's endpoint labels and its own label; resolving
    them through ``query.label()`` per event is pure overhead since they
    never change.  :meth:`TemporalQuery.edge_meta` computes this table
    once per query.
    """

    edge: QueryEdge
    index: int
    u: int
    v: int
    label_u: object
    label_v: object
    edge_label: object


class TemporalQuery:
    """A temporal query graph ``q = (V, E, L, <)``.

    Parameters
    ----------
    labels:
        Sequence of vertex labels; vertex ``i`` has label ``labels[i]``.
    edges:
        Sequence of ``(u, v)`` vertex-index pairs.  The graph must be
        simple (no self-loops, no duplicate edges; for directed queries
        a pair of anti-parallel edges counts as two distinct edges).
    order_pairs:
        Generating pairs ``(i, j)`` of edge indices meaning edge ``i``
        temporally precedes edge ``j``; transitively closed internally.
    directed:
        When True, edge ``(u, v)`` means ``u -> v`` and images must
        preserve the direction (Section II extension).
    edge_labels:
        Optional per-edge labels (sequence aligned with ``edges``; None
        entries mean "unlabeled, matches any data edge").
    """

    def __init__(self, labels: Sequence[object],
                 edges: Sequence[Tuple[int, int]],
                 order_pairs: Iterable[Tuple[int, int]] = (),
                 directed: bool = False,
                 edge_labels: Optional[Sequence[object]] = None):
        self.labels: Tuple[object, ...] = tuple(labels)
        self.num_vertices = len(self.labels)
        self.directed = directed
        seen_pairs = set()
        edge_list: List[QueryEdge] = []
        for idx, (u, v) in enumerate(edges):
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen_pairs:
                raise ValueError(f"duplicate edge {key}: query must be simple")
            seen_pairs.add(key)
            edge_list.append(QueryEdge(idx, key[0], key[1]))
        self.edges: Tuple[QueryEdge, ...] = tuple(edge_list)
        self.num_edges = len(self.edges)
        if edge_labels is None:
            self.edge_labels: Tuple[object, ...] = (None,) * self.num_edges
        else:
            if len(edge_labels) != self.num_edges:
                raise ValueError("edge_labels must align with edges")
            self.edge_labels = tuple(edge_labels)
        self.order = PartialOrder(self.num_edges, order_pairs)

        self._adjacent: List[List[QueryEdge]] = [
            [] for _ in range(self.num_vertices)]
        for edge in self.edges:
            self._adjacent[edge.u].append(edge)
            self._adjacent[edge.v].append(edge)
        self._neighbor_tuples: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(e.other(u) for e in self._adjacent[u])
            for u in range(self.num_vertices))
        # incident_meta(u): per incident edge, (edge index, opposite
        # vertex, u is the canonical endpoint qe.u) — the candidate
        # loops of every engine walk this per backtracking node.
        self._incident_meta: Tuple[Tuple[Tuple[int, int, bool], ...], ...] = \
            tuple(tuple((e.index, e.other(u), e.u == u)
                        for e in self._adjacent[u])
                  for u in range(self.num_vertices))
        self._edge_by_pair: Dict[Tuple[int, int], QueryEdge] = {
            (e.u, e.v): e for e in self.edges}
        self._edge_meta: Optional[Tuple[EdgeMeta, ...]] = None
        self._relevant_label_pairs: Optional[FrozenSet] = None
        self._check_connected()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def label(self, u: int) -> object:
        """Label of query vertex ``u``."""
        return self.labels[u]

    def incident_edges(self, u: int) -> List[QueryEdge]:
        """Edges incident to vertex ``u``."""
        return self._adjacent[u]

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return len(self._adjacent[u])

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbor vertices of ``u`` (memoized tuple)."""
        return self._neighbor_tuples[u]

    def incident_meta(self, u: int) -> Tuple[Tuple[int, int, bool], ...]:
        """Memoized ``(edge index, opposite vertex, u == qe.u)`` rows
        for the edges incident to ``u`` (hot-path companion to
        :meth:`incident_edges`)."""
        return self._incident_meta[u]

    def edge_between(self, u: int, v: int) -> Optional[QueryEdge]:
        """The edge joining ``u`` and ``v``, or None.  For directed
        queries the order matters (``u -> v``)."""
        if not self.directed and u > v:
            u, v = v, u
        return self._edge_by_pair.get((u, v))

    def edge_label(self, e: int) -> object:
        """The label of query edge ``e`` (None = unlabeled)."""
        return self.edge_labels[e]

    def relevant_label_pairs(self) -> FrozenSet:
        """Memoized endpoint-label pairs some query edge can match.

        A data edge whose ``(label(u), label(v))`` is not in this set
        can never be the image of any query edge, so no engine stores it
        (:meth:`~repro.streaming.engine.MatchEngine._window_graph`).
        Undirected queries admit both endpoint orders.
        """
        pairs = self._relevant_label_pairs
        if pairs is None:
            out = set()
            for meta in self.edge_meta():
                out.add((meta.label_u, meta.label_v))
                if not self.directed:
                    out.add((meta.label_v, meta.label_u))
            pairs = self._relevant_label_pairs = frozenset(out)
        return pairs

    def edge_meta(self) -> Tuple[EdgeMeta, ...]:
        """Memoized per-edge (endpoint labels, edge label) table.

        Engines iterate this instead of re-resolving labels through
        :meth:`label`/:meth:`edge_label` on every stream event; the
        table is built lazily on first use and cached for the lifetime
        of the query (queries are immutable after construction).
        """
        meta = self._edge_meta
        if meta is None:
            meta = tuple(
                EdgeMeta(qe, qe.index, qe.u, qe.v,
                         self.labels[qe.u], self.labels[qe.v],
                         self.edge_labels[qe.index])
                for qe in self.edges)
            self._edge_meta = meta
        return meta

    # ------------------------------------------------------------------
    # Temporal-order helpers
    # ------------------------------------------------------------------
    def precedes(self, i: int, j: int) -> bool:
        """True iff edge ``i`` temporally precedes edge ``j``."""
        return self.order.precedes(i, j)

    def related(self, i: int, j: int) -> bool:
        """True iff edges ``i`` and ``j`` are temporally related."""
        return self.order.related(i, j)

    def related_to(self, i: int) -> FrozenSet[int]:
        """Indices of edges temporally related to edge ``i``."""
        return self.order.related_to(i)

    def density(self) -> float:
        """Temporal-order density of this query (see PartialOrder.density)."""
        return self.order.density()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_connected(self) -> None:
        if self.num_vertices == 0:
            raise ValueError("query graph must be non-empty")
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for edge in self._adjacent[u]:
                w = edge.other(u)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.num_vertices:
            raise ValueError("query graph must be connected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TemporalQuery(|V|={self.num_vertices}, "
                f"|E|={self.num_edges}, density={self.density():.2f})")
