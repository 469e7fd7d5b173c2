"""SymBi [23] adapted to time-constrained matching by post-checking.

The paper's evaluation modifies SymBi — the state-of-the-art continuous
subgraph matching algorithm — "by additionally checking whether the
embeddings found satisfy the temporal order".  This engine reproduces
that adaptation:

* the DCS auxiliary structure is maintained with *label-only* filtering
  (no TC-matchable edges, no max-min timestamps);
* backtracking is vertex-level, exactly as for non-temporal continuous
  matching: parallel edges play no role during the search;
* every complete vertex embedding is expanded into all combinations of
  parallel data edges containing the event edge, and each combination is
  checked against the temporal order *after the fact*.

The post-check is the source of the inefficiency the paper measures:
time spent enumerating edge combinations that violate the order grows
with parallel-edge multiplicity and with the order's density, while TCM
never generates them.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dag import QueryDag, build_best_dag
from repro.core.dcs import DCS
from repro.graph.temporal_graph import Edge
from repro.query.matching import candidate_timestamps, orientations_of
from repro.query.temporal_query import QueryEdge, TemporalQuery
from repro.streaming.engine import MatchEngine
from repro.streaming.match import Match


class SymBiEngine(MatchEngine):
    """Continuous matching with DCS, temporal order checked post-hoc."""

    name = "symbi"

    def __init__(self, query: TemporalQuery, labels: Dict[int, object],
                 edge_label_fn=None):
        super().__init__(query, labels, edge_label_fn)
        if query.num_edges == 0:
            raise ValueError("query must contain at least one edge")
        self.graph = self._window_graph()
        self.dag: QueryDag = build_best_dag(query)
        self.dcs = DCS(self.dag, self.graph)
        self._vmap: List[Optional[int]] = [None] * query.num_vertices
        self._used_v: Set[int] = set()
        self._out: List[Match] = []
        self._event_edge: Optional[Edge] = None
        self._event_qe: Optional[QueryEdge] = None
        self.stats.extra.update(
            events=0, dcs_edges_sum=0, dcs_vertices_sum=0)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge_insert(self, edge: Edge) -> List[Match]:
        if not self.graph.insert_edge(edge, label=self._edge_label(edge)):
            self._note_event()
            return []  # not admitted, or a duplicate (u, v, t)
        candidates = self._candidates_of(edge)
        self.dcs.apply(candidates, [])
        self._note_event()
        return self._find(edge, candidates)

    def on_edge_expire(self, edge: Edge) -> List[Match]:
        if not self.graph.has_edge(edge):
            self._note_event()
            return []  # an edge the engine does not hold
        # Candidates must be computed while the edge (and its edge label)
        # is still in the graph: resolving them after removal loses the
        # edge label and would leak the entries of edge-labeled queries.
        candidates = self._candidates_of(edge)
        matches = self._find(edge, candidates)
        self.graph.remove_edge(edge)
        self.dcs.apply([], candidates)
        self.dcs.purge_dead_vertices((edge.u, edge.v))
        self._note_event()
        return matches

    def _candidates_of(self, edge: Edge) -> List[Tuple[int, int, int, int]]:
        """Label-compatible (query edge, orientation) pairs for ``edge``
        (direction and edge labels respected when the query uses them)."""
        glabel = self.graph.label
        elabel = self.graph.edge_label(edge)
        t = edge.t
        orients = [(a, b, glabel(a), glabel(b))
                   for a, b in orientations_of(self.query, edge)]
        out = []
        for meta in self.query.edge_meta():
            if meta.edge_label is not None and meta.edge_label != elabel:
                continue
            for a, b, la, lb in orients:
                if la == meta.label_u and lb == meta.label_v:
                    out.append((meta.index, a, b, t))
        return out

    # ------------------------------------------------------------------
    # Vertex-level backtracking + post-check expansion
    # ------------------------------------------------------------------
    def _find(self, edge: Edge,
              candidates: List[Tuple[int, int, int, int]]) -> List[Match]:
        self._out = []
        self._event_edge = edge
        dcs = self.dcs
        query = self.query
        for e, va, vb, t in candidates:
            if not dcs.has_edge(e, va, vb, t):
                continue
            qe = query.edges[e]
            if not (dcs.d2(qe.u, va) and dcs.d2(qe.v, vb)):
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

    def _extend(self) -> None:
        self.stats.backtrack_nodes += 1
        u = self._pick_vertex()
        if u is None:
            self._expand_edges()
            return
        for v in self._cm_cache:
            self._vmap[u] = v
            self._used_v.add(v)
            self._extend()
            self._used_v.discard(v)
            self._vmap[u] = None

    def _pick_vertex(self) -> Optional[int]:
        vmap = self._vmap
        best_u, best_cm = None, None
        for u in range(self.query.num_vertices):
            if vmap[u] is not None:
                continue
            if all(vmap[w] is None for w in self.query.neighbors(u)):
                continue
            cm = self._cm(u)
            if best_cm is None or len(cm) < len(best_cm):
                best_u, best_cm = u, cm
                if not cm:
                    break
        if best_u is None:
            return None
        self._cm_cache = best_cm
        return best_u

    def _cm(self, u: int) -> List[int]:
        vmap = self._vmap
        anchors = [(e, vmap[other], u_is_u)
                   for e, other, u_is_u in self.query.incident_meta(u)
                   if vmap[other] is not None]
        pool = self.graph.neighbors(anchors[0][1])
        d2_table = self.dcs.d2_table(u)
        used = self._used_v
        timestamps = self.dcs.timestamps
        out = []
        for v in pool:
            if v in used or not d2_table.get(v, False):
                continue
            for e, w, u_is_u in anchors:
                if not (timestamps(e, v, w) if u_is_u
                        else timestamps(e, w, v)):
                    break
            else:
                out.append(v)
        return out

    def _expand_edges(self) -> None:
        """Expand a complete vertex embedding into all parallel-edge
        combinations and post-check the temporal order on each.

        The product runs over timestamp tuples; Edge objects are only
        materialized for combinations that survive the order check.
        """
        event_qe = self._event_qe
        event_edge = self._event_edge
        query = self.query
        directed = query.directed
        per_edge_ts: List[Sequence[int]] = []
        endpoints: List[Tuple[int, int]] = []
        for qe in query.edges:
            a, b = self._vmap[qe.u], self._vmap[qe.v]
            if not directed and a > b:
                a, b = b, a
            if qe is event_qe:
                per_edge_ts.append((event_edge.t,))
            else:
                ts = candidate_timestamps(query, self.graph, qe.index, a, b)
                if not ts:
                    return
                per_edge_ts.append(ts)
            endpoints.append((a, b))
        vertex_map = tuple(self._vmap)  # type: ignore[arg-type]
        is_consistent = query.order.is_consistent
        stats = self.stats
        out = self._out
        for combo in product(*per_edge_ts):
            stats.backtrack_nodes += 1
            if is_consistent(combo):
                out.append(Match(vertex_map, tuple(
                    Edge(ab[0], ab[1], t)
                    for ab, t in zip(endpoints, combo))))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def structure_entries(self) -> int:
        return self.dcs.size()

    def _note_event(self) -> None:
        stats = self.stats
        stats.note_structure_size(self.structure_entries())
        stats.events_processed += 1
        extra = stats.extra
        extra["events"] += 1
        extra["dcs_edges_sum"] += self.dcs.num_edges()
        extra["dcs_vertices_sum"] += self.dcs.num_d2_vertices()
