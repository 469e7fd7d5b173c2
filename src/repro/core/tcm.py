"""The TCM engine (Algorithm 1): time-constrained continuous matching.

Per stream event the engine

1. applies the edge to its within-window data graph,
2. updates the max-min timestamp indexes of the query DAG and its
   reverse (``TCMInsertion`` / ``TCMDeletion``, Algorithm 3),
3. translates max-min changes into DCS candidate-edge insertions or
   removals (the ``E+``/``E-`` sets of Algorithm 1) and refreshes the
   D1/D2 filter,
4. backtracks from the event edge to report the delta of
   time-constrained embeddings (``FindMatches``, Algorithm 4).

For expirations the matches are collected *before* the edge is removed,
which reports exactly the embeddings that expire with it — the same
output as the paper's ordering of Algorithm 1.

Batched ingestion (:meth:`TCMEngine.on_batch`)
----------------------------------------------
Steps 2-3 dominate the per-event cost, and a heavy stream touches the
same data pairs over and over.  ``on_batch`` therefore *defers* filter
maintenance and runs it once per flush point instead of once per event:

* an **expiration** backtracks first (exactly as per-event), removes its
  edge from the graph and purges its own DCS entries, but leaves the
  max-min tables and D1/D2 untouched — between flushes those tables
  describe a *superset* window, which keeps the filter sound (it may
  admit extra exploration, never extra or missing matches: every match
  is verified exactly by the backtracking itself, and a sound filter on
  a superset graph still contains every true candidate);
* an **arrival** needs the filter complete for its own backtracking
  (a stale table could be missing candidates the new edge just made
  TC-matchable), so it flushes: one max-min propagation seeded with all
  accumulated data pairs, one candidate diff over the accumulated
  affected pairs, one D1/D2 worklist run.

Output is byte-identical to the per-event path (both emit canonically
sorted per-event match lists); only the maintenance *work* is deduped.

Two switches produce the paper's ablations (Section VI-B): with
``use_pruning=False`` the engine is the paper's ``TCM-Pruning`` variant
(TC-matchable filtering only); with ``use_tc_filter=False`` filtering
degrades to label-compatibility while the time-constrained backtracking
stays on (an extra ablation used in the benchmarks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.backtrack import Backtracker
from repro.core.dag import QueryDag, build_best_dag
from repro.core.dcs import DCS
from repro.core.maxmin import MaxMinIndex
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.matching import orientations_of
from repro.query.temporal_query import TemporalQuery
from repro.streaming.engine import MatchEngine
from repro.streaming.events import Event
from repro.streaming.match import Match

# A candidate *pair*: (query edge index, image of qe.u, image of qe.v).
# All parallel data edges between the pair share the same max-min bounds
# (Lemma IV.3 compares the timestamp against per-pair thresholds), so
# filtering is evaluated per pair, not per parallel edge.
CandidatePair = Tuple[int, int, int]


class TCMEngine(MatchEngine):
    """Time-constrained continuous subgraph matching (the paper's TCM)."""

    name = "tcm"

    def __init__(self, query: TemporalQuery, labels: Dict[int, object],
                 use_tc_filter: bool = True, use_pruning: bool = True,
                 edge_label_fn=None):
        super().__init__(query, labels, edge_label_fn)
        if query.num_edges == 0:
            raise ValueError("query must contain at least one edge")
        self.use_tc_filter = use_tc_filter
        self.use_pruning = use_pruning
        self.graph = TemporalGraph(label_fn=labels.__getitem__,
                                   directed=query.directed)
        self.dag: QueryDag = build_best_dag(query)
        self.rdag: QueryDag = self.dag.reverse()
        self.fwd = MaxMinIndex(self.dag, self.graph)
        self.rev = MaxMinIndex(self.rdag, self.graph)
        self.dcs = DCS(self.dag, self.graph)
        self.backtracker = Backtracker(
            query, self.dcs, self.graph, self.stats, use_pruning=use_pruning)
        # Per-query-edge constants of the candidate diff, resolved once:
        # (label of qe.u, label of qe.v, edge label, is the forward
        # DAG's child endpoint qe.u?).  The reverse DAG's child endpoint
        # is the other one.
        self._edge_consts = tuple(
            (meta.label_u, meta.label_v, meta.edge_label,
             self.dag.edge_child[meta.index] == meta.u)
            for meta in query.edge_meta())
        self._indexes = ((self.fwd, self._edges_at_child(self.dag)),
                         (self.rev, self._edges_at_child(self.rdag)))
        # An event edge whose endpoint labels match no query edge can
        # neither hold candidate entries nor shift any max-min value or
        # D1/D2 bit (the DP only reads timestamps of label-compatible
        # pairs), so the engine skips all filter maintenance and
        # backtracking for it.
        self._relevant_pairs = query.relevant_label_pairs()
        self.stats.extra.update(
            events=0, dcs_edges_sum=0, dcs_vertices_sum=0)

    def _edges_at_child(self, dag: QueryDag
                        ) -> Dict[int, List[Tuple[int, object, bool]]]:
        """Per query vertex, the query edges whose DAG child it is, as
        ``(edge, label of the parent endpoint, is the child qe.u?)`` —
        what turns a changed max-min entry into candidate pairs."""
        by_child: Dict[int, List[Tuple[int, object, bool]]] = {}
        for e, child in enumerate(dag.edge_child):
            by_child.setdefault(child, []).append(
                (e, self.query.label(dag.edge_parent[e]),
                 child == self.query.edges[e].u))
        return by_child

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge_insert(self, edge: Edge) -> List[Match]:
        if not self.graph.insert_edge(edge, label=self._edge_label(edge)):
            return []  # duplicate (u, v, t): idempotent no-op
        if not self._is_relevant(edge):
            self._note_event()
            return []
        cands = self._event_edge_candidates(edge)
        affected = self._update_filter_indexes(edge, cands)
        adds, removes = self._diff_candidates(affected)
        self.dcs.apply(adds, removes)
        self._note_event()
        return self.backtracker.find_matches(edge, cands)

    def on_edge_expire(self, edge: Edge) -> List[Match]:
        if not self.graph.has_edge(edge):
            return []  # expiration of a deduplicated arrival: no-op
        if not self._is_relevant(edge):
            self.graph.remove_edge(edge)
            self._purge_dead_endpoints(edge)
            self._note_event()
            return []
        cands = self._event_edge_candidates(edge)
        matches = self.backtracker.find_matches(edge, cands)
        self.graph.remove_edge(edge)
        affected = self._update_filter_indexes(edge, cands)
        adds, removes = self._diff_candidates(affected)
        self.dcs.apply(adds, removes)
        self._note_event()
        return matches

    def _is_relevant(self, edge: Edge) -> bool:
        """True if some query edge is endpoint-label compatible with the
        event edge; irrelevant events only mutate the window graph."""
        glabel = self.graph.label
        return (glabel(edge.u), glabel(edge.v)) in self._relevant_pairs

    def _purge_dead_endpoints(self, edge: Edge) -> None:
        """Evict max-min entries of endpoints that just left the window
        (the full propagation was skipped for this event; a stale cached
        entry must not survive into the vertex's next window life)."""
        graph = self.graph
        for v in (edge.u, edge.v):
            if not graph.has_vertex(v):
                self.fwd.purge_vertex(v)
                self.rev.purge_vertex(v)

    def on_batch(self, events: Sequence[Event]) -> List[List[Match]]:
        """Batched ingestion: defer and dedupe the filter maintenance
        across the batch (see the module docstring for why the output
        stays byte-identical to the per-event path)."""
        out: List[List[Match]] = []
        pairs: Set[Tuple[int, int]] = set()      # data pairs changed
        affected: Set[CandidatePair] = set()     # candidate pairs to diff
        seeds: Set[Tuple[int, int]] = set()      # D1/D2 worklist seeds
        vertices: Set[int] = set()               # D1/D2 purge checks
        for event in events:
            edge = event.edge
            if event.is_arrival:
                if not self.graph.insert_edge(
                        edge, label=self._edge_label(edge)):
                    out.append([])
                    continue
                if not self._is_relevant(edge):
                    self._note_event()
                    out.append([])
                    continue
                cands = self._event_edge_candidates(edge)
                pairs.add((edge.u, edge.v))
                affected.update(cands)
                self._flush(pairs, affected, seeds, vertices)
                self._note_event()
                out.append(self.backtracker.find_matches(edge, cands))
            else:
                if not self.graph.has_edge(edge):
                    out.append([])
                    continue
                if not self._is_relevant(edge):
                    self.graph.remove_edge(edge)
                    self._purge_dead_endpoints(edge)
                    self._note_event()
                    out.append([])
                    continue
                cands = self._event_edge_candidates(edge)
                matches = self.backtracker.find_matches(edge, cands)
                self.graph.remove_edge(edge)
                self._purge_edge_entries(edge, seeds, vertices)
                self._purge_dead_endpoints(edge)
                pairs.add((edge.u, edge.v))
                affected.update(cands)
                self._note_event()
                out.append(matches)
        if pairs or affected or seeds or vertices:
            self._flush(pairs, affected, seeds, vertices)
        self.stats.batches_processed += 1
        return out

    def _flush(self, pairs: Set[Tuple[int, int]],
               affected: Set[CandidatePair],
               seeds: Set[Tuple[int, int]], vertices: Set[int]) -> None:
        """Bring every filter structure up to date with the graph: one
        max-min propagation over all accumulated data pairs, one
        candidate diff, one D1/D2 worklist run."""
        if self.use_tc_filter and pairs:
            for index, by_child in self._indexes:
                self._add_pairs_at(index.on_graph_changes(pairs), by_child,
                                   affected)
        adds, removes = self._diff_candidates(affected)
        self.dcs.stage(adds, removes, seeds, vertices)
        if seeds or vertices:
            self.dcs.refresh(seeds, vertices)
        pairs.clear()
        affected.clear()
        seeds.clear()
        vertices.clear()

    def _purge_edge_entries(self, edge: Edge, seeds: Set[Tuple[int, int]],
                            vertices: Set[int]) -> None:
        """Drop the DCS entries of an expired edge without refreshing
        D1/D2 (the DCS must never admit dead edges into backtracking,
        even while the refresh is deferred)."""
        dcs = self.dcs
        t = edge.t
        orients = orientations_of(self.query, edge)
        for meta in self.query.edge_meta():
            for a, b in orients:
                code = dcs.discard_edge(meta.index, a, b, t)
                if code:
                    if code == 2:  # emptied: the only D1/D2-visible case
                        dcs.add_seeds(meta.index, a, b, seeds)
                    vertices.add(a)
                    vertices.add(b)

    # ------------------------------------------------------------------
    # Filtering bookkeeping
    # ------------------------------------------------------------------
    def _update_filter_indexes(self, edge: Edge,
                               cands: Iterable[CandidatePair]
                               ) -> Set[CandidatePair]:
        """Refresh the max-min indexes and gather every candidate pair
        whose TC-matchable status may have changed (``cands`` are the
        event edge's own label-compatible pairs)."""
        affected: Set[CandidatePair] = set(cands)
        if self.use_tc_filter:
            for index, by_child in self._indexes:
                self._add_pairs_at(index.on_graph_change(edge.u, edge.v),
                                   by_child, affected)
        return affected

    def _add_pairs_at(self, changed: Iterable[Tuple[int, int]],
                      by_child: Dict[int, List[Tuple[int, object, bool]]],
                      affected: Set[CandidatePair]) -> None:
        """Add to ``affected`` every adjacent vertex pair a query edge
        could match with its child-side endpoint on one of the
        ``changed`` max-min entries ``(u, v)``."""
        graph = self.graph
        glabel = graph.label
        for u, v in changed:
            for e, parent_label, child_is_u in by_child.get(u, ()):
                for w in graph.neighbors(v):
                    if glabel(w) == parent_label:
                        affected.add((e, v, w) if child_is_u
                                     else (e, w, v))

    def _event_edge_candidates(self, edge: Edge
                               ) -> Iterable[CandidatePair]:
        """Candidate pairs the event edge touches, per query edge and
        orientation.  Label-compatible pairs only: an incompatible pair
        can never hold DCS entries, so diffing it is a guaranteed no-op
        (vertex labels are static)."""
        glabel = self.graph.label
        orients = [(a, b, glabel(a), glabel(b))
                   for a, b in orientations_of(self.query, edge)]
        out: List[CandidatePair] = []
        for meta in self.query.edge_meta():
            for a, b, la, lb in orients:
                if la == meta.label_u and lb == meta.label_v:
                    out.append((meta.index, a, b))
        return out

    def _diff_candidates(self, affected: Iterable[CandidatePair]
                         ) -> Tuple[list, list]:
        """Compute DCS additions/removals for the affected pairs.

        For each pair the set of valid parallel-edge timestamps is an
        interval intersection (Lemma IV.3 thresholds from both DAGs), so
        the whole pair is diffed against the stored DCS list at once."""
        adds: list = []
        removes: list = []
        timestamps = self.dcs.timestamps
        valid_timestamps = self._valid_timestamps
        for e, a, b in affected:
            valid = valid_timestamps(e, a, b)
            stored = timestamps(e, a, b)
            if valid == stored:
                continue
            if not stored:
                adds.extend((e, a, b, t) for t in valid)
            elif not valid:
                removes.extend((e, a, b, t) for t in stored)
            else:
                valid_set = set(valid)
                stored_set = set(stored)
                adds.extend((e, a, b, t) for t in valid_set - stored_set)
                removes.extend((e, a, b, t)
                               for t in stored_set - valid_set)
        return adds, removes

    def _valid_timestamps(self, e: int, a: int, b: int) -> List[int]:
        """Surviving candidate timestamps for query edge ``e`` on the
        vertex pair ``(a, b)`` (``a`` = image of the canonical endpoint
        qe.u): live, label/direction compatible and — when the TC filter
        is on — inside the (lt, gt) window of Lemma IV.3 in both the
        query DAG and its reverse."""
        label_u, label_v, edge_label, fwd_child_is_u = self._edge_consts[e]
        graph = self.graph
        if (not graph.has_vertex(a) or not graph.has_vertex(b)
                or label_u != graph.label(a) or label_v != graph.label(b)):
            return []
        if edge_label is None:
            ts = graph.timestamps_between(a, b)
        else:
            ts = graph.timestamps_with_label(a, b, edge_label)
        if not ts or not self.use_tc_filter:
            return list(ts)
        fwd_image, rev_image = (a, b) if fwd_child_is_u else (b, a)
        fwd = self.fwd.window(e, fwd_image)
        if fwd is None:
            return []
        rev = self.rev.window(e, rev_image)
        if rev is None:
            return []
        lo = fwd[0] if fwd[0] > rev[0] else rev[0]
        hi = fwd[1] if fwd[1] < rev[1] else rev[1]
        if lo < ts[0] and ts[-1] < hi:
            return list(ts)
        return [t for t in ts if lo < t < hi]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def structure_entries(self) -> int:
        return self.dcs.size() + self.fwd.size() + self.rev.size()

    def _note_event(self) -> None:
        stats = self.stats
        stats.note_structure_size(self.structure_entries())
        stats.events_processed += 1
        extra = stats.extra
        extra["events"] += 1
        extra["dcs_edges_sum"] += self.dcs.num_edges()
        extra["dcs_vertices_sum"] += self.dcs.num_d2_vertices()
