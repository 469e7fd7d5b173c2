"""The TCM engine (Algorithm 1): time-constrained continuous matching.

Per stream event the engine

1. applies the edge to its within-window data graph,
2. updates the max-min timestamp indexes of the query DAG and its
   reverse (``TCMInsertion`` / ``TCMDeletion``, Algorithm 3),
3. translates the Lemma IV.3 windows that moved into DCS candidate-edge
   insertions or removals (the ``E+``/``E-`` sets of Algorithm 1) and
   refreshes the D1/D2 filter,
4. backtracks from the event edge to report the delta of
   time-constrained embeddings (``FindMatches``, Algorithm 4).

For expirations the matches are collected *before* the edge is removed,
which reports exactly the embeddings that expire with it — the same
output as the paper's ordering of Algorithm 1.

Step 1 is also admission: the window graph never stores an edge whose
endpoint labels no query edge has (``MatchEngine._window_graph``), and
its arrival and expiration answer ``[]``.  Such an edge can neither be
an image nor shift a max-min value or a D1/D2 bit (the DP reads only
label-compatible pairs), and every neighbour scan below skips it.

Batched ingestion (:meth:`TCMEngine.on_batch`)
----------------------------------------------
Steps 2-3 dominate the per-event cost, and a heavy stream touches the
same data pairs over and over.  ``on_batch`` therefore *defers* filter
maintenance and runs it once per flush point instead of once per event:

* an **expiration** reports first (from the ledger below, or by
  backtracking exactly as per-event), removes its edge from the graph,
  discards its own DCS entries (seeding D1/D2 only where a list
  empties) and purges its endpoints if they died — and that is all: it
  never feeds the max-min propagation or the candidate diff;
* an **arrival** inserts its edge, records its data pair and candidate
  pairs, and flushes — one max-min propagation seeded with all
  accumulated data pairs, one candidate diff over the accumulated
  affected pairs, one D1/D2 worklist run — only if it *may report*.  An
  arriving edge is the newest edge of the window, so in an embedding it
  can only be the image of a query edge with no successor in the order
  (an arrival older than the newest edge inserted, from an engine
  driven out of order, skips this test), and the labels of that query
  edge's other neighbours must occur among the other live neighbours of
  its images (one label-index probe per needed label; direction and
  edge labels ignored — a weaker test is still necessary; both read
  admitted edges only, sound since every edge of an embedding is
  admitted).  Any other arrival answers ``[]`` and its maintenance
  waits for the next flush; the batch ends with one while an arrival's
  pair or a D1/D2 seed is pending.

The filter is therefore a *sound superset* at every flush and batch
end, not the exact one.  Equation (1) is monotone in the graph and in
the child entries, and an expiration can only lower a gt bound, raise
an lt bound or clear presence; so every stored max-min entry is looser
than or equal to the one computed from scratch, and an entry that an
arrival's propagation recomputes reads the current graph and catches
up (from children that are themselves no tighter than exact).  The DCS
holds what the stored windows admit — a superset of the exact
candidates, minus the dead timestamps expirations discard — and D1/D2
is exact for the DCS it reads.  Soundness is all the search needs: it
verifies every embedding exactly.  The looseness is bounded by what is
live, because dead endpoints are still purged: max-min and D1/D2 hold
entries at live vertices only and the DCS live timestamps only (never
more than a label-only filter; tests/test_invariants.py holds both).

Why the output is unchanged: the last-arrived edge ``L`` of an embedding
``M`` in the window passes both tests (every other edge of ``M`` has
``t <= t(L)``; ``M`` itself supplies the neighbours, distinct by
injectivity), so it flushed, and a flush is state-based and seeded with
every deferred pair: from then on every edge of ``M`` is in the DCS with
D2 true at its vertices (a superset of the exact filter holds them),
until one of them leaves.  Deferred arrivals withhold only edges that
lie in no embedding, so every search runs on a filter containing all
edges that are in some match — all that rules 1-3 and the exact
per-match verification need.  Output is byte-identical to the
per-event path (both emit one canonical-order sequence per event —
what ``find_matches`` returned, unread); only the maintenance *work*
and the filter's looseness differ.  The per-event methods stay
Algorithm 1 as printed: they are the reference the tests hold
``on_batch`` to and what Fig 7-11 / Table V run.  Table V's per-event
sums are sampled at stale states on the batched path.

The live-match ledger.  Per-event, an embedding is enumerated twice:
when its last edge arrives and, by backtracking, when its first edge
leaves.  ``on_batch`` files every block an arrival's search returns by
each row's smallest timestamp (in ``(vertex map, rows)`` chunks), and
an expiring edge takes its timestamp's bucket and answers with the rows
it is an image in, as the block the search would have returned
(``Backtracker.block``).  Exact: an embedding is found when its last
edge arrives (that arrival passes the gate; replayed windows come
through ``on_batch`` too) and leaves with its first removed edge, which
is in the bucket of its smallest timestamp while removals come in
timestamp order.  The ledger holds reported embeddings only (``stats.
ledger_rows``), no partial ones, and is not in ``structure_entries()``.
It is dropped for the engine's life — expirations then backtrack — on a
per-event call (whose arrivals it does not see), on a removal while an
older bucket is held (out of timestamp order), and if a batch raises.

Two switches produce the paper's ablations (Section VI-B): with
``use_pruning=False`` the engine is the paper's ``TCM-Pruning`` variant
(TC-matchable filtering only); with ``use_tc_filter=False`` filtering
degrades to label-compatibility while the time-constrained backtracking
stays on (an extra ablation; only the tests run it).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.backtrack import Backtracker
from repro.core.dag import QueryDag, build_best_dag
from repro.core.dcs import DCS
from repro.core.maxmin import MaxMinIndex
from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery
from repro.streaming.engine import MatchEngine
from repro.streaming.events import Event
from repro.streaming.match import Match, MatchBlock

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
        self.graph = self._window_graph()
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
        self._indexes = ((self.fwd, True), (self.rev, False))
        self._rows = self._event_rows()
        # Newest timestamp inserted: an arrival at or after it is the
        # newest edge of the window, which is what the order test of the
        # flush gate assumes.
        self._newest = float("-inf")
        # The live-match ledger (module docstring), None once dropped:
        # ``(vertex map, rows)`` chunks by smallest timestamp, and a
        # heap of those timestamps.
        self._ledger: Optional[Dict[int, list]] = {}
        self._ledger_keys: List[int] = []
        self._ends = tuple((qe.u, qe.v) for qe in query.edges)
        self._undirected = not query.directed
        self.stats.extra.update(
            events=0, dcs_edges_sum=0, dcs_vertices_sum=0)

    def _event_rows(self) -> Dict[Tuple[object, object], list]:
        """Which query edges a data edge can be the image of, keyed by
        its endpoint labels ``(label(edge.u), label(edge.v))``: rows
        ``(query edge, flipped?, need)``, flipped meaning ``qe.u`` maps
        to ``edge.v``.  ``need`` is None for a query edge with a
        successor in the order (it cannot be the newest edge of a
        match); otherwise the labels the other query neighbours of its
        endpoints require around ``edge.u`` and around ``edge.v``.

        The keys are ``query.relevant_label_pairs()``, which the window
        graph admits: every stored edge has a row, no other is stored,
        and the gate's neighbour test sees rowed edges only (sound:
        every edge of an embedding has a row)."""
        query = self.query
        rows: Dict[Tuple[object, object], list] = {}
        for meta in query.edge_meta():
            need = None
            if not query.order.successors(meta.index):
                need = tuple(
                    frozenset(query.label(w) for w in query.neighbors(x)
                              if w != y)
                    for x, y in ((meta.u, meta.v), (meta.v, meta.u)))
            rows.setdefault((meta.label_u, meta.label_v), []).append(
                (meta.index, False, need))
            if not query.directed:
                rows.setdefault((meta.label_v, meta.label_u), []).append(
                    (meta.index, True, need and need[::-1]))
        return rows

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_edge_insert(self, edge: Edge) -> Sequence[Match]:
        if self._ledger is not None:
            self._drop_ledger()
        if not self.graph.insert_edge(edge, label=self._edge_label(edge)):
            self._note_event()
            return []  # not admitted, or a duplicate (u, v, t)
        if edge.t > self._newest:
            self._newest = edge.t
        cands = self._event_edge_candidates(edge)
        affected = self._update_filter_indexes(edge, cands)
        adds, removes = self._diff_candidates(affected)
        self.dcs.apply(adds, removes)
        self._note_event()
        return self.backtracker.find_matches(edge, cands)

    def on_edge_expire(self, edge: Edge) -> Sequence[Match]:
        if self._ledger is not None:
            self._drop_ledger()
        if not self.graph.has_edge(edge):
            self._note_event()
            return []  # an edge the engine does not hold
        cands = self._event_edge_candidates(edge)
        matches = self.backtracker.find_matches(edge, cands)
        self.graph.remove_edge(edge)
        affected = self._update_filter_indexes(edge, cands)
        adds, removes = self._diff_candidates(affected)
        self.dcs.apply(adds, removes)
        # apply() purges only vertices its changes touched; an endpoint
        # may die with this edge while holding no candidate of it.
        self.dcs.purge_dead_vertices((edge.u, edge.v))
        self._note_event()
        return matches

    def _event_edge_candidates(self, edge: Edge, rows=None
                               ) -> List[CandidatePair]:
        """Candidate pairs the (admitted) event edge touches, per query
        edge and orientation.  Label-compatible pairs only: an
        incompatible pair can never hold DCS entries, so diffing it is a
        guaranteed no-op (vertex labels are static)."""
        u, v = edge.u, edge.v
        if rows is None:
            glabel = self.graph.label
            rows = self._rows[(glabel(u), glabel(v))]
        return [(e, v, u) if flipped else (e, u, v)
                for e, flipped, _ in rows]

    def _purge_dead_endpoints(self, edge: Edge) -> None:
        """Evict the max-min and D1/D2 entries of endpoints that just
        left the window with a batched expiration, which propagates
        nothing (this is what bounds the loose filter by what is live;
        a stale entry must neither be counted nor survive into the
        vertex's next window life)."""
        graph = self.graph
        for v in (edge.u, edge.v):
            if not graph.has_vertex(v):
                self.fwd.purge_vertex(v)
                self.rev.purge_vertex(v)
                self.dcs.purge_dead_vertices((v,))

    def on_batch(self, events: Sequence[Event]
                 ) -> List[Sequence[Match]]:
        """Batched ingestion: defer and dedupe the filter maintenance
        across the batch, flushing only before an arrival that may
        report (see the module docstring for why the output stays
        byte-identical to the per-event path)."""
        out: List[Sequence[Match]] = []
        pairs: Set[Tuple[int, int]] = set()      # data pairs changed
        affected: Set[CandidatePair] = set()     # candidate pairs to diff
        seeds: Set[Tuple[int, int]] = set()      # D1/D2 worklist seeds
        graph, dcs, stats = self.graph, self.dcs, self.stats
        glabel, rows_of = graph.label, self._rows.__getitem__
        find_matches = self.backtracker.find_matches
        edges_sum = vertices_sum = 0             # Table V, folded below
        # Put back at the end: a batch that raises drops the ledger.
        ledger, self._ledger = self._ledger, None
        held, peak = stats.ledger_rows, stats.peak_ledger_rows
        for event in events:
            edge = event.edge
            u, v, t = edge
            matches: Sequence[Match] = []
            if event.is_arrival:
                if graph.insert_edge(edge, label=self._edge_label(edge)):
                    in_order = t >= self._newest
                    if in_order:
                        self._newest = t
                    rows = rows_of((glabel(u), glabel(v)))
                    cands = self._event_edge_candidates(edge, rows)
                    pairs.add((u, v))
                    affected.update(cands)
                    if self._may_report(u, v, rows, in_order):
                        self._flush(pairs, affected, seeds)
                        matches = find_matches(edge, cands)
                        if matches and ledger is not None:
                            self._file(ledger, matches)
                            held += len(matches)
                            if held > peak:
                                peak = held
                    else:
                        stats.arrivals_deferred += 1
            elif graph.has_edge(edge):
                cands = self._event_edge_candidates(edge)
                if ledger is not None and self._oldest_key(ledger) < t:
                    ledger = None   # removed out of timestamp order
                if ledger is None:
                    matches = find_matches(edge, cands)
                else:
                    matches = self._expire_from(ledger, edge)
                    held -= len(matches)
                graph.remove_edge(edge)
                # The DCS must never admit a dead edge into backtracking;
                # only an emptied list is visible to D1/D2.  Nothing
                # else tightens: the filter stays a sound superset.
                for e, a, b in cands:
                    if dcs.discard_edge(e, a, b, t) == 2:
                        dcs.add_seeds(e, a, b, seeds)
                self._purge_dead_endpoints(edge)
            edges_sum += dcs.num_edges()
            vertices_sum += dcs.num_d2_vertices()
            out.append(matches)
        if pairs or seeds:
            self._flush(pairs, affected, seeds)
        if ledger is None:
            self._drop_ledger()
        else:
            self._ledger = ledger
            if not ledger:
                self._ledger_keys.clear()
            stats.ledger_rows, stats.peak_ledger_rows = held, peak
        stats.events_processed += len(events)
        extra = stats.extra
        extra["events"] += len(events)
        extra["dcs_edges_sum"] += edges_sum
        extra["dcs_vertices_sum"] += vertices_sum
        stats.batches_processed += 1
        return out

    # ------------------------------------------------------------------
    # The live-match ledger
    # ------------------------------------------------------------------
    def _drop_ledger(self) -> None:
        """From now on expirations search (see "Batched ingestion")."""
        self._ledger = None
        self._ledger_keys = []
        self.stats.ledger_rows = 0

    def _file(self, ledger: Dict[int, list], block: MatchBlock) -> None:
        """File an arrival's block: each group's rows under their
        smallest timestamp, one chunk per (group, timestamp)."""
        for vertex_map, rows in block.groups:
            by_low: Dict[int, list] = {}
            for row in rows:
                by_low.setdefault(min(row), []).append(row)
            for low, part in by_low.items():
                if low not in ledger:
                    ledger[low] = []
                    heappush(self._ledger_keys, low)
                ledger[low].append((vertex_map, part))

    def _oldest_key(self, ledger: Dict[int, list]) -> float:
        """The smallest timestamp the ledger holds rows under."""
        keys = self._ledger_keys
        while keys and keys[0] not in ledger:
            heappop(keys)
        return keys[0] if keys else float("inf")

    def _expire_from(self, ledger: Dict[int, list],
                     edge: Edge) -> MatchBlock:
        """The embeddings that expire with ``edge``, taken out of its
        timestamp's bucket.  In a chunk at most one query edge has
        ``edge``'s endpoints as images (the vertex map is injective and
        the query simple), so a row holds ``edge`` iff its timestamp
        there is ``edge.t`` — another query edge at that timestamp (a
        tie) has other endpoints."""
        u, v, t = edge
        hits: List[Tuple[tuple, tuple]] = []
        keep = []
        for vertex_map, rows in ledger.pop(t, ()):
            for e, (x, y) in enumerate(self._ends):
                a, b = vertex_map[x], vertex_map[y]
                if a == u and b == v or self._undirected and a == v and b == u:
                    break
            else:
                keep.append((vertex_map, rows))
                continue
            rest = []
            for row in rows:
                if row[e] == t:
                    hits.append((vertex_map, row))
                else:
                    rest.append(row)
            if rest:
                keep.append((vertex_map, rest))
        if keep:
            ledger[t] = keep
        return self.backtracker.block(hits)

    def _may_report(self, u: int, v: int, rows, in_order: bool) -> bool:
        """The flush gate: can the arriving edge ``(u, v)`` be the
        newest edge of an embedding?  Necessary: it is the image of a
        query edge without successor in the order (asked only of an
        ``in_order`` arrival, the newest edge of the window), and the
        labels that query edge's other neighbours need occur among the
        other live neighbours of ``u`` and of ``v``, in either
        direction: one index probe per needed label."""
        for _e, _flipped, need in rows:
            if need is None:
                if in_order:
                    continue
                return True
            if self._around(u, v, need[0]) and self._around(v, u, need[1]):
                return True
        return False

    def _around(self, a: int, b: int, labels) -> bool:
        """Does every label of ``labels`` occur on a live neighbour of
        ``a`` other than ``b``, over out- or in-rows?"""
        items = self.graph.neighbor_items
        for label in labels:
            found = items(a, label)
            if len(found) > (b in found):
                continue
            if self.graph.directed:
                found = items(a, label, True)
                if len(found) > (b in found):
                    continue
            return False
        return True

    def _flush(self, pairs: Set[Tuple[int, int]],
               affected: Set[CandidatePair],
               seeds: Set[Tuple[int, int]]) -> None:
        """Bring every filter structure up to date with the graph: one
        max-min propagation over all accumulated data pairs, one
        candidate diff, one D1/D2 worklist run."""
        if self.use_tc_filter and pairs:
            for index, forward in self._indexes:
                self._add_pairs_at(index.on_graph_changes(pairs), forward,
                                   affected)
        adds, removes = self._diff_candidates(affected)
        vertices: Set[int] = set()               # D1/D2 purge checks
        self.dcs.stage(adds, removes, seeds, vertices)
        if seeds or vertices:
            self.dcs.refresh(seeds, vertices)
        pairs.clear()
        affected.clear()
        seeds.clear()
        self.stats.filter_flushes += 1
        self.stats.note_structure_size(self.structure_entries())

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
            for index, forward in self._indexes:
                self._add_pairs_at(index.on_graph_change(edge.u, edge.v),
                                   forward, affected)
        return affected

    def _add_pairs_at(self, moved: Iterable[Tuple[int, int]],
                      forward: bool, affected: Set[CandidatePair]) -> None:
        """Add to ``affected`` the candidate pairs of the ``moved``
        windows ``(query edge, child image)`` of the ``forward`` DAG's
        index (else the reverse DAG's): the child image with each
        neighbour carrying the parent endpoint's label, over the rows
        the query edge's direction allows."""
        items = self.graph.neighbor_items
        consts = self._edge_consts
        for e, c in moved:
            label_u, label_v, _, fwd_child_is_u = consts[e]
            if fwd_child_is_u == forward:   # c is the image of qe.u
                affected.update((e, c, w) for w in items(c, label_v))
            else:
                affected.update((e, w, c) for w in items(c, label_u, True))

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
