"""Dynamic candidate space (DCS) — the auxiliary structure of SymBi [23].

The DCS stores, for every query edge, the data edges that survived
filtering (for TCM: the TC-matchable edges; for the SymBi baseline: all
label-compatible edges), plus two boolean dynamic-programming tables over
vertex pairs:

* ``D1[u, v]`` — there is a weak embedding of the reverse sub-DAG at
  ``v`` covering u's ancestors (computed root-down along the query DAG);
* ``D2[u, v]`` — ``D1[u, v]`` holds and there is a weak embedding of the
  sub-DAG ``q̂_u`` at ``v`` through surviving DCS edges (computed
  leaf-up).

``D2`` is the bidirectional vertex filter: the backtracking engine only
maps ``u`` to ``v`` when ``D2[u, v]`` holds.  Both tables are maintained
incrementally with the same worklist pattern as the max-min index.  The
number of stored DCS edges and the number of pairs with ``D2`` true are
the two filtering-power measures of Table V.

Batched maintenance
-------------------
Candidate-edge mutation and D1/D2 propagation are split: :meth:`stage`
applies edge changes and accumulates the touched data vertices,
:meth:`refresh` runs the worklist once for an arbitrary accumulation.
The batched engines discard an expired edge's candidates at once
(:meth:`discard_edge`, seeding only an emptied list) and stage and
refresh a single time per flush, so D1/D2 propagation over shared
vertices runs once instead of per event; :meth:`apply` composes the
two for the per-event path.  The D1/D2 tables are stored
as one data-vertex dict per query vertex — the ``d2`` gate is probed on
every backtracking extension, and an int-keyed dict probe beats tuple
hashing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Iterable, List, Set, Tuple

from repro.core.dag import QueryDag
from repro.graph.temporal_graph import TemporalGraph

_EMPTY: List[int] = []

#: :meth:`DCS.discard_edge` outcomes.
_ABSENT, _REMOVED, _EMPTIED = 0, 1, 2


class DCS:
    """Candidate edge sets plus the D1/D2 vertex filter for one query DAG."""

    def __init__(self, dag: QueryDag, graph: TemporalGraph):
        self.dag = dag
        self.query = dag.query
        self.graph = graph
        # _pairs[e][(a, b)] -> sorted timestamps, where a is the image of
        # the canonical endpoint qe.u and b the image of qe.v.
        self._pairs: List[Dict[Tuple[int, int], List[int]]] = [
            {} for _ in range(self.query.num_edges)]
        self._num_edges = 0
        # _d1[u][v] / _d2[u][v]: one data-vertex table per query vertex.
        self._d1: List[Dict[int, bool]] = [
            {} for _ in range(self.query.num_vertices)]
        self._d2: List[Dict[int, bool]] = [
            {} for _ in range(self.query.num_vertices)]
        # Entry/truth counters so the per-event statistics reads
        # (size, Table V measures) are O(1) instead of table scans.
        self._table_entries = 0     # pairs present (same keys in both)
        self._d2_true = 0           # pairs with D2 true
        # The D1/D2 recurrences and their worklist, resolved once per
        # DAG edge.  A gate is what one DAG edge at u reads: (the vertex
        # across it, that vertex's label, its D1 (D2) table, the edge's
        # candidate lists, are those keyed (image of u, image of the
        # other vertex), i.e. is u the edge's canonical endpoint qe.u?).
        # D1 of u reads the gates to u's parents, D2 those to its
        # children; a flipped D1 flows to the children, a flipped D2 to
        # the parents.
        query = self.query
        n = query.num_vertices
        self._labels = query.labels
        self._d1_gates = tuple(
            tuple((up, self._labels[up], self._d1[up], self._pairs[e],
                   u == query.edges[e].u) for up, e in dag.parents_of[u])
            for u in range(n))
        self._d2_gates = tuple(
            tuple((uc, self._labels[uc], self._d2[uc], self._pairs[e],
                   u == query.edges[e].u) for uc, e in dag.children_of[u])
            for u in range(n))

    # ------------------------------------------------------------------
    # Edge set
    # ------------------------------------------------------------------
    def apply(self, adds, removes) -> None:
        """Apply a batch of candidate-edge changes, then refresh D1/D2.

        ``adds`` and ``removes`` are iterables of ``(e, a, b, t)`` tuples
        (query-edge index, canonical endpoint images, timestamp).  The
        D1/D2 worklist runs once for the whole batch.
        """
        seeds: Set[Tuple[int, int]] = set()
        vertices: Set[int] = set()
        self.stage(adds, removes, seeds, vertices)
        if seeds or vertices:
            self.refresh(seeds, vertices)

    def stage(self, adds, removes, seeds: Set[Tuple[int, int]],
              vertices: Set[int]) -> None:
        """Apply candidate-edge changes *without* refreshing D1/D2.

        The worklist seeds of the changes — the ``(query vertex, data
        vertex)`` entries that directly read each changed candidate list
        (its DAG-side endpoints at their images) — are accumulated into
        ``seeds``, the touched data vertices into ``vertices``; callers
        collect them across events and pass both to :meth:`refresh`
        once.  Until then D1/D2 may still hold where an emptied list
        no longer supports them — a sound (over-approximate) filter;
        after the refresh they are exact for the candidate lists
        stored, which may themselves be a superset of the exact ones
        (``TCMEngine.on_batch``).
        """
        # D1/D2 read candidate lists only through their *nonemptiness*
        # (the any(...) gates of the recurrences), so only an
        # empty <-> nonempty transition can flip a value — adds and
        # removes that keep a list nonempty skip the worklist entirely.
        for e, a, b, t in adds:
            if self._insert(e, a, b, t):
                self.add_seeds(e, a, b, seeds)
            vertices.add(a)
            vertices.add(b)
        for e, a, b, t in removes:
            code = self.discard_edge(e, a, b, t)
            if code == _ABSENT:
                raise KeyError(f"DCS edge ({e}, {a}, {b}, {t}) not present")
            if code == _EMPTIED:
                self.add_seeds(e, a, b, seeds)
            vertices.add(a)
            vertices.add(b)

    def add_seeds(self, e: int, a: int, b: int,
                  seeds: Set[Tuple[int, int]]) -> None:
        """Accumulate the worklist seeds reading candidate list
        ``(e, a, b)``: D1 is read at the child-side endpoint's image, D2
        at the parent-side endpoint's image; the worklist recomputes both
        tables per popped pair and propagates flips, so seeding the two
        endpoint entries reaches the same fixed point as seeding every
        label-compatible query vertex (the D1/D2 recurrences are acyclic
        along the DAG, hence have a unique solution)."""
        qe = self.query.edges[e]
        dag = self.dag
        child = dag.edge_child[e]
        parent = dag.edge_parent[e]
        seeds.add((child, a if child == qe.u else b))
        seeds.add((parent, a if parent == qe.u else b))

    def add_edge(self, e: int, a: int, b: int, t: int) -> None:
        """Insert one candidate edge and refresh D1/D2."""
        self.apply([(e, a, b, t)], [])

    def remove_edge(self, e: int, a: int, b: int, t: int) -> None:
        """Remove one candidate edge and refresh D1/D2."""
        self.apply([], [(e, a, b, t)])

    def discard_edge(self, e: int, a: int, b: int, t: int) -> int:
        """Remove one candidate edge if present, without refreshing
        D1/D2; returns 0 when absent, 1 when removed, 2 when the removal
        emptied the pair's list (the only case that can flip a D1/D2
        value).  Used by the batched engines to purge the entries of an
        expired data edge the moment it leaves the graph (the DCS must
        never admit dead edges into backtracking, even between deferred
        refreshes)."""
        slot = self._pairs[e].get((a, b))
        if slot is not None:
            idx = bisect_left(slot, t)
            if idx < len(slot) and slot[idx] == t:
                slot.pop(idx)
                self._num_edges -= 1
                if not slot:
                    del self._pairs[e][(a, b)]
                    return _EMPTIED
                return _REMOVED
        return _ABSENT

    def _insert(self, e: int, a: int, b: int, t: int) -> bool:
        """Insert a candidate edge; True if the pair's list was empty."""
        slot = self._pairs[e].setdefault((a, b), [])
        idx = bisect_left(slot, t)
        if idx < len(slot) and slot[idx] == t:
            raise ValueError(f"duplicate DCS edge ({e}, {a}, {b}, {t})")
        slot.insert(idx, t)
        self._num_edges += 1
        return len(slot) == 1

    def has_edge(self, e: int, a: int, b: int, t: int) -> bool:
        """Membership test for an exact candidate edge."""
        slot = self._pairs[e].get((a, b))
        if not slot:
            return False
        idx = bisect_left(slot, t)
        return idx < len(slot) and slot[idx] == t

    def timestamps(self, e: int, a: int, b: int) -> List[int]:
        """Sorted surviving timestamps for query edge ``e`` when its
        canonical endpoints map to ``a`` and ``b`` (internal list; do not
        mutate)."""
        return self._pairs[e].get((a, b), _EMPTY)

    def candidate_table(self, e: int) -> Dict[Tuple[int, int], List[int]]:
        """The candidate lists of query edge ``e`` keyed by the images
        of its canonical endpoints; absent means empty (read-only view
        for the backtracking loops, like :meth:`d2_table`)."""
        return self._pairs[e]

    def num_edges(self) -> int:
        """Total number of stored candidate edges (Table V, top)."""
        return self._num_edges

    def num_d2_vertices(self) -> int:
        """Number of vertex pairs passing the filter (Table V, bottom)."""
        return self._d2_true

    def size(self) -> int:
        """Stored entries (memory accounting)."""
        return self._num_edges + 2 * self._table_entries

    # ------------------------------------------------------------------
    # D1 / D2 filter
    # ------------------------------------------------------------------
    def d2(self, u: int, v: int) -> bool:
        """The bidirectional vertex filter used by backtracking."""
        return self._d2[u].get(v, False)

    def d2_table(self, u: int) -> Dict[int, bool]:
        """The D2 table of query vertex ``u`` (read-only view for the
        candidate loops: one dict probe per data vertex instead of a
        method call)."""
        return self._d2[u]

    def d1(self, u: int, v: int) -> bool:
        """The ancestor-side filter (exposed for tests/statistics)."""
        return self._d1[u].get(v, False)

    def refresh(self, seeds: Iterable[Tuple[int, int]],
                vertices: Iterable[int]) -> None:
        """Recompute D1/D2 from the accumulated worklist ``seeds`` (see
        :meth:`add_seeds`); the worklist propagates any flips down (D1)
        and up (D2) the DAG.  Entries of touched data ``vertices`` that
        left the window are purged afterwards.
        """
        graph = self.graph
        self._run_worklist([(u, v) for u, v in seeds
                            if graph.has_vertex(v)])
        self.purge_dead_vertices(vertices)

    def purge_dead_vertices(self, vertices: Iterable[int]) -> None:
        """Drop D1/D2 entries of vertices that left the window."""
        for v in vertices:
            if self.graph.has_vertex(v):
                continue
            for table in self._d1:
                if table.pop(v, None) is not None:
                    self._table_entries -= 1
            for table in self._d2:
                if table.pop(v, None):
                    self._d2_true -= 1

    def _run_worklist(self, seeds: List[Tuple[int, int]]) -> None:
        graph = self.graph
        has_vertex, items = graph.has_vertex, graph.neighbor_items
        d1, d2 = self._d1, self._d2
        queue: Deque[Tuple[int, int]] = deque()
        queued: Set[Tuple[int, int]] = set()
        for key in seeds:
            if key not in queued:
                queued.add(key)
                queue.append(key)
        while queue:
            key = queue.popleft()
            queued.discard(key)
            u, v = key
            if not has_vertex(v):
                continue
            d1_new = self._compute_d1(u, v)
            d2_new = self._compute_d2(u, v, d1_new)
            d1_old = d1[u].get(v)
            d2_old = d2[u].get(v)
            d1[u][v] = d1_new
            d2[u][v] = d2_new
            if d1_old is None:
                self._table_entries += 1
            if d2_new != bool(d2_old):
                self._d2_true += 1 if d2_new else -1
            # D1 flows to children (D2 of this pair is already redone),
            # D2 to parents.
            for flipped, gates in ((d1_new != d1_old, self._d2_gates[u]),
                                   (d2_new != d2_old, self._d1_gates[u])):
                if not flipped:
                    continue
                for uw, label, _table, _pairs, v_first in gates:
                    for w in items(v, label, not v_first):
                        key = (uw, w)
                        if key not in queued:
                            queued.add(key)
                            queue.append(key)

    def _gates_open(self, gates, v: int) -> bool:
        """Does every DAG edge of ``gates`` have a neighbour of ``v``
        with the right label, a true table value and surviving candidate
        edges to ``v``?"""
        items = self.graph.neighbor_items
        for _uw, label, table, pairs, v_first in gates:
            for w in items(v, label, not v_first):
                if (table.get(w, False)
                        and pairs.get((v, w) if v_first else (w, v))):
                    break
            else:
                return False
        return True

    def _compute_d1(self, u: int, v: int) -> bool:
        return (self._labels[u] == self.graph.label(v)
                and self._gates_open(self._d1_gates[u], v))

    def _compute_d2(self, u: int, v: int, d1_value: bool) -> bool:
        return d1_value and self._gates_open(self._d2_gates[u], v)
