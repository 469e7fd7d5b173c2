"""Max-min timestamps and their incremental maintenance (Section IV-C).

For a query DAG ``q̂``, the max-min timestamp ``T[u, v, e]`` is the largest
"min timestamp for e" over all weak embeddings of the sub-DAG ``q̂_u`` at
data vertex ``v`` (Definitions IV.2 / IV.3).  Lemma IV.3 then decides in
O(1) whether a query edge is a TC-matchable edge of a data edge.

The paper presents the case ``e < e'`` (temporal descendants that must be
*later* than e's image) and notes the case ``e' < e`` is symmetric.  We
implement both:

* the *gt* bound of ``e`` — largest over weak embeddings of the minimum
  timestamp among images of temporal descendants ``e'`` with ``e < e'``;
  the candidate timestamp must be strictly below it.
* the *lt* bound of ``e`` — smallest over weak embeddings of the maximum
  timestamp among images of temporal descendants ``e'`` with ``e' < e``;
  the candidate timestamp must be strictly above it.

Both use the same dynamic program, Equation (1), maintained incrementally
by a worklist that recomputes only entries whose inputs changed
(TCMInsertion / TCMDeletion, Algorithm 3).  Existence of *any* weak
embedding of ``q̂_u`` at ``v`` rides along in the same recurrence; a
missing weak embedding means the edge is filtered outright.

Layout: what is resolved once per DAG, what is read per event
------------------------------------------------------------
Everything that depends only on the query DAG is compiled in
``MaxMinIndex.__init__``; the per-event code reads the window graph and
the entry tables and nothing else.

*Slots.*  Query vertex ``u`` stores a bound for the edges of
``dag.rel_gt[u]`` and ``dag.rel_lt[u]``.  Their order is fixed as
``sorted(rel_gt[u])`` followed by ``sorted(rel_lt[u])``, so the entry of
``(u, v)`` is one flat tuple with the gt bounds first and the lt bounds
after them, and "no weak embedding of ``q̂_u`` at ``v``" is the sentinel
:data:`ABSENT`.  Two entries are equal iff their tuples are.

*Transfer plans.*  For every DAG edge ``(u -> uc, eps)`` Equation (1)
carries each bound of ``u`` over from the entry of a child image
``(uc, vc)``: the bound starts from the child's bound for the same query
edge — or from "unbounded" when the child stores none — and is clipped by
the newest (gt) or oldest (lt) ``eps`` image between ``v`` and ``vc`` when
``eps`` itself is a temporal descendant.  The plan lists, per slot of
``u``, the child slot (or -1) and that clip flag
(``precedes(e, eps)`` / ``precedes(eps, e)``).  It also fixes where the
``eps`` images are read: the neighbours of ``v`` with the child's label
(:meth:`TemporalGraph.neighbor_items`), over out- or in-rows by which
endpoint of ``eps`` is ``u``, and the timestamps carrying the edge
label, so that one evaluation is a single loop over exactly the child
images.

*Worklist tables.*  A changed data pair with labels ``(la, lb)`` seeds the
query vertices in ``_seeds[(la, lb)]``.  Per DAG edge ``(up -> u, e)``,
``_parents[u]`` lists the slots of u's entry that e's Lemma IV.3 window
reads and those up's transfer plan reads.  A changed entry of ``(u, v)``
reports the window ``(e, v)`` as moved, and pushes ``up`` at the
neighbours of ``v`` with up's label, only if those slots differ — or if
the entry is new or its presence flipped.  Nothing else moves a window,
so :meth:`MaxMinIndex.on_graph_changes` returns the moved ``(query edge,
child image)`` pairs and the caller re-diffs only their candidate pairs;
a purge returns nothing (a dead vertex has no pairs).

*Per event* the index reads: the timestamp rows around the recomputed
vertices, their neighbours of one label, and the children's entries.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.dag import QueryDag
from repro.graph.temporal_graph import TemporalGraph

INF = float("inf")

#: The entry of a ``(u, v)`` without a weak embedding of ``q̂_u`` at ``v``
#: (a falsy singleton that survives pickling; test with ``is``, since the
#: entry of a leaf is the equally falsy empty tuple).
ABSENT = False

# A present entry: the gt bounds of the vertex's slots, then the lt ones.
Entry = Union[Tuple[float, ...], bool]

# One slot's transfer along a DAG edge: (slot of u, slot of the child
# entry or -1 for "unbounded", clip by the DAG edge's own image?).
Transfer = Tuple[int, int, bool]


class MaxMinIndex:
    """Max-min timestamp table ``T(q̂)`` for one query DAG over one graph.

    The graph is owned by the engine and mutated externally; after each
    edge insertion/removal the engine calls :meth:`on_graph_change`
    (or :meth:`on_graph_changes` for a whole batch of data pairs), which
    reruns the dynamic program on exactly the affected entries and returns
    the set of ``(query edge, child image)`` pairs whose window moved.

    Entries are stored as one data-vertex dict per query vertex
    (``_entries[u][v]``): lookups key on a plain int instead of hashing
    an ``(u, v)`` tuple, and purging a dead data vertex is one ``pop``
    per query vertex instead of a full-table scan.
    """

    def __init__(self, dag: QueryDag, graph: TemporalGraph):
        self.dag = dag
        self.query = query = dag.query
        self.graph = graph
        n = query.num_vertices
        self._labels = query.labels
        self._entries: List[Dict[int, Entry]] = [{} for _ in range(n)]

        gt_slot: List[Dict[int, int]] = []
        lt_slot: List[Dict[int, int]] = []
        for u in range(n):
            gts, lts = sorted(dag.rel_gt[u]), sorted(dag.rel_lt[u])
            gt_slot.append({e: i for i, e in enumerate(gts)})
            lt_slot.append({e: len(gts) + i for i, e in enumerate(lts)})
        # Bounds along one DAG edge before any child image was seen
        # (the identities of max, for gt, and min, for lt).
        self._unreached = [(-INF,) * len(gt_slot[u]) + (INF,) * len(lt_slot[u])
                           for u in range(n)]
        # An entry always stores 1 + |slots of u| scalars, so the total
        # size is maintainable as a counter.
        self._entry_cost = [1 + len(self._unreached[u]) for u in range(n)]
        self._size = 0

        # Transfer plans, one per DAG edge, grouped by parent vertex.
        precedes = query.precedes
        self._plans: List[Tuple[tuple, ...]] = []
        for u in range(n):
            plans = []
            for uc, eps in dag.children_of[u]:
                gt_plan: Tuple[Transfer, ...] = tuple(
                    (i, gt_slot[uc].get(e, -1), precedes(e, eps))
                    for e, i in gt_slot[u].items())
                lt_plan: Tuple[Transfer, ...] = tuple(
                    (i, lt_slot[uc].get(e, -1), precedes(eps, e))
                    for e, i in lt_slot[u].items())
                plans.append((uc, self._labels[uc], self._entries[uc],
                              u != query.edges[eps].u,
                              query.edge_label(eps), gt_plan, lt_plan))
            self._plans.append(tuple(plans))

        # Lemma IV.3 reads, per query edge: (child vertex, gt slot, lt
        # slot), a slot being -1 where the edge has no such bound.
        self._edge_slots = tuple(
            (uc, gt_slot[uc].get(e, -1), lt_slot[uc].get(e, -1))
            for e, uc in enumerate(dag.edge_child))

        # Worklist tables: a changed data pair (a, b) seeds the
        # parent-side entry (up, a) of every DAG edge whose endpoint
        # labels are (label(a), label(b)).  Per DAG edge (up -> u, e),
        # _parents[u] holds (e, the slots of u's entry e's window reads,
        # up, up's label, are up's images in-neighbours of u's - is up
        # qe.u?, the slots up's plan reads), a getter of no slots None.
        rules = {(self._labels[dag.edge_parent[e]],
                  self._labels[dag.edge_child[e]], dag.edge_parent[e])
                 for e in range(query.num_edges)}
        self._seeds: Dict[Tuple[object, object], List[int]] = {}
        for lp, lc, up in rules:
            self._seeds.setdefault((lp, lc), []).append(up)

        def slots(at):
            at = sorted({i for i in at if i >= 0})
            return itemgetter(*at) if at else None

        self._parents = tuple(
            tuple((e, slots(self._edge_slots[e][1:]), up, self._labels[up],
                   up == query.edges[e].u,
                   slots(at for plan in self._plans[up] if plan[0] == u
                         for _i, at, _clip in plan[5] + plan[6]))
                  for up, e in dag.parents_of[u])
            for u in range(n))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def entry(self, u: int, v: int) -> Entry:
        """The entry for ``(u, v)`` — the flat bound tuple in slot order
        or :data:`ABSENT` — computing and caching it on demand.

        :data:`ABSENT` also when ``v`` is outside the window or the
        labels differ.
        """
        table = self._entries[u]
        cached = table.get(v)
        if cached is None:
            # Stored entries are live and label-compatible by
            # construction, so only a miss pays for the checks.
            if (not self.graph.has_vertex(v)
                    or self._labels[u] != self.graph.label(v)):
                return ABSENT
            cached = self._compute(u, v)
            table[v] = cached
            self._size += self._entry_cost[u]
        return cached

    def window(self, e: int, child_image: int
               ) -> Optional[Tuple[float, float]]:
        """The open interval ``(lo, hi)`` a timestamp must lie in for
        query edge ``e`` to be TC-matchable (w.r.t. this DAG) at a data
        edge whose child-side endpoint maps to ``child_image``
        (Lemma IV.3); ``None`` when no timestamp can be."""
        u, gt_at, lt_at = self._edge_slots[e]
        entry = self.entry(u, child_image)
        if entry is ABSENT:
            return None
        return (entry[lt_at] if lt_at >= 0 else -INF,
                entry[gt_at] if gt_at >= 0 else INF)

    def edge_passes(self, e: int, child_vertex_image: int, t: int) -> bool:
        """Lemma IV.3 test: is query edge ``e`` TC-matchable (w.r.t. this
        DAG) at a data edge with timestamp ``t`` whose child-side endpoint
        maps to ``child_vertex_image``?"""
        bounds = self.window(e, child_vertex_image)
        return bounds is not None and bounds[0] < t < bounds[1]

    def size(self) -> int:
        """Number of stored scalar values (memory accounting)."""
        return self._size

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def on_graph_change(self, v1: int, v2: int) -> Set[Tuple[int, int]]:
        """Refresh entries after an edge between ``v1``/``v2`` changed."""
        return self.on_graph_changes(((v1, v2),))

    def on_graph_changes(self, pairs: Iterable[Tuple[int, int]]
                         ) -> Set[Tuple[int, int]]:
        """Refresh entries after edges between the data ``pairs`` changed.

        Implements the propagation of Algorithm 3: recompute the
        parent-side entries of every DAG edge each data edge can match,
        then bubble changes to ancestors whose recurrence reads them.
        The dynamic program is state-based (entries are recomputed from
        the current graph, not patched from deltas), so seeding one
        worklist with every changed pair of a batch reaches the same
        fixed point as running the propagation per event — shared pairs
        are recomputed once.  ``pairs`` is read once.  Returns the
        ``(query edge, child image)`` pairs whose Lemma IV.3 window
        moved (see the module docstring).
        """
        graph = self.graph
        has_vertex = graph.has_vertex
        glabel = graph.label
        items = graph.neighbor_items
        seeds_of = self._seeds.get
        moved: Set[Tuple[int, int]] = set()
        queue: Deque[Tuple[int, int]] = deque()
        queued: Set[Tuple[int, int]] = set()
        for v1, v2 in pairs:
            for a, b in ((v1, v2), (v2, v1)):
                if not has_vertex(a):
                    self._purge_vertex(a)
                    continue
                for up in seeds_of((glabel(a), glabel(b)), ()):
                    key = (up, a)
                    if key not in queued:
                        queued.add(key)
                        queue.append(key)

        entries, entry_cost = self._entries, self._entry_cost
        parents, compute = self._parents, self._compute
        while queue:
            key = queue.popleft()
            queued.discard(key)
            u, v = key
            if not has_vertex(v):
                continue
            table = entries[u]
            old = table.get(v)
            new = compute(u, v)
            if old == new:
                continue
            if old is None:
                self._size += entry_cost[u]
            table[v] = new
            flip = old is None or (old is ABSENT) != (new is ABSENT)
            for e, window, up, up_label, incoming, reads in parents[u]:
                if flip or window is not None and window(old) != window(new):
                    moved.add((e, v))
                if flip or reads is not None and reads(old) != reads(new):
                    for vp in items(v, up_label, incoming):
                        key = (up, vp)
                        if key not in queued:
                            queued.add(key)
                            queue.append(key)
        return moved

    def purge_vertex(self, v: int) -> None:
        """Drop all cached entries at a data vertex that left the window.

        Engines call this the moment a vertex dies (its last edge
        expired) when they skip the full propagation for the event — a
        stale cached entry must never survive into the vertex's next
        life in the window.
        """
        self._purge_vertex(v)

    def _purge_vertex(self, v: int) -> None:
        """Drop all cached entries at a vertex that left the window."""
        for u, table in enumerate(self._entries):
            if table.pop(v, None) is not None:
                self._size -= self._entry_cost[u]

    # ------------------------------------------------------------------
    # The dynamic program (Equation (1))
    # ------------------------------------------------------------------
    def _compute(self, u: int, v: int) -> Entry:
        """Evaluate Equation (1) for ``(u, v)`` from the children entries:
        per DAG edge the best bound over its child images (max for gt,
        min for lt), then the tightest of those across the DAG edges.
        Callers have matched the labels of ``u`` and ``v``."""
        graph = self.graph
        items, rows = graph.neighbor_items, graph.timestamp_rows
        unreached = self._unreached[u]
        bounds = None
        for (uc, uc_label, child_entries, incoming, eps_label,
             gt_plan, lt_plan) in self._plans[u]:
            best = None
            row = rows(eps_label)
            for vc, pid in items(v, uc_label, incoming).items():
                ts = row(pid)
                if not ts:  # no edge with the edge label
                    continue
                child = child_entries.get(vc)
                if child is None:  # entry()'s probe, minus the call
                    child = self.entry(uc, vc)
                if child is ABSENT:
                    continue
                if best is None:
                    best = list(unreached)
                t_max, t_min = ts[-1], ts[0]
                for i, at, clip in gt_plan:
                    val = child[at] if at >= 0 else INF
                    if clip and t_max < val:
                        val = t_max
                    if val > best[i]:
                        best[i] = val
                for i, at, clip in lt_plan:
                    val = child[at] if at >= 0 else -INF
                    if clip and t_min > val:
                        val = t_min
                    if val < best[i]:
                        best[i] = val
            if best is None:
                return ABSENT
            if bounds is None:
                bounds = best
                continue
            n_gt = len(gt_plan)
            for i in range(n_gt):
                if best[i] < bounds[i]:
                    bounds[i] = best[i]
            for i in range(n_gt, len(best)):
                if best[i] > bounds[i]:
                    bounds[i] = best[i]
        return tuple(bounds) if bounds is not None else ()
