"""Time-constrained backtracking (Section V, Algorithm 4), compiled.

``FindMatches`` enumerates every time-constrained embedding containing a
given event edge.  Unlike non-temporal continuous matching, the mapping of
*edges* matters because parallel data edges differ only in timestamp, so
the search interleaves two kinds of node:

* an **edge node**: some unmapped query edge has both endpoints mapped;
  the lowest-index such edge ``e`` is mapped next, choosing among the
  candidate set ``ECM(e)`` (Definition V.2);
* a **vertex node**: otherwise the extendable query vertex with the
  fewest candidates is mapped, as in SymBi [23].

Three time-constrained pruning rules cut the parallel candidates of an
edge node (Section V), driven by the split of the temporally related
edges of ``e`` into the already-mapped ``R+`` and the not-yet-mapped
``R-``:

1. ``R- = {}``: all parallel candidates lead to isomorphic subtrees, so
   only one is explored and the embeddings found are cloned onto the
   remaining candidates.
2. ``R-`` uniformly after (resp. before) ``e``: candidates are tried in
   chronological (resp. reverse) order and the scan stops at the first
   failing candidate — failures are monotone in the timestamp.
3. mixed ``R-``: *temporal failing sets* (Definition V.3).  When a
   candidate's subtree fails and the failed subtree's failing set does
   not contain ``e``, the failure did not depend on which parallel edge
   ``e`` mapped to, so the remaining candidates are pruned.

Vertex-extension failures are timestamp-independent (candidate vertex
sets never read timestamps), so they contribute an empty failing set —
the strongest possible signal for rule 3.

The plan
--------
Which node follows a partial embedding, and everything the node needs
apart from the data, depends only on *which* query vertices and edges
are mapped — on the query, not on the stream.  The search state is
therefore one int, ``mapped-vertex mask << num_edges | mapped-edge
mask``, next to the vertex images and the *timestamp* chosen per query
edge (see "The output"), and per state there is one plan
tuple, compiled on first visit from the per-edge rows built at
construction and kept for the engine's life (the reachable states are
the connected vertex sets grown from an edge, each with the few edge
masks the "edges first" rule allows):

* edge node — the edge, its endpoints, its DCS candidate table, the
  mapped predecessors and successors (whose timestamps bound ``ECM``),
  ``R+`` as a mask, which of the rules applies, and the child state;
* vertex node — per extendable vertex its label (its candidates are the
  first anchor image's neighbours of that label), its D2 table, its
  child state and its *anchors*: ``(mapped neighbour, candidate table
  of the joining edge, is the vertex that edge's canonical endpoint?)``.

Temporal failing sets are edge masks (``|`` for union, ``&`` for
"contains ``e``"), and ``ECM`` is a ``bisect`` slice of the DCS's sorted
row between the bounds instead of a filtered scan.

Why there is no used-edge set
-----------------------------
An embedding must be injective on edges, yet the search only keeps the
*vertex* map injective.  That is enough: a query is simple, so two
distinct query edges differ in their endpoint pair — as unordered pairs
when the query is undirected, as ordered pairs when it is directed,
where ``u -> v`` and ``v -> u`` may both be present.  An injective vertex
map sends different (un)ordered pairs to different (un)ordered pairs,
and a data :class:`Edge` carries its endpoints — normalised when
undirected, source first when directed — so the two images differ before
their timestamps are even compared.

The output
----------
The image of a query edge is fixed by the vertex map up to its
timestamp, so the edge half of the state is a row of timestamps: ``ECM``
bisects against them, a leaf reports ``(vertex map, timestamp row)``,
rule 1 clones rows by slicing, and no :class:`Edge` exists during the
search.  :meth:`Backtracker.block` groups the rows by vertex map, sorts
the vertex maps and each group's rows, and returns that as a
:class:`~repro.streaming.match.MatchBlock` — for ``find_matches``, and
for the expirations TCM's batched path answers from the rows it kept.
This *is* the canonical
``Match`` order: matches compare by vertex map first, and equal vertex
maps give every query edge the same endpoints, so their edge maps order
exactly as their timestamp rows do.  Reading the block builds the
``Match`` objects, a group at a time; one group's matches share the
vertex-map tuple and one ``Edge`` per (query edge, timestamp).  The
endpoint swap of an undirected image (``Edge.make``'s ``u <= v``) is a
property of the group, not of the candidate, which is why it is done
there once per (group, query edge) rather than per search node.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.dcs import DCS
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.matching import orientations_of
from repro.query.temporal_query import TemporalQuery
from repro.streaming.engine import EngineStats
from repro.streaming.match import MatchBlock

#: How an edge node treats its parallel candidates: try them all (the
#: ``TCM-Pruning`` ablation), rule 1, rule 2 in either direction, rule 3.
_SCAN, _CLONE, _FORWARD, _REVERSE, _FAILING = range(5)

#: What an event that reports nothing returns: one shared empty block.
_NOTHING = MatchBlock((), False, (), 0)

#: ``(count, failing set)`` of a node that completed the embedding.
_ONE = (1, 0)


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> Tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class Backtracker:
    """Backtracking search over one DCS; reusable across events."""

    def __init__(self, query: TemporalQuery, dcs: DCS, graph: TemporalGraph,
                 stats: EngineStats, use_pruning: bool = True):
        self.query = query
        self.dcs = dcs
        self.graph = graph
        self.stats = stats
        self.use_pruning = use_pruning
        n, m = query.num_vertices, query.num_edges
        self._m = m
        self._undirected = not query.directed
        order = query.order
        # Per query edge: endpoints, predecessor / successor masks in
        # the closed partial order, and the DCS candidate table.
        self._edges = tuple(
            (qe.u, qe.v, _mask(order.predecessors(qe.index)),
             _mask(order.successors(qe.index)),
             dcs.candidate_table(qe.index))
            for qe in query.edges)
        self._seeds = tuple((1 << qe.u | 1 << qe.v) << m | 1 << qe.index
                            for qe in query.edges)
        self._neighbour_masks = tuple(_mask(query.neighbors(u))
                                      for u in range(n))
        self._complete = (1 << n + m) - 1
        self._plans: Dict[int, tuple] = {}
        self._ends = tuple((qe.u, qe.v) for qe in query.edges)
        self._vmap: List[Optional[int]] = []
        self._emap: List[Optional[int]] = []     # timestamps
        self._used: set = set()
        self._out: List[Tuple[tuple, tuple]] = []
        self._nodes = self._pruned = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def find_matches(self, event_edge: Edge,
                     pairs: Optional[Iterable[Tuple[int, int, int]]] = None
                     ) -> MatchBlock:
        """All time-constrained embeddings whose image contains
        ``event_edge``, given the current graph and DCS state.

        ``pairs`` optionally narrows the seeding to precomputed
        label-compatible ``(query edge, image of qe.u, image of qe.v)``
        assignments (the engine already has them from its filter
        bookkeeping); omitted, every query edge and orientation is
        probed.  Returned as one block in canonical (sorted) order: the
        exploration order depends on the filter state, which the batched
        ingestion path deliberately lets go stale between flushes, so a
        canonical output order is what makes the two paths byte-identical.
        """
        query = self.query
        # Fresh state per call, not whatever the last call's unwinding
        # left: a call that raised part-way must not poison the next.
        self._vmap = vmap = [None] * query.num_vertices
        self._emap = emap = [None] * query.num_edges
        self._used = used = set()
        self._out = out = []
        self._nodes = self._pruned = 0
        t = event_edge.t
        dcs = self.dcs
        if pairs is None:
            orients = orientations_of(query, event_edge)
            pairs = [(qe.index, va, vb)
                     for qe in query.edges for va, vb in orients]
        for e, va, vb in pairs:
            if va == vb:
                continue
            if not dcs.has_edge(e, va, vb, t):
                continue
            u, v = self._edges[e][:2]
            if not (dcs.d2(u, va) and dcs.d2(v, vb)):
                continue
            vmap[u], vmap[v] = va, vb
            used.add(va)
            used.add(vb)
            emap[e] = t
            self._explore(self._seeds[e])
            used.clear()
        self.stats.backtrack_nodes += self._nodes
        self.stats.candidates_pruned += self._pruned
        return self.block(out)

    def block(self, out: List[Tuple[tuple, tuple]]) -> MatchBlock:
        """The canonical block of ``(vertex map, timestamp row)`` pairs
        (see "The output"), counted in ``matches_emitted`` /
        ``match_groups``: what the search reports, and what the engine
        answers an expiration with from the embeddings it holds."""
        if not out:
            return _NOTHING
        groups: Dict[tuple, List[tuple]] = defaultdict(list)
        for vertex_map, row in out:
            groups[vertex_map].append(row)
        for rows in groups.values():
            rows.sort()
        stats = self.stats
        stats.matches_emitted += len(out)
        stats.match_groups += len(groups)
        return MatchBlock(self._ends, self._undirected,
                          sorted(groups.items()), len(out))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _explore(self, state: int) -> Tuple[int, int]:
        """Explore all completions of the partial embedding ``state``.

        Returns ``(count, failing set)``; the failing set is meaningful
        only when ``count`` is zero and covers the temporal dependencies
        of every failure in the subtree (edges mapped strictly below the
        current node contribute their ``R+`` sets, Definition V.3).
        """
        self._nodes += 1
        if state == self._complete:
            self._out.append((tuple(self._vmap), tuple(self._emap)))
            return _ONE
        plan = self._plans.get(state) or self._compile(state)
        if plan[0] is None:
            return self._extend_vertex(plan[1])
        return self._extend_edge(*plan)

    def _compile(self, state: int) -> tuple:
        """The plan of ``state`` (see the module docstring)."""
        m = self._m
        vmask, emask = state >> m, state & (1 << m) - 1
        for e, (u, v, before, after, table) in enumerate(self._edges):
            if emask >> e & 1 or not vmask >> u & vmask >> v & 1:
                continue
            unmapped = (before | after) & ~emask
            if not self.use_pruning:
                rule = _SCAN
            elif not unmapped:
                rule = _CLONE
            elif not unmapped & ~after:
                rule = _FORWARD
            elif not unmapped & ~before:
                rule = _REVERSE
            else:
                rule = _FAILING
            plan = (e, u, v, table.get, _bits(before & emask),
                    _bits(after & emask), (before | after) & emask, rule,
                    state | 1 << e)
            break
        else:
            d2_table = self.dcs.d2_table
            plan = (None, tuple(
                (u, self.query.label(u), d2_table(u).get, state | 1 << m + u,
                 tuple((w, self._edges[e][4].get, u_first)
                       for e, w, u_first in self.query.incident_meta(u)
                       if vmask >> w & 1))
                for u, adjacent in enumerate(self._neighbour_masks)
                if not vmask >> u & 1 and adjacent & vmask))
        self._plans[state] = plan
        return plan

    # ------------------------------------------------------------------
    # Edge extension (Section V pruning rules)
    # ------------------------------------------------------------------
    def _extend_edge(self, e: int, u: int, v: int, row_of,
                     mapped_before: Tuple[int, ...],
                     mapped_after: Tuple[int, ...], r_plus: int,
                     rule: int, child: int) -> Tuple[int, int]:
        emap = self._emap
        a, b = self._vmap[u], self._vmap[v]
        cands = row_of((a, b))
        if cands and r_plus:
            # ECM: strictly between the latest mapped predecessor and
            # the earliest mapped successor.
            lo, hi = 0, len(cands)
            for f in mapped_before:
                lo = bisect_right(cands, emap[f], lo, hi)
            for f in mapped_after:
                hi = bisect_left(cands, emap[f], lo, hi)
            cands = cands[lo:hi]
        if not cands:
            return 0, r_plus
        explore = self._explore
        if rule == _CLONE:
            # Rule 1: explore one candidate, clone what it found onto
            # the other parallel candidates.
            out = self._out
            start = len(out)
            emap[e] = cands[0]
            count, below = explore(child)
            if count == 0:
                self._pruned += len(cands) - 1
                return 0, below | r_plus
            if len(cands) > 1:
                others = cands[1:]
                after = e + 1
                out += [(vertex_map, row[:e] + (t,) + row[after:])
                        for vertex_map, row in out[start:] for t in others]
            return len(cands) * count, 0
        if rule == _REVERSE:
            cands = cands[::-1]
        monotone = rule == _FORWARD or rule == _REVERSE
        total = 0
        failing = r_plus
        for i, t in enumerate(cands):
            emap[e] = t
            count, below = explore(child)
            if count:
                total += count
                continue
            below |= r_plus
            if monotone or rule == _FAILING and not below >> e & 1:
                self._pruned += len(cands) - i - 1
                return (total, 0) if total else (0, below)
            failing |= below
        return (total, 0) if total else (0, failing)

    # ------------------------------------------------------------------
    # Vertex extension
    # ------------------------------------------------------------------
    def _extend_vertex(self, extendable: tuple) -> Tuple[int, int]:
        """Map the extendable vertex with the fewest candidates (SymBi's
        adaptive matching order) to each of them in turn."""
        vmap, used = self._vmap, self._used
        items = self.graph.neighbor_items
        best = None
        for u, label, d2, child, anchors in extendable:
            w, row_of, u_first = anchors[0]
            w = vmap[w]
            # u's image x joins w's through a row x -> w if u is the
            # edge's canonical endpoint, else w -> x.
            nbrs = items(w, label, u_first)
            if len(anchors) == 1:
                if u_first:
                    cm = [x for x in nbrs
                          if x not in used and d2(x) and row_of((x, w))]
                else:
                    cm = [x for x in nbrs
                          if x not in used and d2(x) and row_of((w, x))]
            else:
                images = [(vmap[y], row_of, u_first)
                          for y, row_of, u_first in anchors]
                cm = []
                for x in nbrs:
                    if x in used or not d2(x):
                        continue
                    for y, row_of, u_first in images:
                        if not row_of((x, y) if u_first else (y, x)):
                            break
                    else:
                        cm.append(x)
            if best is None or len(cm) < len(best):
                best, best_u, best_child = cm, u, child
                if not cm:
                    break
        explore = self._explore
        total = failing = 0
        for x in best:
            vmap[best_u] = x
            used.add(x)
            count, below = explore(best_child)
            used.discard(x)
            if count:
                total += count
            else:
                failing |= below
        return (total, 0) if total else (0, failing)
