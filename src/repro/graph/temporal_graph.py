"""Temporal multigraph with parallel edges (directed or undirected).

The data graph of the paper (Definition II.1) is an undirected,
vertex-labeled graph whose edges carry natural-number timestamps.  Two
vertices may be connected by many parallel edges, each with its own
timestamp; an edge is therefore identified by the triple ``(u, v, t)``.

Timestamps of parallel edges between a fixed pair of vertices arrive in
non-decreasing order when the graph is driven by a stream, but this class
does not assume that: insertion keeps each parallel-edge list sorted.

Storage layout (the engine hot path)
------------------------------------
Every adjacent vertex pair is *interned* to a dense integer pair id; the
parallel-edge timestamps of pair ``p`` live in ``_ts[p]``, a sorted
``array('q')`` row, and two indexes map to those ids — a CSR-style split
of the structure from the payload.  ``_adj[u][v]`` is flat, in the order
the pairs were linked: :meth:`neighbors` iterates it, and
``random_walk_query`` draws the ledger's queries in that order, so it
stays as it is.  ``_nbr[u][label(v)][v]`` keys the same pairs by the
neighbour's label (:meth:`neighbor_items`): every neighbour scan of the
TCM engine wants one label and iterates only it.  An undirected pair's
two entries point at the *same* row (one sorted insertion per parallel
edge); a directed graph keeps in-rows apart (``_radj`` / ``_rnbr``).
Both indexes change only when a row links (its first edge arrives) or
unlinks (its last one leaves), and an unlinked id is freed for the next
new pair, so the rows never outnumber the pairs ever live at once.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: Shared empty timestamp row returned for absent pairs (do not mutate).
_EMPTY_TS = array("q")

#: Shared empty map returned for absent vertices and labels (do not mutate).
_EMPTY_MAP: Dict[int, int] = {}


class Edge(NamedTuple):
    """An edge of a temporal graph: endpoints plus timestamp.

    A ``NamedTuple`` rather than a dataclass: edges are hashed and
    compared on every adjacency probe and backtracking step, and tuple
    hashing/comparison is implemented in C (the frozen-dataclass
    equivalents dispatch through generated Python methods).

    For undirected graphs, construct edges with :meth:`make`, which
    normalizes the endpoint order (``u <= v``) so the same physical edge
    always compares and hashes equal.  For directed graphs, construct
    with :meth:`make_directed`: the endpoints are kept as given and
    ``u`` is the source, ``v`` the destination.
    """

    u: int
    v: int
    t: int

    @staticmethod
    def make(u: int, v: int, t: int) -> "Edge":
        """Create an undirected edge with normalized endpoint order."""
        if u > v:
            u, v = v, u
        return Edge(u, v, t)

    @staticmethod
    def make_directed(src: int, dst: int, t: int) -> "Edge":
        """Create a directed edge ``src -> dst`` (no normalization)."""
        return Edge(src, dst, t)

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


class TemporalGraph:
    """A vertex-labeled temporal multigraph with timestamped edges.

    Vertices are integers; labels are arbitrary hashable values supplied by
    a labeling function or mapping at construction time.  Vertices exist in
    the graph only while they have at least one incident edge, matching the
    sliding-window semantics of the streaming problem: when all edges of a
    vertex expire the vertex effectively leaves the window.

    The adjacency indexes, ``_adj[v][w]`` and ``_nbr[v][label(w)][w]``,
    map to pair ids of the flat timestamp rows (see the module
    docstring), which supports the operations the matching algorithms
    need:

    * chronological enumeration of the parallel edges between two vertices,
    * O(log k) insertion/removal of a parallel edge (k = multiplicity),
    * counting parallel edges within a timestamp range.

    Two optional extensions (Section II of the paper notes both):

    * ``directed=True`` — edges are interpreted as ``Edge.u -> Edge.v``
      (build them with :meth:`Edge.make_directed`).  ``_adj`` / ``_nbr``
      then keep out-edges and mirrors ``_radj`` / ``_rnbr`` keep
      in-edges, so that
      :meth:`neighbors` still iterates all adjacent vertices while
      :meth:`timestamps_between`/:meth:`edges_between` become
      direction-sensitive (``u -> v`` only).
    * per-edge labels — pass ``label=`` to :meth:`insert_edge` and read
      back with :meth:`edge_label`.

    With a set of ``label_pairs`` the graph admits only edges whose
    ``(label(u), label(v))`` is in it (``MatchEngine._window_graph``).
    """

    def __init__(self, labels: Optional[Dict[int, object]] = None,
                 label_fn=None, directed: bool = False, label_pairs=None):
        if labels is not None and label_fn is not None:
            raise ValueError("pass either labels or label_fn, not both")
        self._labels = dict(labels) if labels is not None else None
        self._label_fn = label_fn
        self.directed = directed
        self.label_pairs = label_pairs
        # Linked pairs only: an emptied row's id waits in _free.
        self._pair_ids: Dict[Tuple[int, int], int] = {}
        self._ts: List[array] = []
        self._free: List[int] = []
        self._adj: Dict[int, Dict[int, int]] = {}
        self._radj: Dict[int, Dict[int, int]] = {}
        self._nbr: Dict[int, Dict[object, Dict[int, int]]] = {}
        self._rnbr: Dict[int, Dict[object, Dict[int, int]]] = {}
        self._edge_labels: Dict[Edge, object] = {}
        # Per-(edge label, pair id) timestamp rows so label-filtered
        # candidate enumeration needs no per-edge object construction.
        self._labeled: Dict[object, Dict[int, array]] = {}
        self._num_edges = 0
        self._bind_label()

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def _bind_label(self) -> None:
        """Shadow :meth:`label` with the underlying lookup callable.

        ``graph.label(v)`` is the single hottest call of the matching
        engines (every filter and candidate step reads labels), so when
        labeling information exists the method is replaced per-instance
        by the raw dict getter / labeling function — one call frame
        instead of two.
        """
        if self._labels is not None:
            self.label = self._labels.__getitem__
        elif self._label_fn is not None:
            self.label = self._label_fn

    def label(self, v: int) -> object:
        """Return the label of vertex ``v``.

        Labels must be defined for every vertex that ever appears; a
        missing label is a usage error and raises ``KeyError``.
        """
        raise KeyError(f"no labeling information for vertex {v}")

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("label", None)  # bound builtin; rebuilt on unpickle
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_label()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_edge(self, edge: Edge, label: object = None) -> bool:
        """Insert ``edge``; returns True if inserted, False if the exact
        ``(u, v, t)`` triple is already present (insertion is idempotent:
        a duplicate is a no-op, never a double-counted parallel edge) or
        its endpoint-label pair is not admitted (``label_pairs``).
        ``label`` optionally attaches an edge label."""
        u, v, t = edge.u, edge.v, edge.t
        if not self.directed and u > v:
            raise ValueError(
                f"undirected edges must be normalized (Edge.make): {edge}")
        pairs = self.label_pairs
        if pairs is not None and (self.label(u), self.label(v)) not in pairs:
            return False
        pid = self._pair_ids.get((u, v))
        if pid is None:
            pid = self._link(u, v)
            self._ts[pid].append(t)
        else:
            slot = self._ts[pid]
            idx = bisect_left(slot, t)
            if idx < len(slot) and slot[idx] == t:
                return False
            slot.insert(idx, t)
        if label is not None:
            self._edge_labels[edge] = label
            insort(self._labeled.setdefault(label, {})
                   .setdefault(pid, array("q")), t)
        self._num_edges += 1
        return True

    def remove_edge(self, edge: Edge) -> None:
        """Remove ``edge``; raises ``KeyError`` if absent."""
        if not self.discard_edge(edge):
            raise KeyError(f"edge ({edge.u},{edge.v},{edge.t}) not in graph")

    def discard_edge(self, edge: Edge) -> bool:
        """Remove ``edge`` if present; returns whether it was."""
        u, v, t = edge.u, edge.v, edge.t
        pid = self._pair_ids.get((u, v))
        if pid is None:
            return False
        slot = self._ts[pid]
        idx = bisect_left(slot, t)
        if idx >= len(slot) or slot[idx] != t:
            return False
        slot.pop(idx)
        label = self._edge_labels.pop(edge, None)
        if label is not None:
            rows = self._labeled[label]
            lslot = rows[pid]
            lslot.pop(bisect_left(lslot, t))
            if not lslot:
                del rows[pid]
                if not rows:
                    del self._labeled[label]
        if not slot:
            self._unlink(u, v, pid)
        self._num_edges -= 1
        return True

    def _link(self, u: int, v: int) -> int:
        """Intern the pair ``(u, v)`` whose first edge arrives (reusing a
        freed row) and enter it into both adjacency indexes."""
        ends = self._ends(u, v)     # a missing label raises here, first
        if self._free:
            pid = self._free.pop()
        else:
            pid = len(self._ts)
            self._ts.append(array("q"))
        self._pair_ids[(u, v)] = pid
        for flat, by_label, a, b, label in ends:
            flat.setdefault(a, {})[b] = pid
            by_label.setdefault(a, {}).setdefault(label, {})[b] = pid
        return pid

    def _unlink(self, u: int, v: int, pid: int) -> None:
        """Drop an emptied pair from both adjacency indexes and free its
        id (the empty row stays, for the next pair to reuse)."""
        del self._pair_ids[(u, v)]
        self._free.append(pid)
        for flat, by_label, a, b, label in self._ends(u, v):
            _drop(flat, a, b)
            _drop(by_label[a], label, b)
            if not by_label[a]:
                del by_label[a]

    def _ends(self, u: int, v: int) -> list:
        """The adjacency entries of the pair ``(u, v)``: ``(flat index,
        label index, vertex, neighbour, the neighbour's label)``."""
        ends = [(self._adj, self._nbr, u, v, self.label(v))]
        if self.directed:
            ends.append((self._radj, self._rnbr, v, u, self.label(u)))
        elif u != v:
            ends.append((self._adj, self._nbr, v, u, self.label(u)))
        return ends

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_vertex(self, v: int) -> bool:
        """True if ``v`` currently has at least one incident edge."""
        return v in self._adj or v in self._radj

    def has_edge(self, edge: Edge) -> bool:
        """True if the exact edge (endpoints and timestamp) is present."""
        slot = self.timestamps_between(edge.u, edge.v)
        if not slot:
            return False
        idx = bisect_left(slot, edge.t)
        return idx < len(slot) and slot[idx] == edge.t

    def vertices(self) -> Iterable[int]:
        """Iterate over vertices currently present (with incident edges)."""
        if not self.directed:
            return self._adj.keys()
        return self._adj.keys() | self._radj.keys()

    def num_vertices(self) -> int:
        """Number of vertices currently present."""
        if not self.directed:
            return len(self._adj)
        return len(self._adj.keys() | self._radj.keys())

    def num_edges(self) -> int:
        """Number of edges currently present (parallel edges counted)."""
        return self._num_edges

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v`` counting multiplicity
        (out- plus in-degree for directed graphs)."""
        ts = self._ts
        total = sum(len(ts[pid]) for pid in self._adj.get(v, {}).values())
        if self.directed:
            total += sum(len(ts[pid])
                         for pid in self._radj.get(v, {}).values())
        return total

    def neighbor_count(self, v: int) -> int:
        """Number of distinct neighbors of ``v`` (any direction)."""
        if not self.directed:
            return len(self._adj.get(v, {}))
        return len(self._adj.get(v, {}).keys()
                   | self._radj.get(v, {}).keys())

    def neighbors(self, v: int) -> Iterable[int]:
        """Iterate over the distinct neighbors of ``v``.

        For directed graphs this is the union of out- and in-neighbors:
        adjacency-driven exploration must see both sides.
        """
        if not self.directed:
            return self._adj.get(v, {}).keys()
        return self._adj.get(v, {}).keys() | self._radj.get(v, {}).keys()

    def neighbor_items(self, v: int, label: object,
                       incoming: bool = False) -> Dict[int, int]:
        """The neighbours ``w`` of ``v`` with vertex label ``label``,
        each mapped to the pair id of its parallel-edge row: the rows
        ``v -> w`` or, with ``incoming``, ``w -> v`` (the same rows when
        undirected).  :meth:`timestamp_rows` turns a pair id into its
        timestamps.  No row is empty.

        The map is internal state: callers must not mutate it, nor the
        graph while iterating it.
        """
        by_label = (self._rnbr if incoming and self.directed
                    else self._nbr).get(v)
        if by_label is None:
            return _EMPTY_MAP
        return by_label.get(label, _EMPTY_MAP)

    def timestamp_rows(self, edge_label: object = None):
        """Pair id -> sorted timestamps of a linked pair's parallel edges
        (the ids :meth:`neighbor_items` returns); with ``edge_label``
        only the edges carrying it, and None for a pair without one.
        The rows are internal state: callers must not mutate them."""
        if edge_label is None:
            return self._ts.__getitem__
        return self._labeled.get(edge_label, _EMPTY_MAP).get

    def edge_label(self, edge: Edge) -> object:
        """The label attached to ``edge`` at insertion, or None."""
        return self._edge_labels.get(edge)

    def timestamps_with_label(self, u: int, v: int,
                              label: object) -> array:
        """Sorted timestamps of the ``u``-``v`` parallel edges carrying
        ``label`` (direction-sensitive when directed).  Internal row;
        do not mutate."""
        if not self.directed and u > v:
            u, v = v, u
        pid = self._pair_ids.get((u, v))
        if pid is None:
            return _EMPTY_TS
        return self._labeled.get(label, {}).get(pid, _EMPTY_TS)

    def timestamps_between(self, u: int, v: int) -> array:
        """Sorted timestamps of the parallel edges between ``u`` and ``v``
        (direction-sensitive ``u -> v`` when the graph is directed).

        Returns the internal flat row (callers must not mutate it); an
        empty row if the vertices are not adjacent.
        """
        nbrs = self._adj.get(u)
        if nbrs is None:
            return _EMPTY_TS
        pid = nbrs.get(v)
        if pid is None:
            return _EMPTY_TS
        return self._ts[pid]

    def edges_between(self, u: int, v: int) -> List[Edge]:
        """All parallel edges between ``u`` and ``v`` in chronological
        order (``u -> v`` only when directed)."""
        if self.directed:
            return [Edge(u, v, t) for t in self.timestamps_between(u, v)]
        if u > v:
            u, v = v, u
        return [Edge(u, v, t) for t in self.timestamps_between(u, v)]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (each edge exactly once)."""
        ts = self._ts
        for u, nbrs in self._adj.items():
            for v, pid in nbrs.items():
                if self.directed or u <= v:
                    for t in ts[pid]:
                        yield Edge(u, v, t)

    def count_between_after(self, u: int, v: int, t: int) -> int:
        """Number of parallel (u, v) edges with timestamp strictly > t."""
        slot = self.timestamps_between(u, v)
        return len(slot) - bisect_left(slot, t + 1)

    def count_between_before(self, u: int, v: int, t: int) -> int:
        """Number of parallel (u, v) edges with timestamp strictly < t."""
        slot = self.timestamps_between(u, v)
        return bisect_left(slot, t)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def copy(self) -> "TemporalGraph":
        """Deep copy of the adjacency structure (labels shared)."""
        clone = TemporalGraph(labels=self._labels, label_fn=self._label_fn,
                              directed=self.directed,
                              label_pairs=self.label_pairs)
        for edge in self.edges():
            clone.insert_edge(edge, label=self._edge_labels.get(edge))
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TemporalGraph(|V|={self.num_vertices()}, "
                f"|E|={self.num_edges()})")



def _drop(index: dict, v: object, w: int) -> None:
    """Delete ``index[v][w]``, and ``index[v]`` once it is empty."""
    nbrs = index[v]
    del nbrs[w]
    if not nbrs:
        del index[v]
