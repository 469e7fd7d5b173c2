"""Interest-aware event routing for the multi-query service.

Every matching engine stores an edge only when its endpoint labels can
match some query edge (``relevant_label_pairs``, the admission of
``MatchEngine._window_graph``).  Answering ``[]`` to any other event
still costs one engine dispatch per (event, query) pair, so a service
hosting N mostly-disjoint queries would pay O(N) per event for work
that is almost entirely "not interested".

:class:`QueryInterestIndex` lifts the same decision one layer up (its
keys, projected onto endpoint labels, are those pairs: it never routes
an edge an engine would not admit).  It maps
interned ``(src_label, dst_label, edge_label)`` keys — the label triple
of a data edge — to the set of query ids whose query graph contains an
edge that triple could match.  The index is maintained incrementally on
register/unregister, and the service consults it once per event: only
interested engines are dispatched, everything else is counted as
*skipped* without touching the engine, its timers, or its
error-isolation bookkeeping.

Skipping is output-preserving by construction: a data edge whose label
triple matches no query edge of ``q`` can never appear in an embedding
of ``q`` (labels are preserved by Definition II.3), so the engine call
it replaces was guaranteed to return no matches.  The skip decision for
a query depends only on that query's own registration data (its query
graph, its data labels, its ``edge_label_fn``), never on the other
registered queries — which is what lets the sharded service reuse the
exact same decisions, from the same index class, in its coordinator
(which shards get an edge) and inside every worker (which engines do),
regardless of how queries are placed.

Label domains
-------------
Each registered query carries its *own* vertex-label mapping (the
service API allows different queries to label the shared stream
differently).  Queries whose ``(labels, edge_label_fn)`` pair compares
equal share one **domain**; the index resolves an event's label triple
once per domain, not once per query.  In the common case — every query
registered with the same stream labels — there is exactly one domain
and a lookup is a couple of dict probes.

Conservative fallbacks (each behaves exactly as dispatching the event
to every engine would):

* custom-factory queries are *always interested* — a duck-typed engine
  may not interpret the query's labels the way the stock engines do;
* an event endpoint missing from a domain's label mapping routes to all
  of that domain's queries (the engines raise ``KeyError`` exactly as
  they would without pruning, and are quarantined the same way);
* a query edge with no edge label matches any data edge, so its pattern
  lives in a wildcard table keyed by the endpoint-label pair alone;
* a raising ``edge_label_fn`` routes the event to its whole domain, so
  the exception happens inside each engine's per-query isolation
  boundary (quarantine), never inside the lookup.

One behavioural nuance of pruning: an engine that is never dispatched
cannot fail, so a query whose engine (or ``edge_label_fn``) raises only
on certain events is quarantined at its first *interesting* such event
— a service without the index would quarantine it earlier, on an event
the index skips.  The match output is unaffected either way.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery

#: Sentinel for "this vertex has no label in the domain's mapping".
_MISSING = object()


def query_pattern_keys(query: TemporalQuery) -> FrozenSet[Tuple]:
    """The interned ``(src_label, dst_label, edge_label)`` keys of every
    data edge ``query`` could possibly match.

    Undirected queries admit both endpoint orders.  An unlabeled query
    edge contributes a key with ``None`` in the edge-label slot (the
    wildcard).  The interest index's keys for the query.
    """
    keys: Set[Tuple] = set()
    for meta in query.edge_meta():
        keys.add((meta.label_u, meta.label_v, meta.edge_label))
        if not query.directed:
            keys.add((meta.label_v, meta.label_u, meta.edge_label))
    return frozenset(keys)


def _same_fn(a: Optional[Callable], b: Optional[Callable]) -> bool:
    """Equality for edge-label functions (bound methods like
    ``some_dict.get`` compare equal across lookups; plain functions
    fall back to identity)."""
    if a is b:
        return True
    if a is None or b is None:
        return False
    try:
        return bool(a == b)
    except Exception:  # noqa: BLE001 - exotic callables: identity only
        return False


class _Domain:
    """One ``(labels, edge_label_fn)`` group of indexable queries."""

    __slots__ = ("labels", "edge_label_fn", "exact", "wild", "members")

    def __init__(self, labels: Dict[int, object],
                 edge_label_fn: Optional[Callable]):
        self.labels = labels
        self.edge_label_fn = edge_label_fn
        #: (src_label, dst_label, edge_label) -> ordered query-id set.
        self.exact: Dict[Tuple, Dict[str, None]] = {}
        #: (src_label, dst_label) -> ordered query-id set (wildcards).
        self.wild: Dict[Tuple, Dict[str, None]] = {}
        #: Every query id in the domain, in registration order.
        self.members: Dict[str, None] = {}

    def add(self, query_id: str, keys: FrozenSet[Tuple]) -> None:
        self.members[query_id] = None
        for src, dst, elabel in keys:
            table = self.wild if elabel is None else self.exact
            key = (src, dst) if elabel is None else (src, dst, elabel)
            table.setdefault(key, {})[query_id] = None

    def remove(self, query_id: str, keys: FrozenSet[Tuple]) -> None:
        self.members.pop(query_id, None)
        for src, dst, elabel in keys:
            table = self.wild if elabel is None else self.exact
            key = (src, dst) if elabel is None else (src, dst, elabel)
            bucket = table.get(key)
            if bucket is not None:
                bucket.pop(query_id, None)
                if not bucket:
                    del table[key]

    def interested(self, edge: Edge) -> List[Dict[str, None]]:
        """The id buckets interested in ``edge`` (possibly empty)."""
        labels = self.labels
        src = labels.get(edge.u, _MISSING)
        dst = labels.get(edge.v, _MISSING)
        if src is _MISSING or dst is _MISSING:
            # Unknown endpoint: offer it to the whole domain so engines
            # fail (KeyError -> quarantine) exactly as without routing.
            return [self.members]
        out: List[Dict[str, None]] = []
        bucket = self.wild.get((src, dst))
        if bucket:
            out.append(bucket)
        if self.exact:
            fn = self.edge_label_fn
            if fn is None:
                elabel = None
            else:
                try:
                    elabel = fn(edge)
                except Exception:  # noqa: BLE001 - user callable
                    # A raising edge_label_fn must not abort the whole
                    # ingest: route to the domain so each engine hits
                    # the same exception inside the per-query isolation
                    # boundary, quarantining only itself.
                    return [self.members]
            if elabel is not None:
                bucket = self.exact.get((src, dst, elabel))
                if bucket:
                    out.append(bucket)
        return out


class QueryInterestIndex:
    """Incremental map from event label triples to interested queries.

    Owned by the :class:`~repro.service.registry.QueryRegistry` so that
    every membership change (live registration, checkpoint restore,
    mid-callback unregister) flows through one choke point.
    """

    def __init__(self):
        self._domains: List[_Domain] = []
        #: Queries routed unconditionally (custom engine factories).
        self._always: Dict[str, None] = {}
        #: query id -> (domain or None, pattern keys) for removal.
        self._placed: Dict[str, Tuple[Optional[_Domain], FrozenSet]] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, query_id: str, query: TemporalQuery,
            labels: Dict[int, object],
            edge_label_fn: Optional[Callable] = None, *,
            indexable: bool = True) -> None:
        """Index ``query_id``; un-indexable queries join the
        always-interested set."""
        if not indexable:
            self._always[query_id] = None
            self._placed[query_id] = (None, frozenset())
            return
        keys = query_pattern_keys(query)
        domain = None
        for candidate in self._domains:
            if (_same_fn(candidate.edge_label_fn, edge_label_fn)
                    and candidate.labels == labels):
                domain = candidate
                break
        if domain is None:
            domain = _Domain(labels, edge_label_fn)
            self._domains.append(domain)
        domain.add(query_id, keys)
        self._placed[query_id] = (domain, keys)

    def remove(self, query_id: str) -> None:
        """Drop ``query_id`` from the index (no-op if absent)."""
        placed = self._placed.pop(query_id, None)
        if placed is None:
            return
        domain, keys = placed
        if domain is None:
            self._always.pop(query_id, None)
            return
        domain.remove(query_id, keys)
        if not domain.members:
            self._domains.remove(domain)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._placed

    def __len__(self) -> int:
        return len(self._placed)

    # ------------------------------------------------------------------
    # Lookup (the per-event hot path)
    # ------------------------------------------------------------------
    def lookup_ids(self, edge: Edge):
        """A membership-testable collection of the query ids interested
        in ``edge`` events (its arrival and its expiration resolve to
        the same key, so skip decisions are arrival/expiration
        consistent).

        Single-bucket lookups return the internal ordered set without
        copying; callers must only test membership / iterate.
        """
        always = self._always
        buckets: List[Dict[str, None]] = [always] if always else []
        for domain in self._domains:
            buckets.extend(domain.interested(edge))
        if not buckets:
            return ()
        if len(buckets) == 1:
            return buckets[0]
        merged: Dict[str, None] = {}
        for bucket in buckets:
            merged.update(bucket)
        return merged

    def window_of(self, query_id: str, joined_seq: int,
                  live: Iterable[Tuple[Edge, int]], delta: int,
                  now: Optional[int]) -> Tuple[Tuple[Edge, int], ...]:
        """The ``(edge, arrival seq)`` pairs of ``live`` inside
        ``query_id``'s engine window at clock ``now``: arrivals at or
        after its join cursor, still open, that this index routes to
        it.  Interest depends only on the query's own registration, so
        a hosting service and a routing coordinator cut the same pairs."""
        lookup = self.lookup_ids
        return tuple((edge, seq) for edge, seq in live
                     if seq >= joined_seq
                     and (now is None or edge.t + delta > now)
                     and query_id in lookup(edge))


__all__ = ["QueryInterestIndex", "query_pattern_keys"]
