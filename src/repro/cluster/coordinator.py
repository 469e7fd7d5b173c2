"""The sharded multi-process continuous matching service.

``ShardedMatchService`` scales the PR-1 :class:`~repro.service.
MatchService` across CPU cores — the parallelization the paper names as
future work, applied to the *service* deployment model rather than the
offline batch benchmarks.  N persistent worker processes each host a
full ``MatchService`` over a shard of the registered queries; the
coordinator ships each chronological event batch to the workers that
need it and merges the per-shard results back into global event order.

There is one data path.  Shipping is *interest-routed*: the coordinator
keeps one :class:`~repro.service.interest.QueryInterestIndex` over the
registrations it holds — the class, and so the decision, every worker's
service fans out with — and splits each batch per shard through the
placement: an edge travels only to the shards
hosting a query whose label patterns could match it, a shard with no
interesting arrivals gets a bare clock-advance frame when one of its
queries holds an edge of the coordinator's window falling due, and a
fully disinterested shard is not contacted at all (counted in
``events_unshipped``).  Sub-batches carry explicit
global sequence numbers and the batch's closing cursor, which is what
keeps the arrival-order merge exact even though workers see different
subsets of the stream.  Sub-batches, the tickets queries reach workers
by and packable replies travel as the packed binary frames of
:mod:`repro.cluster.wire` (edge fields must therefore be int64:
:class:`~repro.cluster.wire.UnpackableEdgeError`); control verbs and
unpackable replies are pickled.  Workers feed each sub-batch to their
engines through ``on_batch``.

Consistency model
-----------------
The stream cursor (``now``, ``seq``) is the coordinator's.  Every
frame says what it needs of it: a routed pair carries its global
sequence number, a sub-batch the full batch's closing cursor, a ticket
the join cursor of its query — so a query registered mid-stream joins
at the same global sequence number it would have joined in a
single-process service, on whichever worker, however far that worker's
own position lags.  Per-query occurrence and
expiration multisets are therefore *identical* to the in-process
service, and merged notifications are re-ordered exactly as a single
service would have emitted them, using the total event order
``(event time, kind, arrival seq)`` with the coordinator's global
registration order breaking ties within one event.

Isolation layers
----------------
* engine/per-query failure: quarantined inside the owning worker's
  service (exact single-process contract), surfaced on the next reply;
* subscriber failure: subscribers run coordinator-side; a failing
  callback quarantines its query here *and* in the owning worker.
  Delivery happens after a batch's replies are merged, so this
  isolation is batch-granular, and a register/unregister issued from
  *inside* a subscriber callback takes effect at the batch boundary
  (a callback-registered query first sees the *next* batch) — the
  single-process service's rule too;
* worker crash: a broken pipe quarantines the whole shard — its
  queries flip to errored with a crash message, the remaining shards
  keep serving, and new registrations route around the dead worker.
  With ``auto_recover=True`` (or an explicit
  :meth:`~ShardedMatchService.recover_quarantined` call) the stranded
  queries re-home onto healthy workers at the next batch boundary.

Elasticity
----------
The query↔shard assignment is live, not a registration-time constant:
:meth:`~ShardedMatchService.migrate` moves one query between workers
inside a batch boundary with byte-identical merged output (see
:mod:`repro.cluster.migration` for the protocol), :meth:`~
ShardedMatchService.rebalance` plans and executes migrations that even
out per-shard load, and :meth:`~ShardedMatchService.add_worker` /
:meth:`~ShardedMatchService.drain_worker` grow and gracefully shrink
the worker pool (shard split/merge) while the stream runs.

Lifecycle: the service owns OS processes, so call :meth:`close` (or use
it as a context manager) when done.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Tuple,
)

from repro.cluster import protocol, wire
from repro.cluster.migration import (
    DEFAULT_MAX_TAIL, MigrationManager, MigrationRecord,
)
from repro.cluster.placement import ShardPlacement
from repro.cluster.protocol import (
    QueryFinalState, RegisterSpec, Reply, make_exception,
)
from repro.cluster.worker import shard_worker_main
from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span, unpack_spans
from repro.query.temporal_query import TemporalQuery
from repro.service.interest import QueryInterestIndex, query_pattern_keys
from repro.service.registry import QueryStatus
from repro.service.service import (
    MatchNotification, Notifications, OutOfOrderError, validated_prefix,
)
from repro.service.stats import QueryStats, ServiceStats
from repro.streaming.driver import StreamResult


class WorkerCrashError(RuntimeError):
    """A shard worker died while handling a request."""


#: What losing a shard looks like from :meth:`ShardedMatchService.
#: _receive`: a dead pipe, or a reply that cannot be decoded.  Either
#: way nothing more can be trusted from that worker, and the caller
#: quarantines it and goes on reading the other shards' replies.
_SHARD_LOST = (EOFError, OSError, wire.FrameError, pickle.UnpicklingError)


@dataclass
class _QueryInfo:
    """Coordinator-side mirror of one registered query.  Its shard is
    the placement's to know, its registration order ``_queries``'."""

    query_id: str
    query: TemporalQuery
    labels: Dict[int, object]
    engine_kind: str
    custom_factory: bool
    collect_results: bool
    #: The registration-time engine argument (kind string or callable
    #: factory) and label fn, kept so a migration ticket can carry the
    #: full re-registration spec to the target worker.
    engine_obj: object = "tcm"
    edge_label_fn: Optional[Callable] = None
    subscribers: List[Callable] = field(default_factory=list)
    status: QueryStatus = QueryStatus.ACTIVE
    error: Optional[str] = None
    #: Global stream position it registered at: where its cut begins.
    joined_seq: int = 0
    #: Last :class:`QueryStats` fetched from the owning worker.  When
    #: the worker later crashes, stats calls fall back to this cache,
    #: so counters accumulated before the crash (engine time, matches,
    #: events) survive the quarantine instead of resetting to zero.
    last_stats: Optional[QueryStats] = None

    @property
    def active(self) -> bool:
        return self.status is QueryStatus.ACTIVE


@dataclass
class ShardedQueryEntry:
    """A query's externally visible state (returned by unregister/get)."""

    query_id: str
    query: TemporalQuery
    labels: Dict[int, object]
    engine_kind: str
    shard: int
    status: QueryStatus
    error: Optional[str]
    stats: QueryStats
    result: Optional[StreamResult]

    @property
    def active(self) -> bool:
        return self.status is QueryStatus.ACTIVE


@dataclass
class _WorkerHandle:
    index: int
    process: object
    conn: object
    alive: bool = True
    #: True after a graceful :meth:`ShardedMatchService.drain_worker`
    #: (planned scale-down, not a crash — health stays "ok").
    retired: bool = False


def _pick_context(start_method: Optional[str]):
    """Fork when available: child processes inherit the parent's modules,
    so callable engine factories and ``edge_label_fn`` closures defined
    anywhere importable-by-reference keep working across the pipe."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


class ShardedMatchService:
    """Hosts N continuous queries across ``workers`` shard processes.

    Mirrors the :class:`~repro.service.MatchService` surface —
    ``register`` / ``unregister`` / ``subscribe`` / ``ingest`` /
    ``advance_to`` / ``drain`` / ``query_stats`` — plus cluster
    operations (``live_workers``, ``shard_of``, ``close``).  Engine
    kinds are resolved inside the workers; callable factories and
    ``edge_label_fn`` must be picklable.
    """

    def __init__(self, delta: int, *, workers: int = 2,
                 start_method: Optional[str] = None,
                 placement: str = "least_loaded", metrics=None,
                 tracer=None, auto_recover: bool = False):
        if delta <= 0:
            raise ValueError("window size delta must be positive")
        if workers < 1:
            raise ValueError("need at least one worker")
        self.delta = delta
        #: Optional :class:`~repro.obs.Tracer`.  When set, every ingest
        #: batch opens a ``cluster_ingest`` root span with
        #: route/ship/exchange/merge children, workers trace their own
        #: dispatch (context rides the existing request frames, spans
        #: return packed inside ``Reply.metrics``), and adopted worker
        #: spans land here under per-shard display tracks.  ``None``
        #: (the default) keeps every frame byte-identical to the
        #: untraced wire.
        self.tracer = tracer
        #: Optional :class:`~repro.obs.MetricsRegistry`.  When set, the
        #: coordinator instruments its RPC plane (per-shard wire bytes,
        #: round trips, worker busy time from the piggybacked reply
        #: deltas, merge/route latency, crashes) and each worker builds
        #: its own registry, shipped back whole on the STATS verb and
        #: merged by :meth:`metrics_snapshot` under ``shard=`` labels.
        #: ``None`` (the default) leaves every hot path untouched.
        self.metrics = metrics
        self.stats = ServiceStats()
        #: (event, shard) shipments the router elided entirely: edges
        #: never packed for an uninterested shard.  This is the
        #: cluster-only savings on top of ``stats.events_skipped``
        #: (which mirrors the per-query skips workers report for the
        #: events they did receive).
        self.events_unshipped = 0
        #: Per-shard breakdown of the routing decision (always
        #: maintained — they are the same int increments the global
        #: counters already pay): ``shard_shipped[i]``/
        #: ``shard_unshipped[i]`` count (event, shard) shipments made
        #: and elided for shard ``i``, ``shard_routed[i]``/
        #: ``shard_skipped[i]`` mirror the (event, query) routings and
        #: interest skips shard ``i`` reported on its replies.
        self.shard_shipped = [0] * workers
        self.shard_unshipped = [0] * workers
        self.shard_routed = [0] * workers
        self.shard_skipped = [0] * workers
        self._queries: Dict[str, _QueryInfo] = {}
        self._placement = ShardPlacement(workers, policy=placement)
        self._ids = itertools.count()
        self._now: Optional[int] = None
        self._seq = 0
        self._closed = False
        #: Interned query-id table (codes index _intern_names); a
        #: query's code reaches its worker on the query's ticket.
        self._intern_codes: Dict[str, int] = {}
        self._intern_names: List[str] = []
        #: Which registered queries an edge could match, decided from
        #: the registrations in ``_queries``; the placement turns the
        #: answer into shards.
        self._interest = QueryInterestIndex()
        #: ``MatchService._live`` for every accepted edge, but trimmed
        #: in :meth:`_at_boundary`: readers filter on ``t + delta > now``.
        #: Every ticket's window is cut from it, and its front decides
        #: which shards a batch owes a clock-advance frame.
        self._live: Deque[Tuple[Edge, int]] = deque()
        #: shard -> the cursor ``(seq, now)`` its worker was lost at (it
        #: moves once an exchange is collected, so: that exchange's base).
        self._lost_from: Dict[int, Tuple[int, Optional[int]]] = {}
        #: When True, queries stranded by a worker crash are re-homed
        #: onto healthy shards automatically at the next batch boundary
        #: (see :meth:`recover_quarantined` for the semantics).
        self.auto_recover = auto_recover
        self._migrations = MigrationManager(self)
        # Kept for add_worker(): new workers must spawn from the same
        # multiprocessing context as the original pool.
        self._ctx = _pick_context(start_method)
        self._workers: List[_WorkerHandle] = []
        for index in range(workers):
            self._spawn_worker(index)
        #: Pre-bound coordinator instruments (None when metrics are
        #: off); per-shard instruments are bound lazily on first touch.
        self._h_ingest = self._h_route = self._h_exchange = None
        self._h_merge = self._h_batch_events = self._g_inflight = None
        self._shard_obs: List[Optional[Tuple]] = [None] * workers
        if metrics is not None:
            from repro.obs import SIZE_BUCKETS
            self._g_inflight = metrics.gauge(
                "cluster_inflight_requests",
                "replies outstanding at the peak of the last exchange")
            self._h_ingest = metrics.histogram(
                "cluster_ingest_seconds",
                "coordinator wall-clock per ingest batch")
            self._h_route = metrics.histogram(
                "cluster_route_seconds",
                "coordinator time splitting a batch by shard interest")
            self._h_exchange = metrics.histogram(
                "cluster_exchange_seconds",
                "send-all/receive-all round trip per batch")
            self._h_merge = metrics.histogram(
                "cluster_merge_seconds",
                "merging per-shard replies into global event order")
            self._h_batch_events = metrics.histogram(
                "cluster_batch_events", "edges per coordinator batch",
                SIZE_BUCKETS)
            metrics.add_collector(self._export_metrics)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> Optional[int]:
        """The stream high-water mark (None before any edge)."""
        return self._now

    @property
    def seq(self) -> int:
        """Number of arrivals ingested so far (the join cursor)."""
        return self._seq

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def live_workers(self) -> int:
        return sum(1 for handle in self._workers if handle.alive)

    def shard_of(self, query_id: str) -> int:
        """The shard hosting ``query_id``."""
        self._get_info(query_id)
        return self._placement.shard_of(query_id)

    def registered_ids(self) -> List[str]:
        """All registered query ids in registration order."""
        return list(self._queries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._queries

    def __len__(self) -> int:
        return len(self._queries)

    # ------------------------------------------------------------------
    # Registration façade
    # ------------------------------------------------------------------
    def register(self, query: TemporalQuery, labels: Dict[int, object],
                 engine: object = "tcm", *,
                 query_id: Optional[str] = None,
                 edge_label_fn: Optional[Callable] = None,
                 subscriber: Optional[Callable] = None,
                 collect_results: bool = True) -> str:
        """Register a continuous query on the least-loaded live shard.

        Safe mid-stream: the query's ticket carries the global stream
        position as its join cursor (the owning worker's own position
        lags when the router has had nothing to send it).  Returns the
        query id.
        """
        self._ensure_open()
        spec = RegisterSpec(
            query_id=self._new_query_id(query_id), query=query,
            labels=dict(labels), engine=engine,
            edge_label_fn=edge_label_fn, collect_results=collect_results)
        info = self._register_spec(spec, subscriber=subscriber)
        self.stats.registered_total += 1
        return info.query_id

    def unregister(self, query_id: str) -> ShardedQueryEntry:
        """Retire a query mid-stream; returns its final entry (with
        stats and any worker-collected results).  A query stranded on a
        crashed shard is returned in its errored state (its counters
        died with the worker)."""
        if self._migrations.is_pending(query_id):
            self._migrations.finish(query_id)
        try:
            info = self._queries.pop(query_id)
        except KeyError:
            raise KeyError(f"no registered query {query_id!r}") from None
        shard = self._placement.remove(query_id)
        self._interest.remove(query_id)
        self.stats.unregistered_total += 1
        try:
            reply = self._request(shard, (protocol.UNREGISTER, query_id))
        except (WorkerCrashError, KeyError):
            # The worker is dead, or no longer hosts the query (it was
            # lost in a failed migration): answer from the mirror.
            return self._lost_entry(info, shard)
        final: QueryFinalState = reply.payload
        return ShardedQueryEntry(
            query_id, info.query, info.labels, info.engine_kind, shard,
            QueryStatus(final.status), final.error, final.stats,
            final.result)

    def subscribe(self, query_id: str,
                  callback: Callable[[MatchNotification], None]) -> None:
        """Attach ``callback`` to a query's merged result feed
        (subscribers run in the coordinator process)."""
        self._get_info(query_id).subscribers.append(callback)

    def get(self, query_id: str) -> ShardedQueryEntry:
        """A live view of one query (stats and results fetched from the
        owning worker; placeholders for queries lost to a crash).  A
        query whose staged migration is still in flight is landed on
        its target first."""
        if self._migrations.is_pending(query_id):
            self._migrations.finish(query_id)
        info = self._get_info(query_id)
        shard = self._placement.shard_of(query_id)
        try:
            reply = self._request(shard, (protocol.DESCRIBE, query_id))
        except WorkerCrashError:
            return self._lost_entry(info, shard)
        final: QueryFinalState = reply.payload
        info.last_stats = final.stats
        return ShardedQueryEntry(
            query_id, info.query, info.labels, info.engine_kind, shard,
            QueryStatus(final.status), final.error, final.stats,
            final.result)

    def query_stats(self, query_id: str) -> QueryStats:
        """The :class:`QueryStats` of one registered query.

        Ships only the counters over the pipe — unlike :meth:`get`,
        which also fetches the query's full collected
        :class:`StreamResult` (O(matches) to serialize), so this is the
        right call for periodic stats polling on a hot stream.

        Crash semantics: every successful fetch (here, :meth:`get`, or
        :meth:`all_query_stats`) caches the returned counters on the
        coordinator's mirror.  If the owning worker later crashes, this
        method keeps returning that last-known snapshot — engine
        ``elapsed_seconds``, match counts and event counts accumulated
        before the crash — with ``errors`` raised to at least 1, rather
        than a zeroed placeholder that would silently drop the
        quarantined shard's contribution from merged timing reports.
        """
        if self._migrations.is_pending(query_id):
            self._migrations.finish(query_id)
        info = self._get_info(query_id)
        try:
            reply = self._request(self._placement.shard_of(query_id),
                                  (protocol.QUERY_STATS, query_id))
        except WorkerCrashError:
            return self._lost_stats(info)
        info.last_stats = reply.payload
        return reply.payload

    def all_query_stats(self) -> List[QueryStats]:
        """Per-query stats for every registered query, in registration
        order (one stats fetch per live shard)."""
        replies = self._broadcast((protocol.STATS, None))
        by_query: Dict[str, QueryStats] = {}
        for reply in replies.values():
            per_query = reply.payload[1]
            by_query.update(per_query)
        out = []
        for info in self._queries.values():
            stats = by_query.get(info.query_id)
            if stats is None:
                stats = self._lost_stats(info)
            else:
                info.last_stats = stats
            out.append(stats)
        return out

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, edges: Iterable[Edge]) -> Notifications:
        """Ship one chronological batch to the shards that need it.

        The batch is split per shard on the coordinator's interest
        index: each interested shard receives only its sub-batch (plus
        the batch's closing cursor), shards with expirations due get an
        empty clock-advance frame, and fully disinterested shards are
        not contacted at all.

        The coordinator validates the batch *before* shipping, so
        shards never diverge.  An edge field that is not an int64
        raises :class:`~repro.cluster.wire.UnpackableEdgeError` with no
        counter, cursor, window or pipe touched: the batch was
        not ingested, and a corrected one can follow.  On an
        out-of-order edge the accepted prefix is processed everywhere
        and :class:`OutOfOrderError` is raised with the prefix's merged
        notifications, exactly like the in-process service.
        """
        self._ensure_open()
        edges = list(edges)
        wire.require_packable(edges)
        self._at_boundary()
        start = time.perf_counter()
        obs = self.metrics
        tracer = self.tracer
        root = maybe_span(tracer, "cluster_ingest",
                          events=len(edges)).__enter__()
        ctx = ((root.trace_id, root.span_id) if tracer is not None
               else None)
        try:
            prefix, failure = validated_prefix(edges, self._now)
            notifications = Notifications()
            if prefix:
                # Queries paused mid-migration buffer their share of
                # the batch for replay at finish.
                self._migrations.buffer(prefix, self._seq)
                route_start = time.perf_counter() if obs is not None else 0.0
                with maybe_span(tracer, "route", parent=root):
                    messages = self._route_batch(prefix, prefix[-1].t,
                                                 ctx)
                if obs is not None:
                    self._h_route.observe(time.perf_counter() - route_start)
                replies = self._exchange(messages, parent=root)
                notifications = self._collect(replies, parent=root)
                self._live.extend(zip(prefix, itertools.count(self._seq)))
                self._now = prefix[-1].t
                self._seq += len(prefix)
                self.stats.edges_ingested += len(prefix)
            self._deliver(notifications)
        finally:
            root.__exit__(None, None, None)
            spent = time.perf_counter() - start
            self.stats.batches += 1
            self.stats.elapsed_seconds += spent
            if obs is not None:
                self._h_ingest.observe(spent)
                self._h_batch_events.observe(len(edges))
        if failure is not None:
            raise OutOfOrderError(failure, notifications)
        return notifications

    def _route_batch(self, prefix: List[Edge], final_now: int,
                     ctx: Optional[Tuple[int, int]] = None
                     ) -> Dict[int, bytes]:
        """Split ``prefix`` into per-shard frames by interest, each
        closing on the clock ``final_now``.

        An edge goes to the live shards the placement gives for the
        queries the interest index names — leaving out a query detached
        by a staged migration, whose share is buffered in the
        migration's tail instead; uninterested (edge, shard) pairs are
        counted in ``events_unshipped`` and never serialized.  A shard
        whose sub-batch is empty still gets a clock-advance frame when
        one of its queries holds an edge expiring by ``final_now`` — an
        edge at the front of ``_live`` (:meth:`_at_boundary` trimmed
        the ones before) that the query is routed, is not detached
        from, and arrived at or after its join cursor.  That keeps the
        expirations inside the same coordinator call (and therefore at
        the same position in the merged stream) as a single-process
        service would emit them.  An empty ``prefix`` is a pure clock
        advance (:meth:`advance_to`): only shards owed an expiration
        are contacted.
        """
        base_seq = self._seq
        final_seq = base_seq + len(prefix)
        delta = self.delta
        live = [handle.index for handle in self._workers if handle.alive]
        pairs: Dict[int, List[Tuple[Edge, int]]] = {s: [] for s in live}
        lookup = self._interest.lookup_ids
        shard_of = self._placement.shard_of
        detached = self._migrations.is_pending
        for offset, edge in enumerate(prefix):
            seq = base_seq + offset
            interested = {shard_of(query_id) for query_id in lookup(edge)
                          if not detached(query_id)}
            for shard in live:
                if shard in interested:
                    pairs[shard].append((edge, seq))
                    self.shard_shipped[shard] += 1
                else:
                    self.events_unshipped += 1
                    self.shard_unshipped[shard] += 1
        # Only ``_live`` is scanned: an edge of this batch falling due
        # was shipped to its holders, which are therefore not idle.
        idle = {shard for shard in live if not pairs[shard]}
        queries = self._queries
        for edge, seq in self._live:
            if not idle or edge.t + delta > final_now:
                break
            for query_id in lookup(edge):
                if (not detached(query_id)
                        and queries[query_id].joined_seq <= seq):
                    idle.discard(shard_of(query_id))
        return {shard: wire.encode_routed(sub_batch, final_now, final_seq,
                                          trace=ctx)
                for shard, sub_batch in pairs.items() if shard not in idle}

    def process_batch(self, edges: Iterable[Edge]) -> Notifications:
        """API parity with :meth:`MatchService.process_batch`: the
        coordinator's :meth:`ingest` is already batch-granular (one
        exchange per batch; workers feed engines through ``on_batch``)."""
        return self.ingest(edges)

    def advance_to(self, t: int) -> Notifications:
        """Advance the clock to ``t`` without ingesting edges, expiring
        every edge whose window has closed: an empty batch with a later
        clock, so only shards with expirations due are contacted."""
        self._ensure_open()
        self._at_boundary()
        start = time.perf_counter()
        t = t if self._now is None else max(t, self._now)
        with maybe_span(self.tracer, "cluster_advance") as root:
            ctx = ((root.trace_id, root.span_id)
                   if self.tracer is not None else None)
            notifications = self._collect(
                self._exchange(self._route_batch([], t, ctx),
                               parent=root), parent=root)
        self._now = t
        self._deliver(notifications)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return notifications

    def drain(self) -> Notifications:
        """Expire every remaining live edge (end of stream); like the
        in-process service, the arrival cursor is left untouched."""
        self._ensure_open()
        self._at_boundary()
        # Staged migrations must flush their private windows entirely
        # at finish — the cluster-wide windows empty here.
        self._migrations.note_drain()
        start = time.perf_counter()
        with maybe_span(self.tracer, "cluster_drain") as root:
            message = self._control_message(protocol.DRAIN, None, root)
            notifications = self._collect(
                self._broadcast(message, parent=root), parent=root)
        self._live.clear()
        self._deliver(notifications)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return notifications

    # ------------------------------------------------------------------
    # Elastic operations (live migration + resharding)
    # ------------------------------------------------------------------
    def migrate(self, query_id: str, target: Optional[int] = None, *,
                reason: str = "manual") -> MigrationRecord:
        """Move one query to another worker inside the current batch
        boundary.  ``target`` defaults to the placement policy's pick.
        The merged notification stream is byte-identical to a
        never-migrated run (see :mod:`repro.cluster.migration`)."""
        self._ensure_open()
        return self._migrations.migrate(query_id, target, reason=reason)

    def begin_migrate(self, query_id: str,
                      target: Optional[int] = None, *,
                      max_tail: int = DEFAULT_MAX_TAIL,
                      reason: str = "staged") -> int:
        """Start a staged migration: detach the query now, buffer its
        routed events (bounded by ``max_tail``), restore later via
        :meth:`finish_migrate`.  Returns the planned target shard."""
        self._ensure_open()
        return self._migrations.begin(query_id, target,
                                      max_tail=max_tail, reason=reason)

    def finish_migrate(self, query_id: str) -> Notifications:
        """Complete a staged migration; returns the tail-replay
        notifications (already delivered to subscribers)."""
        self._ensure_open()
        return self._migrations.finish(query_id)

    def rebalance(self, *, tolerance: float = 0.1,
                  max_moves: Optional[int] = None,
                  signal: str = "events") -> List[MigrationRecord]:
        """Even out per-shard load by migrating queries off hot
        workers (load signal: per-query events processed, or engine
        busy-seconds with ``signal="busy"``).  Returns the completed
        migration records — empty when the cluster is already within
        ``tolerance`` of balanced."""
        self._ensure_open()
        return self._migrations.rebalance(
            tolerance=tolerance, max_moves=max_moves, signal=signal)

    def recover_quarantined(self, shard: Optional[int] = None
                            ) -> List[MigrationRecord]:
        """Re-home the queries stranded on crashed workers onto healthy
        shards (all quarantined shards, or just ``shard``), each with
        its window and the events it missed; queries the crash errored
        flip back to active.  What a late call loses: :meth:`~repro.
        cluster.migration.MigrationManager.recover`."""
        self._ensure_open()
        return self._migrations.recover(shard)

    def add_worker(self) -> int:
        """Grow the cluster by one empty live worker (shard split);
        returns the new shard index.  The worker immediately becomes
        the least-loaded placement target, and :meth:`rebalance` will
        start moving load onto it; it learns the stream cursor from the
        first frame it is sent (a ticket's join cursor, a sub-batch's
        closing one)."""
        self._ensure_open()
        index = len(self._workers)
        self._spawn_worker(index)
        self.shard_shipped.append(0)
        self.shard_unshipped.append(0)
        self.shard_routed.append(0)
        self.shard_skipped.append(0)
        self._shard_obs.append(None)
        self._placement.add_shard()
        return index

    def drain_worker(self, shard: int) -> List[MigrationRecord]:
        """Gracefully retire one worker (shard merge / scale-down):
        migrate every query it hosts onto the remaining live shards,
        stop the process, and take the shard out of placement for good.
        Unlike a crash quarantine, a retired shard does not degrade
        :meth:`health`.  Returns the drain migrations' records."""
        self._ensure_open()
        if not 0 <= shard < len(self._workers):
            raise KeyError(f"no shard {shard}")
        handle = self._workers[shard]
        if not handle.alive:
            raise ValueError(f"shard {shard} is not live")
        # Staged migrations may target (or source from) this shard;
        # land them first so the member list below is final.
        self._migrations.finish_all()
        hosted = self._placement.members(shard)
        others = [s for s in self._placement.live_shards() if s != shard]
        if hosted and not others:
            raise RuntimeError(
                f"cannot drain shard {shard}: it is the last live "
                f"worker and still hosts {len(hosted)} queries")
        records = [self._migrations.migrate(query_id, reason="drain")
                   for query_id in hosted]
        self._stop_worker(handle)
        handle.retired = True
        self._placement.retire(shard)
        return records

    @property
    def migration_history(self) -> List[MigrationRecord]:
        """Every completed migration, in completion order."""
        return list(self._migrations.history)

    def migration_state(self) -> Dict[str, object]:
        """A JSON-ready view of in-flight and completed migrations
        (served on ``/varz`` and in the CLI report)."""
        return self._migrations.state()

    def placement_snapshot(self) -> Dict[str, object]:
        """The live placement map: policy, per-query shard assignment,
        and per-shard status/membership."""
        placement = self._placement
        shards = {}
        for handle in self._workers:
            shard = handle.index
            shards[str(shard)] = {
                "alive": handle.alive,
                "retired": handle.retired,
                "quarantined": placement.is_quarantined(shard),
                "queries": placement.members(shard),
            }
        return {
            "policy": placement.policy,
            "workers": len(self._workers),
            "assignments": {query_id: placement.shard_of(query_id)
                            for query_id in self._queries},
            "shards": shards,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop and reap every worker process.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            self._stop_worker(handle)

    def _stop_worker(self, handle: _WorkerHandle) -> None:
        """Ask one worker to stop, reap its process and close its pipe.
        Every wait is bounded: a wedged worker must not hang the caller
        (terminate reaps it regardless).  A worker that already died
        gets only the reaping."""
        if handle.alive:
            try:
                handle.conn.send((protocol.STOP, None))
                if handle.conn.poll(timeout=5):
                    # The ack says nothing; whatever is in the pipe is
                    # read and dropped, never unpickled.
                    handle.conn.recv_bytes()
            except (OSError, EOFError):
                pass
        handle.process.join(timeout=5)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1)
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.alive = False

    def __enter__(self) -> "ShardedMatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """The cluster-wide metrics snapshot: the coordinator's own
        registry merged with every live worker's registry, the latter
        under ``shard="N"`` labels (so one query's engine-time
        histogram is distinguishable per hosting shard).  Fetched over
        the existing STATS verb — one round trip per live shard.
        Returns ``{}`` when metrics are off."""
        if self.metrics is None:
            return {}
        replies = self._broadcast((protocol.STATS, None))
        snap = self.metrics.snapshot()
        from repro.obs import merge_snapshots
        for shard, reply in replies.items():
            merge_snapshots(snap, reply.payload[2], shard=str(shard))
        return snap

    def health(self) -> Dict[str, object]:
        """Per-shard liveness summary, answered from the coordinator's
        own mirror — no worker round trips, so the admin server's
        thread can call it concurrently with a live ingest
        (:class:`repro.obs.server.AdminServer` wires it to
        ``/healthz``).  ``status`` is ``"ok"`` while every
        non-retired shard worker is alive, else ``"degraded"`` — a
        gracefully drained worker is planned downsizing, not an
        incident."""
        shards = []
        for handle in self._workers:
            hosted = [self._queries.get(query_id) for query_id
                      in self._placement.members(handle.index)]
            shards.append({"shard": handle.index,
                           "alive": handle.alive,
                           "retired": handle.retired,
                           "queries": len(hosted),
                           "errored_queries": sum(
                               1 for info in hosted
                               if info is not None and not info.active)})
        live = sum(1 for s in shards if s["alive"])
        retired = sum(1 for s in shards if s["retired"])
        degraded = any(not s["alive"] and not s["retired"]
                       for s in shards)
        return {"status": "degraded" if degraded else "ok",
                "workers": len(shards), "live_workers": live,
                "retired_workers": retired,
                "closed": self._closed, "shards": shards}

    def _export_metrics(self) -> None:
        """Snapshot-time collector: mirror the coordinator's plain
        counters into the registry (hot paths pay nothing for them)."""
        obs = self.metrics
        s = self.stats
        obs.counter("cluster_edges_ingested_total",
                    "edges accepted by the coordinator"
                    ).set_total(s.edges_ingested)
        obs.counter("cluster_batches_total",
                    "ingest batches shipped").set_total(s.batches)
        obs.counter("cluster_events_routed_total",
                    "(event, query) routings across all shards"
                    ).set_total(s.events_routed)
        obs.counter("cluster_events_skipped_total",
                    "(event, query) interest skips inside workers"
                    ).set_total(s.events_skipped)
        obs.counter("cluster_events_unshipped_total",
                    "(event, shard) shipments elided by the router"
                    ).set_total(self.events_unshipped)
        obs.counter("cluster_errored_queries_total",
                    "queries quarantined").set_total(s.errored_queries)
        obs.counter("cluster_elapsed_seconds_total",
                    "coordinator wall-clock across ingest/advance/drain"
                    ).set_total(s.elapsed_seconds)
        obs.gauge("cluster_live_workers",
                  "shard workers still serving").set(self.live_workers)
        obs.gauge("cluster_registered_queries",
                  "queries currently registered").set(len(self._queries))
        for shard in range(self.num_workers):
            label = str(shard)
            obs.counter("cluster_shard_shipped_total",
                        "(event, shard) shipments made to the shard",
                        shard=label).set_total(self.shard_shipped[shard])
            obs.counter("cluster_shard_unshipped_total",
                        "(event, shard) shipments elided for the shard",
                        shard=label).set_total(self.shard_unshipped[shard])
            obs.counter("cluster_shard_routed_total",
                        "(event, query) routings the shard reported",
                        shard=label).set_total(self.shard_routed[shard])
            obs.counter("cluster_shard_skipped_total",
                        "(event, query) interest skips the shard reported",
                        shard=label).set_total(self.shard_skipped[shard])
            obs.gauge("cluster_worker_alive",
                      "1 while the shard worker is serving",
                      shard=label).set(
                          1 if self._workers[shard].alive else 0)
            obs.gauge("cluster_worker_retired",
                      "1 after the shard was gracefully drained",
                      shard=label).set(
                          1 if self._workers[shard].retired else 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register_spec(self, spec: RegisterSpec,
                       subscriber: Optional[Callable] = None,
                       status: str = "active", error: Optional[str] = None,
                       stats: Optional[QueryStats] = None,
                       joined_seq: Optional[int] = None) -> _QueryInfo:
        """Place one spec and send it to its shard as a ticket; shared
        by live registration (active, fresh counters, joining at the
        global cursor) and checkpoint restore (the record's ``status``
        / ``error`` / ``stats`` / ``joined_seq``, its cut of ``_live``)."""
        query_id = spec.query_id
        custom = callable(spec.engine) and not isinstance(spec.engine, str)
        kind = (getattr(spec.engine, "__name__", "custom") if custom
                else str(spec.engine))
        info = _QueryInfo(
            query_id=query_id, query=spec.query,
            labels=dict(spec.labels), engine_kind=kind,
            custom_factory=custom, collect_results=spec.collect_results,
            engine_obj=spec.engine, edge_label_fn=spec.edge_label_fn,
            status=QueryStatus(status), error=error,
            joined_seq=self._seq if joined_seq is None else joined_seq)
        if subscriber is not None:
            info.subscribers.append(subscriber)
        if query_id not in self._intern_codes:
            self._intern_codes[query_id] = len(self._intern_names)
            self._intern_names.append(query_id)
        # Indexed first: the cut reads the index (undone if refused).
        self._interest.add(query_id, spec.query, info.labels,
                           spec.edge_label_fn, indexable=not custom)
        ticket = self._migrations.ticket(
            info, status, error,
            stats or QueryStats(query_id=query_id, engine=kind),
            window=(() if joined_seq is None else self._interest.window_of(
                query_id, joined_seq, self._live, self.delta, self._now)))
        shard = self._placement.place(
            query_id, interest=query_pattern_keys(spec.query))
        try:
            self._request(shard, wire.encode_migrate_in(ticket))
        except Exception:
            self._placement.remove(query_id)
            self._interest.remove(query_id)
            raise
        self._queries[query_id] = info
        return info

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def _at_boundary(self) -> None:
        """Top of every ``ingest`` / ``advance_to`` / ``drain``: the
        migration manager's housekeeping (recovery included), and only
        then ``_live`` is trimmed to the clock — a recovery still finds
        every edge that was live when the lost exchange began."""
        self._migrations.before_batch()
        live, delta, now = self._live, self.delta, self._now
        while live and live[0][0].t + delta <= now:
            live.popleft()

    def _get_info(self, query_id: str) -> _QueryInfo:
        try:
            return self._queries[query_id]
        except KeyError:
            raise KeyError(f"no registered query {query_id!r}") from None

    def _spawn_worker(self, index: int) -> None:
        """Start shard worker ``index`` and append its handle."""
        ctx = self._ctx
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, self.delta, self.metrics is not None,
                  self.tracer is not None),
            name=f"repro-shard-{index}", daemon=True)
        process.start()
        child_conn.close()
        self._workers.append(_WorkerHandle(index, process, parent_conn))

    def _new_query_id(self, query_id: Optional[str]) -> str:
        if query_id is None:
            query_id = f"q{next(self._ids)}"
            while query_id in self._queries:
                query_id = f"q{next(self._ids)}"
        elif query_id in self._queries:
            raise ValueError(f"query id {query_id!r} already registered")
        return query_id

    def _lost_entry(self, info: _QueryInfo,
                    shard: int) -> ShardedQueryEntry:
        return ShardedQueryEntry(
            info.query_id, info.query, info.labels, info.engine_kind,
            shard, QueryStatus.ERRORED,
            info.error or f"worker {shard} crashed",
            self._lost_stats(info), None)

    def _lost_stats(self, info: _QueryInfo) -> QueryStats:
        """Stats for a query whose worker is unreachable: the cached
        last-known counters when any fetch succeeded before the crash
        (with ``errors`` raised to at least 1 if the query is now
        quarantined — not incremented, since a worker-side quarantine
        may already be counted in the cache), else a zeroed
        placeholder."""
        penalty = 1 if not info.active else 0
        cached = info.last_stats
        if cached is not None:
            return replace(cached, errors=max(cached.errors, penalty))
        return QueryStats(query_id=info.query_id, engine=info.engine_kind,
                          errors=penalty)

    # -- RPC core ------------------------------------------------------
    def _shard_instruments(self, shard: int) -> Tuple:
        """Lazily bound per-shard instruments (metrics must be on):
        ``(busy histogram, edges counter, tx bytes, rx bytes,
        roundtrips)``."""
        cached = self._shard_obs[shard]
        if cached is None:
            obs = self.metrics
            label = str(shard)
            cached = self._shard_obs[shard] = (
                obs.histogram("cluster_worker_busy_seconds",
                              "worker-side dispatch time per request",
                              shard=label),
                obs.counter("cluster_worker_edges_total",
                            "edges ingested by the shard worker",
                            shard=label),
                obs.counter("cluster_tx_bytes_total",
                            "request bytes shipped to the shard",
                            shard=label),
                obs.counter("cluster_rx_bytes_total",
                            "reply bytes received from the shard",
                            shard=label),
                obs.counter("cluster_roundtrips_total",
                            "request/reply exchanges with the shard",
                            shard=label),
            )
        return cached

    def _post(self, handle: _WorkerHandle, message) -> None:
        """Ship one message (binary frames as raw bytes, everything
        else pickled).  With metrics on, control messages are pickled
        here instead of inside ``Connection.send`` — the worker's
        ``recv_bytes`` + sniff loop reads both identically — so the tx
        byte counter sees every request, not just binary frames."""
        if isinstance(message, bytes):
            data = message
        elif self.metrics is not None:
            data = pickle.dumps(message)
        else:
            handle.conn.send(message)
            return
        handle.conn.send_bytes(data)
        if self.metrics is not None:
            self._shard_instruments(handle.index)[2].inc(len(data))

    def _receive(self, handle: _WorkerHandle) -> Reply:
        """Read one reply, sniffing binary frames by magic prefix."""
        data = handle.conn.recv_bytes()
        if self.metrics is not None:
            self._shard_instruments(handle.index)[3].inc(len(data))
        if wire.is_reply_frame(data):
            return wire.decode_reply(data, self._intern_names)
        return pickle.loads(data)

    def _account(self, reply: Reply, shard: int) -> None:
        """Fold a reply's piggybacked bookkeeping into the mirror."""
        self._apply_errors(reply.errors)
        self.stats.events_routed += reply.routed
        self.stats.events_skipped += reply.skipped
        self.shard_routed[shard] += reply.routed
        self.shard_skipped[shard] += reply.skipped
        if self.metrics is not None:
            instruments = self._shard_instruments(shard)
            instruments[4].inc()
            if reply.metrics:
                # Positional deltas (see protocol.Reply.metrics):
                # worker busy nanoseconds, then edges ingested.
                instruments[0].observe(reply.metrics[0] / 1e9)
                if len(reply.metrics) > 1:
                    instruments[1].inc(reply.metrics[1])
        if self.tracer is not None and len(reply.metrics) > 2:
            # Packed worker spans ride from index 2; adopt them onto
            # the shard's display track.
            for span in unpack_spans(reply.metrics, 2):
                span.tid = shard + 1
                self.tracer.adopt(span)

    def _request(self, shard: int, message) -> Reply:
        """One request/reply exchange with one worker."""
        handle = self._workers[shard]
        if not handle.alive:
            raise WorkerCrashError(f"shard {shard} worker is dead")
        try:
            self._post(handle, message)
            reply = self._receive(handle)
        except _SHARD_LOST as exc:
            self._quarantine_shard(shard, exc)
            raise WorkerCrashError(
                f"shard {shard} worker died mid-request "
                f"({type(exc).__name__})") from exc
        self._account(reply, shard)
        if reply.failure is not None:
            raise make_exception(reply.failure)
        return reply

    def _exchange(self, messages: Dict[int, object],
                  parent=None) -> Dict[int, Reply]:
        """Send per-shard messages, then collect the replies.

        Sends complete before the first receive, so workers process
        their batches concurrently; a worker that dies at either step,
        or whose reply cannot be decoded, is quarantined and simply
        missing from the result — every other shard that was sent to
        is still read, so no reply is left in a pipe for the next
        exchange to mistake for its own.  ``parent``
        (a live span) nests an ``exchange`` span with a ``ship`` child
        around the send-all phase; control exchanges pass no parent and
        produce no spans.
        """
        obs = self.metrics
        tracer = self.tracer if parent is not None else None
        exchange_start = time.perf_counter() if obs is not None else 0.0
        span = maybe_span(tracer, "exchange", parent=parent,
                          shards=len(messages)).__enter__()
        ship = maybe_span(tracer, "ship", parent=span).__enter__()
        sent: List[_WorkerHandle] = []
        for shard, message in messages.items():
            handle = self._workers[shard]
            if not handle.alive:
                continue
            try:
                self._post(handle, message)
                sent.append(handle)
            except (OSError, BrokenPipeError) as exc:
                self._quarantine_shard(handle.index, exc)
        ship.__exit__(None, None, None)
        if obs is not None:
            # Peak pipe depth: replies outstanding once sends complete.
            self._g_inflight.set(len(sent))
        replies: Dict[int, Reply] = {}
        failure = None
        for handle in sent:
            try:
                reply = self._receive(handle)
            except _SHARD_LOST as exc:
                self._quarantine_shard(handle.index, exc)
                continue
            self._account(reply, handle.index)
            if reply.failure is not None:
                failure = failure or reply.failure
            else:
                replies[handle.index] = reply
        span.__exit__(None, None, None)
        if obs is not None:
            self._g_inflight.set(0)
            self._h_exchange.observe(time.perf_counter() - exchange_start)
        if failure is not None:
            raise make_exception(failure)
        return replies

    def _broadcast(self, message, parent=None) -> Dict[int, Reply]:
        """Send ``message`` to every live worker, then collect replies."""
        return self._exchange({handle.index: message
                               for handle in self._workers
                               if handle.alive}, parent=parent)

    def _control_message(self, verb: str, payload: object, root):
        """The pickled control tuple for ``verb``: a traced 3-tuple
        carrying ``(trace id, span id)`` only when ``root`` is a live
        span (not ``None``), so untraced control messages pickle
        byte-identically."""
        if self.tracer is not None and root is not None and root.span_id:
            return (verb, payload, (root.trace_id, root.span_id))
        return (verb, payload)

    def _quarantine_shard(self, shard: int, cause: BaseException) -> None:
        """A worker died: flip its shard and every query on it."""
        handle = self._workers[shard]
        if not handle.alive:
            return
        handle.alive = False
        self._lost_from[shard] = (self._seq, self._now)
        if self.metrics is not None:
            self.metrics.counter(
                "cluster_worker_crashes_total",
                "shard workers lost to a dead pipe",
                shard=str(shard)).inc()
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        for query_id in self._placement.quarantine(shard):
            info = self._queries.get(query_id)
            if info is None or not info.active:
                continue
            info.status = QueryStatus.ERRORED
            info.error = (f"worker {shard} crashed "
                          f"({type(cause).__name__})")
            self.stats.errored_queries += 1
        if self.auto_recover:
            # Deferred to the next batch boundary: quarantine can fire
            # mid-exchange, where re-homing would race the merge.
            self._migrations.needs_recovery = True

    def _apply_errors(self, errors: Tuple[Tuple[str, str], ...]) -> None:
        """Mirror worker-side quarantines announced on a reply."""
        for query_id, error in errors:
            info = self._queries.get(query_id)
            if info is None or not info.active:
                continue
            info.status = QueryStatus.ERRORED
            info.error = error
            self.stats.errored_queries += 1

    # -- merge + delivery ----------------------------------------------
    def _collect(self, replies: Dict[int, Reply],
                 parent=None) -> Notifications:
        """Merge per-shard runs into global event order."""
        obs = self.metrics
        tracer = self.tracer if parent is not None else None
        merge_start = time.perf_counter() if obs is not None else 0.0
        with maybe_span(tracer, "merge", parent=parent):
            runs = [run for reply in replies.values()
                    for run in reply.payload.runs]
            # A single shard's stream arrives in its worker's *local*
            # registry order; once a migration has landed anywhere that
            # order may disagree with global registration order, so the
            # sort can no longer be skipped even for one reply.
            if len(replies) > 1 or self._migrations.permuted:
                reg_index = {query_id: index for index, query_id
                             in enumerate(self._queries)}
                runs.sort(key=lambda run: (
                    run.event.time, run.event.is_arrival, run.seq,
                    reg_index.get(run.query_id, -1)))
        if obs is not None:
            self._h_merge.observe(time.perf_counter() - merge_start)
        return Notifications(runs)

    def _deliver(self, notifications: Notifications) -> None:
        """Run coordinator-side subscribers over the merged feed,
        building notifications only for a query that has some."""
        muted: set = set()
        for run in notifications.runs:
            info = self._queries.get(run.query_id)
            if info is None or not info.subscribers or run.query_id in muted:
                continue
            for notification in Notifications.built(run):
                try:
                    for callback in list(info.subscribers):
                        callback(notification)
                except Exception as exc:  # noqa: BLE001 - isolation
                    muted.add(run.query_id)
                    self._quarantine_query(info, exc)
                    break

    def _quarantine_query(self, info: _QueryInfo,
                          exc: BaseException) -> None:
        """A subscriber failed: quarantine here and in the worker."""
        if not info.active:
            return
        info.status = QueryStatus.ERRORED
        info.error = f"{type(exc).__name__}: {exc}"
        self.stats.errored_queries += 1
        try:
            self._request(self._placement.shard_of(info.query_id),
                          (protocol.QUARANTINE,
                           (info.query_id, info.error)))
        except (WorkerCrashError, KeyError):
            # Its worker is gone, or (unregistered from the failing
            # callback) the query is.
            pass
