"""The sharded multi-process continuous matching service.

``ShardedMatchService`` is the service front of :mod:`repro.service.
service` — one window, one cursor, one registry, the same per-call
rules and the same checkpoint — composed with a :class:`ShardedBackend`
that scales the dispatch across CPU cores, the parallelization the
paper names as future work, applied to the *service* deployment model.
N persistent worker processes each host a full ``MatchService`` over a
shard of the registered queries; the back-end ships each chronological
event batch to the workers that need it and merges the per-shard
results back into global event order.  The front's contract (order
validation, join cursor, batch-granular delivery, quarantine) is stated
once, in the service module.

Each fact about a shard has one owner: the placement (which shard
hosts which query, which shards are live), the transport (one record
per worker, the request/reply plane) or the migration manager.  This
module routes, merges, and quarantines a lost shard's queries.

There is one data path, interest-routed (:meth:`ShardedBackend.
_route_batch`): an edge travels only to the shards hosting a query the
front's :class:`~repro.service.interest.QueryInterestIndex` names for
it, and a shard nobody needs is not contacted (``events_unshipped``).
Sub-batches carry explicit global sequence numbers and the batch's
closing cursor, so every frame says what it needs of the front's
cursor however far a worker's own position lags; merged notifications
are re-ordered by ``(event time, kind, arrival seq)`` with global
registration order breaking ties within one event, so per-query output
is *identical* to the in-process service.  Sub-batches, tickets and
packable replies travel as the binary frames of
:mod:`repro.cluster.wire` (edge fields must be int64:
:class:`~repro.cluster.wire.UnpackableEdgeError`); control verbs and
unpackable replies are pickled.

Isolation layers
----------------
* engine/per-query failure: quarantined inside the owning worker's
  service, surfaced on the next reply and quarantined on the front;
* subscriber failure: subscribers run on the front; a failing callback
  quarantines its query there *and* in the owning worker;
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
it as a context manager) when done; every later call but ``health()``
raises.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster import protocol, wire
from repro.cluster.migration import MigrationManager, MigrationRecord
from repro.cluster.placement import ShardPlacement
from repro.cluster.protocol import Reply
from repro.cluster.transport import Transport, WorkerCrashError
from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span, unpack_spans
from repro.service.registry import RegisteredQuery
from repro.service.service import Notifications, ServiceFront
from repro.service.stats import QueryStats

#: The routing counters of a :class:`~repro.cluster.transport.Worker`,
#: exported as ``cluster_shard_<name>_total{shard}``.
_SHARD_COUNTERS = (
    ("shipped", "(event, shard) shipments made to the shard"),
    ("unshipped", "(event, shard) shipments elided for the shard"),
    ("routed", "(event, query) routings the shard reported"),
    ("skipped", "(event, query) interest skips the shard reported"),
)

class ShardedMatchService(ServiceFront):
    """Hosts N continuous queries across ``workers`` shard processes.

    The :class:`~repro.service.service.ServiceFront` surface —
    ``register`` / ``unregister`` / ``subscribe`` / ``get`` / ``ingest``
    / ``advance_to`` / ``drain`` / ``query_stats`` / ``all_query_stats``
    / ``health`` / ``close`` — plus cluster operations (placement,
    migration, elasticity).  Engine kinds are resolved on the front and
    again inside the workers; callable factories and ``edge_label_fn``
    must be picklable.

    ``tracer``: every call opens a ``cluster_ingest`` /
    ``cluster_advance`` / ``cluster_drain`` root span with
    route/ship/exchange/merge children and the workers' own spans,
    adopted onto per-shard tracks; ``None`` keeps every frame
    byte-identical to the untraced wire.  ``metrics``: the RPC plane is
    instrumented per shard, and each worker's own registry is merged by
    :meth:`metrics_snapshot` under ``shard=`` labels.
    """

    def __init__(self, delta: int, *, workers: int = 2, metrics=None,
                 tracer=None, auto_recover: bool = False):
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(delta, ShardedBackend(workers, auto_recover),
                         metrics=metrics, tracer=tracer)

    def process_batch(self, edges) -> Notifications:
        """:meth:`ingest`, looked up at call time (``ledger/trace.py``
        wraps ``ShardedMatchService.ingest`` on the class)."""
        return self.ingest(edges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.backend.placement.num_shards

    @property
    def live_workers(self) -> int:
        return len(self.backend.placement.live_shards())

    @property
    def events_unshipped(self) -> int:
        """(event, shard) shipments the router elided entirely: edges
        never packed for an uninterested shard — the cluster-only
        savings on top of ``stats.events_skipped``."""
        return sum(self.shard_unshipped)

    @property
    def shard_shipped(self) -> List[int]:
        """Per shard, (event, shard) shipments made; ``shard_unshipped``
        the ones elided, ``shard_routed`` / ``shard_skipped`` the (event,
        query) routings and interest skips the shard reported."""
        return [worker.shipped for worker in self.backend.transport.workers]

    @property
    def shard_unshipped(self) -> List[int]:
        return [worker.unshipped for worker in self.backend.transport.workers]

    @property
    def shard_routed(self) -> List[int]:
        return [worker.routed for worker in self.backend.transport.workers]

    @property
    def shard_skipped(self) -> List[int]:
        return [worker.skipped for worker in self.backend.transport.workers]

    def shard_of(self, query_id: str) -> int:
        """The shard hosting ``query_id``."""
        self.registry.get(query_id)
        return self.backend.placement.shard_of(query_id)

    def registered_ids(self) -> List[str]:
        """All registered query ids in registration order."""
        return [entry.query_id for entry in self.registry.entries()]

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.registry

    def __len__(self) -> int:
        return len(self.registry)

    # ------------------------------------------------------------------
    # Elastic operations (live migration + resharding)
    # ------------------------------------------------------------------
    def migrate(self, query_id: str, target: Optional[int] = None, *,
                reason: str = "manual") -> MigrationRecord:
        """Move one query to another worker inside the current batch
        boundary.  ``target`` defaults to the least-loaded other live
        shard.  The merged notification stream is byte-identical to a
        never-migrated run (see :mod:`repro.cluster.migration`)."""
        self._ensure_open()
        return self.backend.migrations.migrate(query_id, target,
                                               reason=reason)

    def rebalance(self) -> List[MigrationRecord]:
        """Even out per-shard load, counted in events processed per
        query, by migrating queries off hot workers.  Returns the
        completed migration records — empty when the cluster is already
        within the placement's ``REBALANCE_TOLERANCE`` of balanced."""
        self._ensure_open()
        return self.backend.migrations.rebalance()

    def recover_quarantined(self, shard: Optional[int] = None
                            ) -> List[MigrationRecord]:
        """Re-home the queries stranded on crashed workers onto healthy
        shards (all quarantined shards, or just ``shard``), each with
        its window and the events it missed; queries the crash errored
        flip back to active.  What a late call loses: :meth:`~repro.
        cluster.migration.MigrationManager.recover`."""
        self._ensure_open()
        return self.backend.migrations.recover(shard)

    def add_worker(self) -> int:
        """Grow the cluster by one empty live worker (shard split);
        returns the new shard index.  The worker immediately becomes
        the least-loaded placement target, and :meth:`rebalance` will
        start moving load onto it; it learns the stream cursor from the
        first frame it is sent (a ticket's join cursor, a sub-batch's
        closing one)."""
        self._ensure_open()
        self.backend.transport.spawn()
        return self.backend.placement.add_shard()

    def drain_worker(self, shard: int) -> List[MigrationRecord]:
        """Gracefully retire one worker (shard merge / scale-down):
        migrate every query it hosts onto the remaining live shards,
        stop the process, and take the shard out of placement for good.
        Unlike a crash quarantine, a retired shard does not degrade
        :meth:`health`.  Returns the drain migrations' records."""
        self._ensure_open()
        backend = self.backend
        placement = backend.placement
        if not 0 <= shard < placement.num_shards:
            raise KeyError(f"no shard {shard}")
        if not placement.is_live(shard):
            raise ValueError(f"shard {shard} is not live")
        hosted = placement.members(shard)
        if hosted and not [s for s in placement.live_shards()
                           if s != shard]:
            raise RuntimeError(
                f"cannot drain shard {shard}: it is the last live "
                f"worker and still hosts {len(hosted)} queries")
        records = [backend.migrations.migrate(query_id, reason="drain")
                   for query_id in hosted]
        backend.transport.stop(shard)
        placement.retire(shard)
        return records

    @property
    def migration_history(self) -> List[MigrationRecord]:
        """The last 32 completed migrations, in completion order
        (``migration_state()["completed"]`` counts them all)."""
        return list(self.backend.migrations.history)

    def migration_state(self) -> Dict[str, object]:
        """A JSON-ready view of the completed migrations (served on
        ``/varz`` and in the CLI report)."""
        return self.backend.migrations.state()

    def placement_snapshot(self) -> Dict[str, object]:
        """The live placement map: policy, per-query shard assignment,
        and per-shard status/membership."""
        placement = self.backend.placement
        return {
            "policy": "least_loaded",
            "workers": placement.num_shards,
            "assignments": {query_id: placement.shard_of(query_id)
                            for query_id in self.registered_ids()},
            "shards": {str(shard): {
                "alive": placement.is_live(shard),
                "retired": placement.is_retired(shard),
                "quarantined": placement.is_quarantined(shard),
                "queries": placement.members(shard),
            } for shard in range(placement.num_shards)},
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The coordinator's metrics merged with every live worker's
        (fetched by one STATS round trip per shard) under ``shard="N"``
        labels; ``{}`` when metrics are off."""
        if self.metrics is None:
            return {}
        self._ensure_open()
        replies = self.backend.transport.broadcast((protocol.STATS, None))
        snap = self.metrics.snapshot()
        from repro.obs import merge_snapshots
        for shard, reply in replies.items():
            merge_snapshots(snap, reply.payload[2], shard=str(shard))
        return snap

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class ShardedBackend:
    """The dispatch of a :class:`ShardedMatchService`: route, exchange
    over the :class:`~repro.cluster.transport.Transport`, merge."""

    PREFIX, WHO = "cluster", "coordinator"
    SPANS = ("cluster_ingest", "cluster_advance", "cluster_drain")

    def __init__(self, workers: int, auto_recover: bool):
        self.placement = ShardPlacement(workers)
        #: When True, queries stranded by a worker crash are re-homed
        #: onto healthy shards automatically at the next batch boundary
        #: (see :meth:`ShardedMatchService.recover_quarantined`).
        self.auto_recover = auto_recover

    def bind(self, front: ShardedMatchService) -> None:
        self.front = front
        self.metrics, self.tracer = front.metrics, front.tracer
        self.migrations = MigrationManager(self)
        self.transport = Transport(self.placement, front.delta,
                                   self.metrics, self.tracer,
                                   lost=self._lose, account=self._account)
        for _ in range(self.placement.num_shards):
            self.transport.spawn()
        metrics = self.metrics
        if metrics is not None:
            from repro.obs import SIZE_BUCKETS
            self._h_route = metrics.histogram(
                "cluster_route_seconds",
                "coordinator time splitting a batch by shard interest")
            self._h_exchange = metrics.histogram(
                "cluster_exchange_seconds",
                "send-all/receive-all round trip per ingest/advance/drain "
                "call")
            self._h_merge = metrics.histogram(
                "cluster_merge_seconds",
                "merging per-shard replies into global event order")
            self._h_batch_events = metrics.histogram(
                "cluster_batch_events", "edges per coordinator batch",
                SIZE_BUCKETS)

    # ------------------------------------------------------------------
    # What the front asks of every back-end
    # ------------------------------------------------------------------
    def admit(self, edges: List[Edge]) -> None:
        """Refuse, before anything moved, a batch the wire cannot pack
        (:class:`~repro.cluster.wire.UnpackableEdgeError`)."""
        wire.require_packable(edges)

    def boundary(self) -> None:
        """Top of every call, before the front trims its window: the
        migration manager's housekeeping, a recovery included — so a
        recovery still finds every edge that was live when the lost
        exchange began."""
        self.migrations.before_batch()

    def serve(self, pairs: List[Tuple[Edge, int]], horizon: Optional[float],
              root) -> Notifications:
        """Ship the pairs to the shards that need them (every live
        shard gets DRAIN when ``horizon`` is infinite) and merge the
        replies; observes the exchange histogram once per call."""
        obs = self.metrics
        tracer = self.tracer
        if horizon == math.inf:
            message = self.control_message(protocol.DRAIN, None, root)
            messages = dict.fromkeys(self.placement.live_shards(), message)
        else:
            ctx = ((root.trace_id, root.span_id) if tracer is not None
                   else None)
            route_start = time.perf_counter() if obs is not None else 0.0
            with maybe_span(tracer, "route", parent=root):
                messages = self._route_batch(pairs, horizon, ctx)
            if obs is not None:
                self._h_route.observe(time.perf_counter() - route_start)
                self._h_batch_events.observe(len(pairs))
        exchange_start = time.perf_counter() if obs is not None else 0.0
        replies = self.transport.exchange(messages, parent=root)
        if obs is not None:
            self._h_exchange.observe(time.perf_counter() - exchange_start)
        return self._collect(replies, parent=root)

    def host(self, entry: RegisteredQuery,
             window: Tuple[Tuple[Edge, int], ...],
             tail: Tuple[Tuple[Edge, int], ...], final_now: Optional[int]
             ) -> Notifications:
        """Place a query the front registered (fresh, or a checkpoint
        record) and send it to its shard as a ticket."""
        query_id = entry.query_id
        shard = self.placement.place(query_id)
        self.transport.intern(query_id)
        try:
            return self.transport.request(shard, wire.encode_migrate_in(
                self.migrations.ticket(entry, window=window))).payload
        except Exception:
            self.placement.remove(query_id)
            self.transport.release(query_id)
            raise

    def describe(self, entry: RegisteredQuery) -> RegisteredQuery:
        """``entry`` with the owning worker's outcome of it (status,
        counters, collected results); the front's own when the worker is
        lost."""
        try:
            return entry.with_outcome(self.transport.request(
                self.placement.shard_of(entry.query_id),
                (protocol.DESCRIBE, entry.query_id)).payload)
        except WorkerCrashError:
            return entry

    def retire(self, entry: RegisteredQuery) -> RegisteredQuery:
        """Take an unregistered query off its worker and out of the
        placement; its final record, or the front's own when the worker
        is dead or no longer hosts it (lost in a failed migration).
        Either way no worker hosts it any more: its code is freed."""
        shard = self.placement.remove(entry.query_id)
        try:
            entry = entry.with_outcome(self.transport.request(
                shard, (protocol.UNREGISTER, entry.query_id)).payload)
        except (WorkerCrashError, KeyError):
            pass
        self.transport.release(entry.query_id)
        return entry

    def fetch_stats(self, entry: Optional[RegisteredQuery] = None
                    ) -> Dict[str, QueryStats]:
        """Counters from the owning workers: ``entry``'s by one
        QUERY_STATS request, every query's by one STATS broadcast.  A
        lost worker's queries are missing from the answer."""
        if entry is not None:
            try:
                return {entry.query_id: self.transport.request(
                    self.placement.shard_of(entry.query_id),
                    (protocol.QUERY_STATS, entry.query_id)).payload}
            except WorkerCrashError:
                return {}
        fetched: Dict[str, QueryStats] = {}
        for reply in self.transport.broadcast(
                (protocol.STATS, None)).values():
            fetched.update(reply.payload[1])
        return fetched

    def stop(self, entry: RegisteredQuery) -> None:
        """A subscriber failed on the front: quarantine the query in its
        worker too."""
        try:
            self.transport.request(self.placement.shard_of(entry.query_id),
                                   (protocol.QUARANTINE,
                                    (entry.query_id, entry.error)))
        except (WorkerCrashError, KeyError):
            # Its worker is gone, or (unregistered from the failing
            # callback) the query is.
            pass

    def envelope(self, document: Dict[str, object]) -> Dict[str, object]:
        from repro.cluster.checkpoint import envelope
        return envelope(self, document)

    def health(self) -> Dict[str, object]:
        """Per-shard liveness, from the placement and the front's
        records.  ``"degraded"`` while a non-retired worker is dead."""
        registry = self.front.registry
        placement = self.placement
        shards = []
        for shard in range(placement.num_shards):
            hosted = [registry.get(query_id) for query_id
                      in placement.members(shard) if query_id in registry]
            shards.append({"shard": shard,
                           "alive": placement.is_live(shard),
                           "retired": placement.is_retired(shard),
                           "queries": len(hosted),
                           "errored_queries": sum(
                               1 for entry in hosted if not entry.active)})
        degraded = any(not s["alive"] and not s["retired"]
                       for s in shards)
        return {"status": "degraded" if degraded else "ok",
                "workers": len(shards),
                "live_workers": sum(1 for s in shards if s["alive"]),
                "retired_workers": sum(1 for s in shards if s["retired"]),
                "shards": shards}

    def close(self) -> None:
        for shard in range(len(self.transport.workers)):
            self.transport.stop(shard)
        self.placement.stop_all()

    def export_metrics(self, obs) -> None:
        """Mirror the routing counters and worker liveness."""
        placement = self.placement
        workers = self.transport.workers
        obs.counter("cluster_events_unshipped_total",
                    "(event, shard) shipments elided by the router"
                    ).set_total(sum(worker.unshipped for worker in workers))
        obs.gauge("cluster_live_workers", "shard workers still serving"
                  ).set(len(placement.live_shards()))
        for worker in workers:
            label = str(worker.index)
            for name, help_text in _SHARD_COUNTERS:
                obs.counter(f"cluster_shard_{name}_total", help_text,
                            shard=label).set_total(getattr(worker, name))
            obs.gauge("cluster_worker_alive",
                      "1 while the shard worker is serving",
                      shard=label).set(
                          1 if placement.is_live(worker.index) else 0)
            obs.gauge("cluster_worker_retired",
                      "1 after the shard was gracefully drained",
                      shard=label).set(
                          1 if placement.is_retired(worker.index) else 0)

    def control_message(self, verb: str, payload: object, root):
        """The pickled control tuple for ``verb``: a traced 3-tuple
        carrying ``(trace id, span id)`` only when ``root`` is a live
        span (not ``None``), so untraced control messages pickle
        byte-identically."""
        if self.tracer is not None and root is not None and root.span_id:
            return (verb, payload, (root.trace_id, root.span_id))
        return (verb, payload)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_batch(self, pairs: List[Tuple[Edge, int]],
                     final_now: Optional[int],
                     ctx: Optional[Tuple[int, int]] = None
                     ) -> Dict[int, bytes]:
        """Split ``pairs`` into per-shard frames by interest, each
        closing on the clock ``final_now``.

        An edge goes to the live shards the placement gives for the
        queries the interest index names; uninterested (edge, shard)
        pairs are counted in ``events_unshipped`` and never serialized.
        A shard whose sub-batch is empty still gets a clock-advance
        frame when one of its queries holds an edge expiring by
        ``final_now`` — an edge at the front of the front's window
        (trimmed to the clock before the call) that the query is routed
        and that arrived at or after its join cursor.  That keeps the
        expirations inside the same call (and therefore at the same
        position in the merged stream) as a single-process service
        would emit them.  Empty ``pairs`` is a pure clock advance
        (``advance_to``): only shards owed an expiration are contacted.
        """
        if final_now is None:
            return {}
        front = self.front
        final_seq = front.seq + len(pairs)
        live = self.placement.live_shards()
        routed: Dict[int, List[Tuple[Edge, int]]] = {s: [] for s in live}
        lookup = front.registry.interest.lookup_ids
        shard_of = self.placement.shard_of
        for pair in pairs:
            for shard in {shard_of(query_id) for query_id in lookup(pair[0])}:
                if shard in routed:
                    routed[shard].append(pair)
        workers = self.transport.workers
        for shard in live:
            workers[shard].shipped += len(routed[shard])
            workers[shard].unshipped += len(pairs) - len(routed[shard])
        # Only the window is scanned: an edge of this batch falling due
        # was shipped to its holders, which are therefore not idle.
        idle = {shard for shard in live if not routed[shard]}
        get = front.registry.get
        for edge, seq in front.falling_due(final_now):
            if not idle:
                break
            for query_id in lookup(edge):
                if get(query_id).joined_seq <= seq:
                    idle.discard(shard_of(query_id))
        return {shard: wire.encode_routed(sub_batch, final_now, final_seq,
                                          trace=ctx)
                for shard, sub_batch in routed.items() if shard not in idle}

    # ------------------------------------------------------------------
    # What the transport reports
    # ------------------------------------------------------------------
    def _account(self, reply: Reply, shard: int) -> None:
        """Fold a reply's piggybacked bookkeeping into the front:
        worker-side quarantines, routing counters, worker spans."""
        front = self.front
        for query_id, error in reply.errors:
            if query_id in front.registry:
                front.quarantine(front.registry.get(query_id), error)
        front.stats.events_routed += reply.routed
        front.stats.events_skipped += reply.skipped
        worker = self.transport.workers[shard]
        worker.routed += reply.routed
        worker.skipped += reply.skipped
        if self.tracer is not None and len(reply.metrics) > 2:
            # Packed worker spans ride from index 2; adopt them onto
            # the shard's display track.
            for span in unpack_spans(reply.metrics, 2):
                span.tid = shard + 1
                self.tracer.adopt(span)

    def _lose(self, shard: int, cause: BaseException) -> None:
        """A worker died: quarantine its shard and every query on it,
        remembering the cursor it was lost at — the base of the exchange
        that lost it, since the cursor moves once an exchange is in."""
        front = self.front
        self.transport.workers[shard].lost_from = (front.seq, front.now)
        for query_id in self.placement.quarantine(shard):
            if query_id in front.registry:
                front.quarantine(front.registry.get(query_id),
                                 f"worker {shard} crashed "
                                 f"({type(cause).__name__})")
        if self.auto_recover:
            # Deferred to the next batch boundary: quarantine can fire
            # mid-exchange, where re-homing would race the merge.
            self.migrations.needs_recovery = True

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
            if len(replies) > 1 or self.migrations.permuted:
                reg_index = {entry.query_id: index for index, entry
                             in enumerate(self.front.registry.entries())}
                runs.sort(key=lambda run: (
                    run.event.time, run.event.is_arrival, run.seq,
                    reg_index.get(run.query_id, -1)))
        if obs is not None:
            self._h_merge.observe(time.perf_counter() - merge_start)
        return Notifications(runs)
