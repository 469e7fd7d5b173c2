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

There is one data path.  Shipping is *interest-routed*: the front's
:class:`~repro.service.interest.QueryInterestIndex` — the class, and so
the decision, every worker's service fans out with — names the queries
an edge could match and the placement maps them to shards: an edge
travels only to the shards hosting such a query, a shard with no
interesting arrivals gets a bare clock-advance frame when one of its
queries holds an edge of the front's window falling due, and a fully
disinterested shard is not contacted at all (counted in
``events_unshipped``).  Sub-batches carry explicit global sequence
numbers and the batch's closing cursor, which is what keeps the
arrival-order merge exact even though workers see different subsets of
the stream: every frame says what it needs of the front's cursor (a
routed pair its global seq, a ticket its query's global join cursor),
however far a worker's own position lags.  Merged notifications are
re-ordered by the total event order ``(event time, kind, arrival seq)``
with global registration order breaking ties within one event, so
per-query output is *identical* to the in-process service.
Sub-batches, the tickets queries reach workers by and packable replies
travel as the packed binary frames of :mod:`repro.cluster.wire` (edge
fields must therefore be int64:
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
import multiprocessing
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import protocol, wire
from repro.cluster.migration import MigrationManager, MigrationRecord
from repro.cluster.placement import ShardPlacement
from repro.cluster.protocol import Reply, make_exception
from repro.cluster.worker import shard_worker_main
from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span, unpack_spans
from repro.service.registry import RegisteredQuery
from repro.service.service import Notifications, ServiceFront
from repro.service.stats import QueryStats


class WorkerCrashError(RuntimeError):
    """A shard worker died while handling a request."""


#: What losing a shard looks like from :meth:`ShardedBackend._receive`:
#: a dead pipe, or a reply that cannot be decoded.  Either way nothing
#: more can be trusted from that worker, and the caller quarantines it
#: and goes on reading the other shards' replies.
_SHARD_LOST = (EOFError, OSError, wire.FrameError, pickle.UnpicklingError)

#: What ``get`` / ``unregister`` return: the query's record, as its
#: worker knew it (the front's own when the worker is lost).
ShardedQueryEntry = RegisteredQuery


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
    route/ship/exchange/merge children, workers trace their own
    dispatch (context rides the existing request frames, spans return
    packed inside ``Reply.metrics``) and adopted worker spans land here
    under per-shard display tracks; ``None`` keeps every frame
    byte-identical to the untraced wire.  ``metrics``: the back-end
    instruments its RPC plane (per-shard wire bytes, round trips, worker
    busy time from the piggybacked reply deltas, route / exchange /
    merge latency, crashes) and each worker builds its own registry,
    merged by :meth:`metrics_snapshot` under ``shard=`` labels.
    """

    def __init__(self, delta: int, *, workers: int = 2,
                 start_method: Optional[str] = None, metrics=None,
                 tracer=None, auto_recover: bool = False):
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(delta, ShardedBackend(
            workers, start_method, auto_recover),
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
        return len(self._backend._workers)

    @property
    def live_workers(self) -> int:
        return sum(1 for handle in self._backend._workers if handle.alive)

    @property
    def events_unshipped(self) -> int:
        """(event, shard) shipments the router elided entirely: edges
        never packed for an uninterested shard — the cluster-only
        savings on top of ``stats.events_skipped``."""
        return self._backend.events_unshipped

    @property
    def shard_shipped(self) -> List[int]:
        """Per shard, (event, shard) shipments made; ``shard_unshipped``
        the ones elided, ``shard_routed`` / ``shard_skipped`` the (event,
        query) routings and interest skips the shard reported."""
        return self._backend.shard_shipped

    @property
    def shard_unshipped(self) -> List[int]:
        return self._backend.shard_unshipped

    @property
    def shard_routed(self) -> List[int]:
        return self._backend.shard_routed

    @property
    def shard_skipped(self) -> List[int]:
        return self._backend.shard_skipped

    def shard_of(self, query_id: str) -> int:
        """The shard hosting ``query_id``."""
        self.registry.get(query_id)
        return self._backend._placement.shard_of(query_id)

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
        return self._backend._migrations.migrate(query_id, target,
                                                 reason=reason)

    def rebalance(self, *, tolerance: float = 0.1,
                  max_moves: Optional[int] = None) -> List[MigrationRecord]:
        """Even out per-shard load, counted in events processed per
        query, by migrating queries off hot workers.  Returns the
        completed migration records — empty when the cluster is already
        within ``tolerance`` of balanced."""
        self._ensure_open()
        return self._backend._migrations.rebalance(
            tolerance=tolerance, max_moves=max_moves)

    def recover_quarantined(self, shard: Optional[int] = None
                            ) -> List[MigrationRecord]:
        """Re-home the queries stranded on crashed workers onto healthy
        shards (all quarantined shards, or just ``shard``), each with
        its window and the events it missed; queries the crash errored
        flip back to active.  What a late call loses: :meth:`~repro.
        cluster.migration.MigrationManager.recover`."""
        self._ensure_open()
        return self._backend._migrations.recover(shard)

    def add_worker(self) -> int:
        """Grow the cluster by one empty live worker (shard split);
        returns the new shard index.  The worker immediately becomes
        the least-loaded placement target, and :meth:`rebalance` will
        start moving load onto it; it learns the stream cursor from the
        first frame it is sent (a ticket's join cursor, a sub-batch's
        closing one)."""
        self._ensure_open()
        backend = self._backend
        index = len(backend._workers)
        backend._spawn_worker(index)
        for counts in (backend.shard_shipped, backend.shard_unshipped,
                       backend.shard_routed, backend.shard_skipped):
            counts.append(0)
        backend._shard_obs.append(None)
        backend._placement.add_shard()
        return index

    def drain_worker(self, shard: int) -> List[MigrationRecord]:
        """Gracefully retire one worker (shard merge / scale-down):
        migrate every query it hosts onto the remaining live shards,
        stop the process, and take the shard out of placement for good.
        Unlike a crash quarantine, a retired shard does not degrade
        :meth:`health`.  Returns the drain migrations' records."""
        self._ensure_open()
        backend = self._backend
        if not 0 <= shard < len(backend._workers):
            raise KeyError(f"no shard {shard}")
        handle = backend._workers[shard]
        if not handle.alive:
            raise ValueError(f"shard {shard} is not live")
        placement = backend._placement
        hosted = placement.members(shard)
        if hosted and not [s for s in placement.live_shards()
                           if s != shard]:
            raise RuntimeError(
                f"cannot drain shard {shard}: it is the last live "
                f"worker and still hosts {len(hosted)} queries")
        records = [backend._migrations.migrate(query_id, reason="drain")
                   for query_id in hosted]
        backend._stop_worker(handle)
        handle.retired = True
        placement.retire(shard)
        return records

    @property
    def migration_history(self) -> List[MigrationRecord]:
        """The last 32 completed migrations, in completion order
        (``migration_state()["completed"]`` counts them all)."""
        return list(self._backend._migrations.history)

    def migration_state(self) -> Dict[str, object]:
        """A JSON-ready view of the completed migrations (served on
        ``/varz`` and in the CLI report)."""
        return self._backend._migrations.state()

    def placement_snapshot(self) -> Dict[str, object]:
        """The live placement map: policy, per-query shard assignment,
        and per-shard status/membership."""
        placement = self._backend._placement
        shards = {}
        for handle in self._backend._workers:
            shard = handle.index
            shards[str(shard)] = {
                "alive": handle.alive,
                "retired": handle.retired,
                "quarantined": placement.is_quarantined(shard),
                "queries": placement.members(shard),
            }
        return {
            "policy": "least_loaded",
            "workers": len(self._backend._workers),
            "assignments": {query_id: placement.shard_of(query_id)
                            for query_id in self.registered_ids()},
            "shards": shards,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The cluster-wide metrics snapshot: the coordinator's own
        registry merged with every live worker's registry, the latter
        under ``shard="N"`` labels (so one query's engine-time
        histogram is distinguishable per hosting shard).  Fetched over
        the existing STATS verb — one round trip per live shard.
        Returns ``{}`` when metrics are off."""
        if self.metrics is None:
            return {}
        self._ensure_open()
        replies = self._backend._broadcast((protocol.STATS, None))
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
    """The dispatch of a :class:`ShardedMatchService`: route + exchange
    + collect over worker processes, the placement and the
    :class:`~repro.cluster.migration.MigrationManager`."""

    PREFIX, WHO = "cluster", "coordinator"
    SPANS = ("cluster_ingest", "cluster_advance", "cluster_drain")

    def __init__(self, workers: int, start_method: Optional[str],
                 auto_recover: bool):
        self.events_unshipped = 0
        self.shard_shipped = [0] * workers
        self.shard_unshipped = [0] * workers
        self.shard_routed = [0] * workers
        self.shard_skipped = [0] * workers
        self._placement = ShardPlacement(workers)
        #: Interned query-id table (codes index _intern_names); a
        #: query's code reaches its worker on the query's ticket.
        self._intern_codes: Dict[str, int] = {}
        self._intern_names: List[str] = []
        #: shard -> the cursor ``(seq, now)`` its worker was lost at (it
        #: moves once an exchange is collected, so: that exchange's base).
        self._lost_from: Dict[int, Tuple[int, Optional[int]]] = {}
        #: When True, queries stranded by a worker crash are re-homed
        #: onto healthy shards automatically at the next batch boundary
        #: (see :meth:`ShardedMatchService.recover_quarantined`).
        self.auto_recover = auto_recover
        # Kept for add_worker(): new workers must spawn from the same
        # multiprocessing context as the original pool.
        self._ctx = _pick_context(start_method)
        self._workers: List[_WorkerHandle] = []
        self._shard_obs: List[Optional[Tuple]] = [None] * workers

    def bind(self, front: ShardedMatchService) -> None:
        self.front = front
        self.metrics, self.tracer = front.metrics, front.tracer
        self._migrations = MigrationManager(self)
        for index in range(len(self._shard_obs)):
            self._spawn_worker(index)
        metrics = self.metrics
        if metrics is not None:
            from repro.obs import SIZE_BUCKETS
            self._g_inflight = metrics.gauge(
                "cluster_inflight_requests",
                "replies outstanding at the peak of the last exchange")
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
        self._migrations.before_batch()

    def serve(self, pairs: List[Tuple[Edge, int]], horizon: Optional[float],
              root) -> Notifications:
        """Ship the pairs to the shards that need them (every live
        shard gets DRAIN when ``horizon`` is infinite) and merge the
        replies; observes the exchange histogram once per call."""
        obs = self.metrics
        tracer = self.tracer
        if horizon == math.inf:
            message = self._control_message(protocol.DRAIN, None, root)
            messages = {handle.index: message for handle in self._workers
                        if handle.alive}
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
        replies = self._exchange(messages, parent=root)
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
        if query_id not in self._intern_codes:
            self._intern_codes[query_id] = len(self._intern_names)
            self._intern_names.append(query_id)
        shard = self._placement.place(query_id)
        try:
            return self._request(shard, wire.encode_migrate_in(
                self._migrations.ticket(entry, window=window))).payload
        except Exception:
            self._placement.remove(query_id)
            raise

    def describe(self, entry: RegisteredQuery) -> RegisteredQuery:
        """``entry`` with the owning worker's outcome of it (status,
        counters, collected results); the front's own when the worker is
        lost."""
        try:
            return entry.with_outcome(self._request(
                self._placement.shard_of(entry.query_id),
                (protocol.DESCRIBE, entry.query_id)).payload)
        except WorkerCrashError:
            return entry

    def retire(self, entry: RegisteredQuery) -> RegisteredQuery:
        """Take an unregistered query off its worker and out of the
        placement; its final record, or the front's own when the worker
        is dead or no longer hosts it (lost in a failed migration)."""
        shard = self._placement.remove(entry.query_id)
        try:
            return entry.with_outcome(self._request(
                shard, (protocol.UNREGISTER, entry.query_id)).payload)
        except (WorkerCrashError, KeyError):
            return entry

    def fetch_stats(self, entry: Optional[RegisteredQuery] = None
                    ) -> Dict[str, QueryStats]:
        """Counters from the owning workers: ``entry``'s by one
        QUERY_STATS request, every query's by one STATS broadcast.  A
        lost worker's queries are missing from the answer."""
        if entry is not None:
            try:
                return {entry.query_id: self._request(
                    self._placement.shard_of(entry.query_id),
                    (protocol.QUERY_STATS, entry.query_id)).payload}
            except WorkerCrashError:
                return {}
        fetched: Dict[str, QueryStats] = {}
        for reply in self._broadcast((protocol.STATS, None)).values():
            fetched.update(reply.payload[1])
        return fetched

    def stop(self, entry: RegisteredQuery) -> None:
        """A subscriber failed on the front: quarantine the query in its
        worker too."""
        try:
            self._request(self._placement.shard_of(entry.query_id),
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
        records.  ``"degraded"`` while a non-retired worker is dead — a
        gracefully drained one is planned downsizing, not an
        incident."""
        registry = self.front.registry
        shards = []
        for handle in self._workers:
            hosted = [registry.get(query_id) for query_id
                      in self._placement.members(handle.index)
                      if query_id in registry]
            shards.append({"shard": handle.index,
                           "alive": handle.alive,
                           "retired": handle.retired,
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
        for handle in self._workers:
            self._stop_worker(handle)

    def export_metrics(self, obs) -> None:
        """Mirror the routing counters and worker liveness."""
        obs.counter("cluster_events_unshipped_total",
                    "(event, shard) shipments elided by the router"
                    ).set_total(self.events_unshipped)
        obs.gauge("cluster_live_workers", "shard workers still serving"
                  ).set(sum(1 for handle in self._workers if handle.alive))
        for shard, handle in enumerate(self._workers):
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
                      shard=label).set(1 if handle.alive else 0)
            obs.gauge("cluster_worker_retired",
                      "1 after the shard was gracefully drained",
                      shard=label).set(1 if handle.retired else 0)

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
        live = [handle.index for handle in self._workers if handle.alive]
        routed: Dict[int, List[Tuple[Edge, int]]] = {s: [] for s in live}
        lookup = front.registry.interest.lookup_ids
        shard_of = self._placement.shard_of
        for pair in pairs:
            interested = {shard_of(query_id) for query_id in lookup(pair[0])}
            for shard in live:
                if shard in interested:
                    routed[shard].append(pair)
                    self.shard_shipped[shard] += 1
                else:
                    self.events_unshipped += 1
                    self.shard_unshipped[shard] += 1
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
    # Workers
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int) -> None:
        """Start shard worker ``index`` and append its handle."""
        ctx = self._ctx
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, self.front.delta, self.metrics is not None,
                  self.tracer is not None),
            name=f"repro-shard-{index}", daemon=True)
        process.start()
        child_conn.close()
        self._workers.append(_WorkerHandle(index, process, parent_conn))

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

    # ------------------------------------------------------------------
    # RPC core
    # ------------------------------------------------------------------
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
        """Fold a reply's piggybacked bookkeeping into the front:
        worker-side quarantines, routing counters, worker clock."""
        front = self.front
        for query_id, error in reply.errors:
            if query_id in front.registry:
                front.quarantine(front.registry.get(query_id), error)
        front.stats.events_routed += reply.routed
        front.stats.events_skipped += reply.skipped
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
        exchange to mistake for its own.  ``parent`` (a live span) nests
        an ``exchange`` span with a ``ship`` child around the send-all
        phase; control exchanges pass no parent and produce no spans.
        """
        tracer = self.tracer if parent is not None else None
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
        if self.metrics is not None:
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
        if self.metrics is not None:
            self._g_inflight.set(0)
        if failure is not None:
            raise make_exception(failure)
        return replies

    def _broadcast(self, message) -> Dict[int, Reply]:
        """Send ``message`` to every live worker, then collect replies."""
        return self._exchange({handle.index: message
                               for handle in self._workers if handle.alive})

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
        front = self.front
        self._lost_from[shard] = (front.seq, front.now)
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
            if query_id in front.registry:
                front.quarantine(front.registry.get(query_id),
                                 f"worker {shard} crashed "
                                 f"({type(cause).__name__})")
        if self.auto_recover:
            # Deferred to the next batch boundary: quarantine can fire
            # mid-exchange, where re-homing would race the merge.
            self._migrations.needs_recovery = True

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
                reg_index = {entry.query_id: index for index, entry
                             in enumerate(self.front.registry.entries())}
                runs.sort(key=lambda run: (
                    run.event.time, run.event.is_arrival, run.seq,
                    reg_index.get(run.query_id, -1)))
        if obs is not None:
            self._h_merge.observe(time.perf_counter() - merge_start)
        return Notifications(runs)
