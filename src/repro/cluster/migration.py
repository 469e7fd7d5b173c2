"""Live query migration and elastic resharding for the cluster.

This module is the control plane that turns the coordinator's static
query->shard assignment into a live mapping.  The primitive is a
single-query **migration**:

1. the coordinator cuts the query's engine window — the ``(edge,
   seq)`` pairs it holds — from its own window and detaches the query
   from its source worker (``MIGRATE_OUT``), receiving its status,
   counters and collected results;
2. while the query is in flight, the coordinator buffers any routed
   event the query would have received in a bounded *tail* (staged
   migrations only; the atomic path never leaves the batch boundary);
3. it ships a :class:`~repro.cluster.protocol.MigrationTicket` to the
   target worker (``MIGRATE_IN``), which rebuilds the engine by
   silently replaying the window, live-replays the tail, and merges the
   surviving pairs into its own live deque;
4. the routing entry flips: the placement moves, and the router — which
   reads the placement — ships the query's edges to the target from the
   next batch on.

How every query reaches a worker
--------------------------------
As a ticket built by :meth:`MigrationManager.ticket`.  A query's engine
state is always the replay of its cut of the coordinator's ``(edge,
seq)`` window at its own join cursor (:meth:`~repro.service.interest.
QueryInterestIndex.window_of`; a checkpoint restore first refills that
window from the document), so a registration, a checkpoint restore, a
crash recovery and a migration differ only in who wrote the status,
counters and result: nobody; the checkpoint's record; the coordinator,
from its mirror; the source worker, on ``MIGRATE_OUT``.  The
coordinator trims its window only after :meth:`~MigrationManager.
before_batch` had its chance to recover, so everything live when a lost
exchange began is still held when the next boundary re-homes its
queries: that makes a recovery exact.

Run at a batch boundary with an empty tail — :meth:`MigrationManager.
migrate` — the hop is invisible: the merged notification stream is
byte-identical to a never-migrated run, because the window replay emits
nothing (the source already accounted those arrivals) and no event
arrives while the query is detached.  The staged pair
(:meth:`~MigrationManager.begin` / :meth:`~MigrationManager.finish`)
trades that for bounded pause buffering: tail-replay notifications are
content-complete but delivered at finish time, i.e. later than a
never-migrated run would have emitted them.

On top of the primitive sit the elastic operations the coordinator
re-exports: ``rebalance()`` (planned from per-query load via
:meth:`~repro.cluster.placement.ShardPlacement.plan_rebalance`),
``add_worker()``/``drain_worker()`` for shard split/merge, and
``recover()``, which re-homes the queries stranded on a quarantined
worker onto healthy shards.

Every completed hop appends a :class:`MigrationRecord` to the history
(surfaced via ``/varz`` and the CLI report) and, when observability is
on, increments per-reason counters, observes a latency histogram and
opens a ``migration`` root span with the worker-side ``migrate_out``/
``migrate_in`` spans as children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import protocol, wire
from repro.cluster.protocol import (
    MigrationTicket, QueryFinalState, RegisterSpec,
)
from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span
from repro.service.interest import query_pattern_keys
from repro.service.registry import QueryStatus

#: Default bound on a staged migration's event tail; reaching it forces
#: the migration to finish at the next batch boundary.
DEFAULT_MAX_TAIL = 10_000


class MigrationError(RuntimeError):
    """A live migration could not start or complete."""


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration, as kept in the coordinator's history."""

    query_id: str
    source: int
    target: int
    reason: str
    window_edges: int
    tail_events: int
    #: Global arrival cursor at the moment the routing entry flipped.
    seq: int
    elapsed_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "query_id": self.query_id, "source": self.source,
            "target": self.target, "reason": self.reason,
            "window_edges": self.window_edges,
            "tail_events": self.tail_events, "seq": self.seq,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class _Pending:
    """A detached query on its way to ``target``: what its source knew
    (``final``) and its cut of the coordinator's window."""

    query_id: str
    source: int
    target: Optional[int]
    final: QueryFinalState
    window: Tuple[Tuple[Edge, int], ...]
    reason: str
    max_tail: int
    started: float
    tail: List[Tuple[Edge, int]] = field(default_factory=list)
    drained: bool = False


class MigrationManager:
    """The coordinator's migration state machine.

    A friend object of :class:`~repro.cluster.coordinator.
    ShardedMatchService` (it drives the service's private RPC plane and
    mirrors); the service re-exports the public operations.
    """

    def __init__(self, service):
        self._svc = service
        self._pending: Dict[str, _Pending] = {}
        self.history: List[MigrationRecord] = []
        #: Set by the coordinator's quarantine path under
        #: ``auto_recover``; drained at the next batch boundary.
        self.needs_recovery = False
        #: Flipped once any migration lands: a migrated query registers
        #: at the *end* of its target worker's local registry, so one
        #: shard's notification stream may no longer follow global
        #: registration order — the coordinator's merge must sort even
        #: single-shard replies from then on.
        self.permuted = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_pending(self, query_id: str) -> bool:
        return query_id in self._pending

    def state(self) -> Dict[str, object]:
        """A JSON-ready view of in-flight and completed migrations."""
        return {
            "pending": [
                {"query_id": p.query_id, "source": p.source,
                 "target": p.target, "reason": p.reason,
                 "tail_events": len(p.tail), "max_tail": p.max_tail,
                 "drained": p.drained}
                for p in self._pending.values()],
            "completed": len(self.history),
            "history": [record.to_dict()
                        for record in self.history[-32:]],
        }

    # ------------------------------------------------------------------
    # The migration primitive
    # ------------------------------------------------------------------
    def migrate(self, query_id: str, target: Optional[int] = None, *,
                reason: str = "manual") -> MigrationRecord:
        """Atomically move one query to ``target`` (policy-chosen when
        ``None``) inside the current batch boundary.

        The pause window is empty — detach, restore and routing flip
        happen back-to-back with no ingest in between — so the merged
        notification stream stays byte-identical to a never-migrated
        run.  Returns the completed :class:`MigrationRecord`.
        """
        svc = self._svc
        info, source, target = self._checked(query_id, target)
        with maybe_span(svc.tracer, "migration", query=query_id,
                        reason=reason) as root:
            pending = self._detach(info, source, target, reason, 0, root)
            notes = self._land(info, pending, root)
        svc._deliver(notes)
        return self.history[-1]

    def begin(self, query_id: str, target: Optional[int] = None, *,
              max_tail: int = DEFAULT_MAX_TAIL,
              reason: str = "staged") -> int:
        """Detach ``query_id`` and start buffering its routed events.

        The query is paused: until :meth:`finish`, events it would have
        received accumulate in a bounded tail (at most ``max_tail``;
        overflowing forces a finish at the next batch boundary).
        Returns the planned target shard.
        """
        if max_tail < 1:
            raise ValueError("max_tail must be positive")
        info, source, target = self._checked(query_id, target)
        self._pending[query_id] = self._detach(info, source, target, reason,
                                               max_tail, None)
        self._set_pending_gauge()
        return target

    def finish(self, query_id: str) -> List:
        """Complete a staged migration: restore on the target, replay
        the buffered tail, flip the routing entry.  Returns the
        tail-replay notifications (already delivered to subscribers)."""
        svc = self._svc
        try:
            pending = self._pending.pop(query_id)
        except KeyError:
            raise MigrationError(
                f"no migration in progress for {query_id!r}") from None
        self._set_pending_gauge()
        info = svc._get_info(query_id)
        with maybe_span(svc.tracer, "migration", query=query_id,
                        reason=pending.reason,
                        tail=len(pending.tail)) as root:
            notes = self._land(info, pending, root)
        svc._deliver(notes)
        return notes

    def finish_all(self) -> None:
        """Complete every staged migration (checkpoints and drains call
        this so no query is registered nowhere)."""
        for query_id in list(self._pending):
            self.finish(query_id)

    # ------------------------------------------------------------------
    # Batch-boundary hooks (called from the coordinator's ingest path)
    # ------------------------------------------------------------------
    def before_batch(self) -> None:
        """Housekeeping at every batch boundary (the top of an ingest,
        advance or drain): auto-recover queries stranded by a crash (when
        enabled), force-finish staged migrations whose tail is full."""
        if self.needs_recovery:
            self.needs_recovery = False
            try:
                self.recover()
            except MigrationError:
                # No healthy target left; the stranded queries stay
                # errored until a worker is added.
                pass
        if self._pending:
            for query_id in [p.query_id for p in self._pending.values()
                             if len(p.tail) >= p.max_tail]:
                self.finish(query_id)

    def buffer(self, prefix: List[Edge], base_seq: int) -> None:
        """Append this batch's events to the pending tails, by the
        coordinator's interest index: exactly the edges the router
        would have shipped for the detached query (and leaves out
        while it is detached)."""
        if not self._pending:
            return
        lookup = self._svc._interest.lookup_ids
        for offset, edge in enumerate(prefix):
            for query_id in lookup(edge):
                pending = self._pending.get(query_id)
                if pending is not None:
                    pending.tail.append((edge, base_seq + offset))

    def note_drain(self) -> None:
        """The stream was drained while migrations were staged: their
        private windows must flush completely at finish.  The buffered
        tail is kept — those arrivals still owe their match
        notifications; the ``drained`` flag makes the finish-time
        replay expire everything once they have been processed."""
        for pending in self._pending.values():
            pending.drained = True

    # ------------------------------------------------------------------
    # Elastic operations
    # ------------------------------------------------------------------
    def rebalance(self, *, tolerance: float = 0.1,
                  max_moves: Optional[int] = None,
                  signal: str = "events") -> List[MigrationRecord]:
        """Plan and execute migrations that even out per-shard load.

        ``signal`` selects the per-query load figure: ``"events"``
        (events processed — the driver of ``events_routed`` skew) or
        ``"busy"`` (engine busy-seconds).  Returns the completed
        records (empty when the cluster is already within
        ``tolerance``).
        """
        if signal not in ("events", "busy"):
            raise ValueError(f"unknown rebalance signal {signal!r}; "
                             f"known: ['events', 'busy']")
        svc = self._svc
        by_id = {stats.query_id: stats
                 for stats in svc.all_query_stats()}
        load: Dict[str, float] = {}
        for info in svc._queries.values():
            if not info.active or info.query_id in self._pending:
                continue
            stats = by_id.get(info.query_id)
            if stats is None:
                continue
            load[info.query_id] = float(
                stats.events_processed if signal == "events"
                else stats.elapsed_seconds)
        plan = svc._placement.plan_rebalance(
            load, tolerance=tolerance, max_moves=max_moves)
        return [self.migrate(query_id, target, reason="rebalance")
                for query_id, _, target in plan]

    def recover(self, shard: Optional[int] = None
                ) -> List[MigrationRecord]:
        """Re-home the queries stranded on quarantined workers: a
        migration whose :class:`~repro.cluster.protocol.QueryFinalState`
        the coordinator writes, landed by :meth:`finish` like a staged
        one.

        It holds the mirror's status (queries the crash
        quarantined flip back to active, queries that had errored on
        their own stay errored) and the last counters fetched; the
        window is the query's cut of the coordinator's at the cursor its
        worker was lost at; what was routed since — first of all the
        exchange whose reply never came — is the tail, replayed on the
        new shard and delivered to subscribers from here.  At the
        boundary after the loss (``auto_recover``) nothing is missing:
        the merged output is the never-crashed run's, as a multiset.
        A later call works on what the window still holds: an edge live
        at the loss that left it during the outage is in neither the
        rebuilt engine nor the tail, so its embeddings with missed
        arrivals, and their expirations, are never reported; a shard
        lost inside ``drain()`` comes back empty.  Raises
        :class:`MigrationError` when no healthy target exists."""
        svc = self._svc
        records: List[MigrationRecord] = []
        for info in list(svc._queries.values()):
            source = svc._placement.shard_of(info.query_id)
            # A query detached by a staged migration is not on the dead
            # worker: its own finish lands it.
            if ((shard is not None and source != shard)
                    or source not in svc._lost_from
                    or info.query_id in self._pending):
                continue
            crashed = bool(info.error) and info.error.startswith(
                f"worker {source} crashed")
            lost_seq, lost_now = svc._lost_from[source]
            pairs = svc._interest.window_of(
                info.query_id, info.joined_seq, svc._live, svc.delta,
                lost_now)
            held = sum(1 for _, seq in pairs if seq < lost_seq)
            stats = svc._lost_stats(info)
            self._pending[info.query_id] = _Pending(
                query_id=info.query_id, source=source, target=None,
                final=QueryFinalState(
                    status="active" if crashed else info.status.value,
                    error=None if crashed else info.error, stats=stats,
                    result=None),
                window=pairs[:held], reason="recover", max_tail=0,
                started=time.perf_counter(), tail=list(pairs[held:]))
            self.finish(info.query_id)
            if crashed:
                info.status = QueryStatus.ACTIVE
                info.error = None
            info.last_stats = stats
            records.append(self.history[-1])
        return records

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _checked(self, query_id: str, target: Optional[int]):
        """Validate a migration request and settle its target (the
        policy's pick when ``None``) before anything is detached: a
        query pulled off its source with nowhere to land would be lost.
        Returns ``(info, source, target)``."""
        svc = self._svc
        info = svc._get_info(query_id)
        if query_id in self._pending:
            raise MigrationError(
                f"query {query_id!r} is already migrating")
        source = svc._placement.shard_of(query_id)
        if not svc._workers[source].alive:
            raise MigrationError(
                f"query {query_id!r} is stranded on dead shard "
                f"{source}; use recover_quarantined()")
        if target is None:
            try:
                target = svc._placement.select_target(
                    query_pattern_keys(info.query), exclude={source})
            except RuntimeError as exc:
                raise MigrationError(str(exc)) from None
        elif target == source:
            raise ValueError(
                f"query {query_id!r} already lives on shard {target}")
        elif not (0 <= target < len(svc._workers)
                  and svc._workers[target].alive):
            raise ValueError(f"target shard {target} is not live")
        return info, source, target

    def _detach(self, info, source: int, target: int, reason: str,
                max_tail: int, root) -> _Pending:
        """Cut ``info``'s window from the coordinator's and take the
        query off ``source`` (MIGRATE_OUT, traced under ``root`` when it
        is a live span)."""
        svc = self._svc
        started = time.perf_counter()
        window = svc._interest.window_of(
            info.query_id, info.joined_seq, svc._live, svc.delta, svc._now)
        final = svc._request(source, svc._control_message(
            protocol.MIGRATE_OUT, info.query_id, root)).payload
        return _Pending(
            query_id=info.query_id, source=source, target=target,
            final=final, window=window, reason=reason, max_tail=max_tail,
            started=started)

    def _land(self, info, pending: _Pending, root) -> List:
        """Ticket a detached query onto its target and record the hop;
        returns the tail-replay notifications."""
        svc = self._svc
        ctx = ((root.trace_id, root.span_id)
               if svc.tracer is not None else None)
        final = pending.final
        ticket = self.ticket(
            info, final.status, final.error, final.stats,
            result=final.result, window=pending.window,
            tail=tuple(pending.tail), drained=pending.drained)
        target, notes = self._restore(info, ticket, pending.target, ctx)
        self._completed(info, pending, target, ticket)
        return notes

    def ticket(self, info, status: str, error: Optional[str], stats, *,
               result=None, window: Tuple[Tuple[Edge, int], ...] = (),
               tail: Tuple[Tuple[Edge, int], ...] = (),
               drained: bool = False) -> MigrationTicket:
        """The ticket that puts ``info``'s query on a worker — the one
        place one is built.  ``status`` / ``error`` / ``stats`` are what
        the query's previous host knew (for a live registration:
        active, fresh counters); the join cursor is the mirror's.  A
        query that is not active ships no window and no tail: the
        target never builds its engine."""
        svc = self._svc
        if QueryStatus(status) is not QueryStatus.ACTIVE:
            window = tail = ()
        return MigrationTicket(
            spec=RegisterSpec(
                query_id=info.query_id, query=info.query,
                labels=info.labels, engine=info.engine_obj,
                edge_label_fn=info.edge_label_fn,
                collect_results=info.collect_results),
            code=svc._intern_codes[info.query_id],
            joined_seq=info.joined_seq,
            status=status, error=error, stats=stats, result=result,
            window=window, tail=tail, final_now=svc._now, drained=drained)

    def _restore(self, info, ticket: MigrationTicket,
                 target: Optional[int], ctx) -> Tuple[int, List]:
        """MIGRATE_IN with crash retry: the ticket is self-contained,
        so if the chosen target dies mid-restore the same ticket is
        re-sent to the next healthy policy pick (never the shard the
        query is still placed on, its source).  Updates placement —
        what the router reads — on success."""
        from repro.cluster.coordinator import WorkerCrashError
        svc = self._svc
        banned = {svc._placement.shard_of(info.query_id)}
        while True:
            if target is None or not svc._workers[target].alive:
                try:
                    target = svc._placement.select_target(
                        query_pattern_keys(info.query),
                        exclude=banned)
                except RuntimeError:
                    self._lost(info)
                    raise MigrationError(
                        f"no live worker left to host "
                        f"{info.query_id!r}") from None
            try:
                reply = svc._request(
                    target, wire.encode_migrate_in(ticket, trace=ctx))
            except WorkerCrashError:
                banned.add(target)
                target = None
                continue
            svc._placement.move(info.query_id, target)
            self.permuted = True
            return target, reply.payload

    def _lost(self, info) -> None:
        """Every candidate target died mid-restore: the query's state
        is gone; quarantine it coordinator-side.  It stays placed (and
        routed for) where it was until it is unregistered or recovered."""
        svc = self._svc
        if info.active:
            info.status = QueryStatus.ERRORED
            info.error = "lost during migration: no live target worker"
            svc.stats.errored_queries += 1

    def _completed(self, info, pending: _Pending, target: int,
                   ticket: MigrationTicket) -> None:
        svc = self._svc
        record = MigrationRecord(
            query_id=info.query_id, source=pending.source, target=target,
            reason=pending.reason, window_edges=len(ticket.window),
            tail_events=len(ticket.tail), seq=svc._seq,
            elapsed_seconds=time.perf_counter() - pending.started)
        self.history.append(record)
        obs = svc.metrics
        if obs is not None:
            obs.counter("cluster_migrations_total",
                        "live query migrations completed",
                        reason=record.reason).inc()
            obs.histogram("cluster_migration_seconds",
                          "wall-clock per completed migration"
                          ).observe(record.elapsed_seconds)
            obs.counter("cluster_migration_window_edges_total",
                        "window edges shipped inside migration tickets"
                        ).inc(record.window_edges)
            obs.counter("cluster_migration_tail_events_total",
                        "buffered events replayed at migration finish"
                        ).inc(record.tail_events)

    def _set_pending_gauge(self) -> None:
        obs = self._svc.metrics
        if obs is not None:
            obs.gauge("cluster_migrations_pending",
                      "staged migrations awaiting finish"
                      ).set(len(self._pending))


__all__ = [
    "DEFAULT_MAX_TAIL", "MigrationError", "MigrationManager",
    "MigrationRecord",
]
