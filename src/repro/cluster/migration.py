"""Live query migration and elastic resharding for the cluster.

This module is the control plane that turns the coordinator's static
query->shard assignment into a live mapping.  The primitive is a
single-query **migration**, run inside one batch boundary:

1. the coordinator cuts the query's engine window — the ``(edge,
   seq)`` pairs it holds — from the front's window and detaches the
   query from its source worker (``MIGRATE_OUT``), receiving the
   worker's outcome of it (status, counters, collected results);
2. it ships a :class:`~repro.cluster.protocol.MigrationTicket` to the
   target worker (``MIGRATE_IN``), which rebuilds the engine by
   silently replaying the window and merges the surviving pairs into
   its own live deque;
3. the routing entry flips: the placement moves, and the router — which
   reads the placement — ships the query's edges to the target from the
   next batch on.

Detach, restore and flip happen back-to-back with no ingest in between,
so the hop is invisible: the merged notification stream is
byte-identical to a never-migrated run, because the window replay emits
nothing (the source already accounted those arrivals).

How every query reaches a worker
--------------------------------
As a ticket built by :meth:`MigrationManager.ticket`.  A query's engine
state is always the replay of its cut of the front's ``(edge, seq)``
window at its own join cursor (:meth:`~repro.service.interest.
QueryInterestIndex.window_of`; a checkpoint restore first refills that
window from the document), so a registration, a checkpoint restore, a
crash recovery and a migration differ only in who wrote the record the
ticket carries: the front, fresh; the checkpoint; the front, from what
it last knew; the front, with the source worker's outcome of
``MIGRATE_OUT``.  Only a recovery's ticket carries a *tail*: the events
routed to the query after its worker was lost, replayed live on the
new shard.  The front trims its window only after the back-end's
boundary hook — and so :meth:`~MigrationManager.before_batch` — had its
chance to recover, so everything live when a lost exchange began is
still held when the next boundary re-homes its queries: that makes a
recovery exact.

On top of the primitive sit the elastic operations the coordinator
re-exports: ``rebalance()`` (planned from per-query events processed
via :meth:`~repro.cluster.placement.ShardPlacement.plan_rebalance`),
``add_worker()``/``drain_worker()`` for shard split/merge, and
``recover()``, which re-homes the queries stranded on a quarantined
worker onto healthy shards.

Every completed hop makes a :class:`MigrationRecord` — the last
:data:`HISTORY` are kept (surfaced via ``/varz`` and the CLI report) —
and, when observability is on, increments per-reason counters, observes
a latency histogram and opens a ``migration`` root span with the
worker-side ``migrate_out``/``migrate_in`` spans as children.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster import protocol, wire
from repro.cluster.protocol import MigrationTicket
from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span
from repro.service.registry import QueryStatus, RegisteredQuery
from repro.streaming.driver import StreamResult

#: Completed migrations kept in :attr:`MigrationManager.history`.
HISTORY = 32


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


class MigrationManager:
    """The sharded back-end's migration control plane.

    A friend object of :class:`~repro.cluster.coordinator.
    ShardedBackend` (it drives the back-end's private RPC plane and reads
    its front's window and records); the service re-exports the public
    operations.
    """

    def __init__(self, backend):
        self._svc = backend
        #: The last :data:`HISTORY` completed migrations, oldest first.
        self.history: Deque[MigrationRecord] = deque(maxlen=HISTORY)
        #: Every completed migration, counted.
        self.completed = 0
        #: Set by the coordinator's quarantine path under
        #: ``auto_recover``; drained at the next batch boundary.
        self.needs_recovery = False
        #: Flipped once any migration lands: a migrated query registers
        #: at the *end* of its target worker's local registry, so one
        #: shard's notification stream may no longer follow global
        #: registration order — the coordinator's merge must sort even
        #: single-shard replies from then on.
        self.permuted = False

    def state(self) -> Dict[str, object]:
        """A JSON-ready view of the completed migrations: the running
        total and the kept history."""
        return {"completed": self.completed,
                "history": [record.to_dict() for record in self.history]}

    # ------------------------------------------------------------------
    # The migration primitive
    # ------------------------------------------------------------------
    def migrate(self, query_id: str, target: Optional[int] = None, *,
                reason: str = "manual") -> MigrationRecord:
        """Atomically move one query to ``target`` (the least-loaded
        other live shard when ``None``) inside the current batch
        boundary.

        The pause window is empty — detach, restore and routing flip
        happen back-to-back with no ingest in between — so the merged
        notification stream stays byte-identical to a never-migrated
        run.  Returns the completed :class:`MigrationRecord`.
        """
        svc = self._svc
        info, source, target = self._checked(query_id, target)
        started = time.perf_counter()
        with maybe_span(svc.tracer, "migration", query=query_id,
                        reason=reason) as root:
            window = svc.front.export_query_window(info)
            outcome = svc._request(source, svc._control_message(
                protocol.MIGRATE_OUT, query_id, root)).payload
            record, notes = self._land(
                info, self.ticket(info.with_outcome(outcome), window=window),
                source, target, reason, started, root)
        svc.front._deliver(notes)
        return record

    def before_batch(self) -> None:
        """Housekeeping at every batch boundary (the top of an ingest,
        advance or drain): auto-recover queries stranded by a crash, when
        enabled."""
        if self.needs_recovery:
            self.needs_recovery = False
            try:
                self.recover()
            except MigrationError:
                # No healthy target left; the stranded queries stay
                # errored until a worker is added.
                pass

    # ------------------------------------------------------------------
    # Elastic operations
    # ------------------------------------------------------------------
    def rebalance(self, *, tolerance: float = 0.1,
                  max_moves: Optional[int] = None) -> List[MigrationRecord]:
        """Plan and execute migrations that even out per-shard load,
        a query's load being the events it processed.  Returns the
        completed records (empty when the cluster is already within
        ``tolerance``)."""
        svc = self._svc
        by_id = {stats.query_id: stats
                 for stats in svc.front.all_query_stats()}
        load = {info.query_id: float(by_id[info.query_id].events_processed)
                for info in svc.front.registry.list()
                if info.active and info.query_id in by_id}
        plan = svc._placement.plan_rebalance(
            load, tolerance=tolerance, max_moves=max_moves)
        return [self.migrate(query_id, target, reason="rebalance")
                for query_id, _, target in plan]

    def recover(self, shard: Optional[int] = None
                ) -> List[MigrationRecord]:
        """Re-home the queries stranded on quarantined workers: a
        migration whose source record is the front's own, with a tail.

        It holds the front's status (queries the crash
        quarantined flip back to active, queries that had errored on
        their own stay errored) and the last counters fetched; the
        window is the query's cut of the front's at the cursor its
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
        front = svc.front
        records: List[MigrationRecord] = []
        for info in front.registry.list():
            source = svc._placement.shard_of(info.query_id)
            if ((shard is not None and source != shard)
                    or source not in svc._lost_from):
                continue
            started = time.perf_counter()
            crashed = bool(info.error) and info.error.startswith(
                f"worker {source} crashed")
            lost_seq, lost_now = svc._lost_from[source]
            pairs = front.window_at(info, lost_now)
            held = sum(1 for _, seq in pairs if seq < lost_seq)
            # The lost worker's results are gone; collection goes on.
            record = replace(info, result=(
                None if info.result is None else StreamResult()))
            if crashed:
                record.status, record.error = QueryStatus.ACTIVE, None
            with maybe_span(svc.tracer, "migration", query=info.query_id,
                            reason="recover",
                            tail=len(pairs) - held) as root:
                hop, notes = self._land(
                    info, self.ticket(record, window=pairs[:held],
                                      tail=pairs[held:]),
                    source, None, "recover", started, root)
            front._deliver(notes)
            if crashed:
                info.status = QueryStatus.ACTIVE
                info.error = None
            records.append(hop)
        return records

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _checked(self, query_id: str, target: Optional[int]):
        """Validate a migration request and settle its target (the
        least-loaded other live shard when ``None``) before anything is
        detached: a query pulled off its source with nowhere to land
        would be lost.  Returns ``(info, source, target)``."""
        svc = self._svc
        info = svc.front.registry.get(query_id)
        source = svc._placement.shard_of(query_id)
        if not svc._workers[source].alive:
            raise MigrationError(
                f"query {query_id!r} is stranded on dead shard "
                f"{source}; use recover_quarantined()")
        if target is None:
            try:
                target = svc._placement.select_target(exclude={source})
            except RuntimeError as exc:
                raise MigrationError(str(exc)) from None
        elif target == source:
            raise ValueError(
                f"query {query_id!r} already lives on shard {target}")
        elif not (0 <= target < len(svc._workers)
                  and svc._workers[target].alive):
            raise ValueError(f"target shard {target} is not live")
        return info, source, target

    def _land(self, info, ticket: MigrationTicket, source: int,
              target: Optional[int], reason: str, started: float,
              root) -> Tuple[MigrationRecord, List]:
        """Ticket a detached query onto its target and record the hop;
        returns the record and the tail-replay notifications."""
        svc = self._svc
        ctx = ((root.trace_id, root.span_id)
               if svc.tracer is not None else None)
        target, notes = self._restore(info, ticket, target, ctx)
        record = MigrationRecord(
            query_id=info.query_id, source=source, target=target,
            reason=reason, window_edges=len(ticket.window),
            tail_events=len(ticket.tail), seq=svc.front.seq,
            elapsed_seconds=time.perf_counter() - started)
        self._completed(record)
        return record, notes

    def ticket(self, record: RegisteredQuery, *,
               window: Tuple[Tuple[Edge, int], ...] = (),
               tail: Tuple[Tuple[Edge, int], ...] = ()) -> MigrationTicket:
        """The ticket that puts ``record``'s query on a worker — the one
        place one is built.  ``record`` is what the query's previous
        host knew (for a live registration: the front's fresh record).
        A query that is not active ships no window and no tail: the
        target never builds its engine."""
        if not record.active:
            window = tail = ()
        return MigrationTicket(
            record=record, code=self._svc._intern_codes[record.query_id],
            window=window, tail=tail, final_now=self._svc.front.now)

    def _restore(self, info, ticket: MigrationTicket,
                 target: Optional[int], ctx) -> Tuple[int, List]:
        """MIGRATE_IN with crash retry: the ticket is self-contained,
        so if the chosen target dies mid-restore the same ticket is
        re-sent to the next least-loaded healthy shard (never the shard
        the query is still placed on, its source).  Updates placement —
        what the router reads — on success."""
        from repro.cluster.coordinator import WorkerCrashError
        svc = self._svc
        banned = {svc._placement.shard_of(info.query_id)}
        while True:
            if target is None or not svc._workers[target].alive:
                try:
                    target = svc._placement.select_target(exclude=banned)
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
        self._svc.front.quarantine(
            info, "lost during migration: no live target worker")

    def _completed(self, record: MigrationRecord) -> None:
        self.history.append(record)
        self.completed += 1
        obs = self._svc.metrics
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
                        "events a recovery replayed on the new shard"
                        ).inc(record.tail_events)


__all__ = ["MigrationError", "MigrationManager", "MigrationRecord"]
