"""Shard worker: one process hosting a full :class:`MatchService`.

Every worker owns the complete service machinery — engines, per-query
quarantine, stats — over its *shard* of the registered queries.  The
coordinator interest-routes, so the worker sees only the sub-batches
some hosted query may care about, each edge tagged with its global
arrival sequence number plus the batch's closing cursor
(:meth:`MatchService.ingest_routed` keeps the local window and stream
position consistent with the global stream).  A query arrives as a
ticket (``MIGRATE_IN``: a registration, a restore, a recovery or a
migration) carrying its record — its global join cursor among it — and
its reply-wire code, and is hosted through the service's one host path;
a ticket of another format is refused.  Nothing is synced ahead of it,
and nothing depends on the worker's own stream position being current
between the frames it is sent.

Failure layers, innermost first:

* an engine or per-query failure is absorbed by the inner
  :class:`~repro.service.MatchService` (the query is quarantined, the
  rest of the shard keeps matching) and reported in the reply's
  ``errors`` field;
* an exception escaping the dispatcher (unknown query id, unknown
  engine kind) or the request decoder (a frame that fails its length
  checks, a pickle that does not load) becomes a ``Reply.failure``
  and the worker keeps serving;
* a ``BaseException`` (``SystemExit``, a segfaulting C extension, an
  OOM kill) takes the whole process down, which the coordinator
  observes as a broken pipe and answers by quarantining the shard.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, Tuple

from repro.cluster import protocol, wire
from repro.cluster.protocol import Reply
from repro.obs.trace import Tracer, pack_spans
from repro.service.service import MatchService

#: Ingest-path verbs a worker wraps in a span when tracing is on (the
#: span is parented on the request's piggybacked trace context and
#: ships back inside the reply's metrics tuple).
_TRACED_VERBS = {
    protocol.INGEST_BATCH: "shard_ingest",
    protocol.INGEST_ROUTED: "shard_ingest",
    protocol.DRAIN: "shard_drain",
    protocol.MIGRATE_OUT: "migrate_out",
    protocol.MIGRATE_IN: "migrate_in",
}


class ShardWorker:
    """Dispatcher around one shard's :class:`MatchService`.

    With ``metrics=True`` the worker owns a full
    :class:`~repro.obs.MetricsRegistry` wired into its inner service
    (per-query engine-time and match-delta histograms, stage spans);
    its snapshot rides back on the existing ``STATS`` verb, and every
    reply piggybacks two integer deltas — dispatch busy-nanoseconds and
    edges ingested — so the coordinator's per-shard latency histograms
    stay current without new IPC verbs.
    """

    def __init__(self, delta: int, metrics: bool = False,
                 tracing: bool = False):
        self.metrics = None
        if metrics:
            from repro.obs import MetricsRegistry
            self.metrics = MetricsRegistry()
        # A worker tracer only ever holds the spans of the request in
        # flight (they drain onto every reply), so a small buffer does.
        self.tracer = Tracer(max_finished=64) if tracing else None
        self.service = MatchService(delta, metrics=self.metrics)
        # Quarantines already reported (or initiated by the
        # coordinator): only *new* errors ride back on replies.
        self._reported: set = set()
        self._routed_seen = 0
        self._skipped_seen = 0
        self._edges_seen = 0
        #: Per hosted query id, its :func:`wire.reply_shape`, under
        #: the interned code its ticket brought.
        self.shapes: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def dispatch(self, verb: str, payload: object) -> object:
        service = self.service
        if verb == protocol.INGEST_ROUTED:
            return service.ingest_routed(
                payload.pairs, payload.final_now, payload.final_seq)
        if verb == protocol.INGEST_BATCH:
            # Unsent by the coordinator; see wire.encode_ingest.
            return service.process_batch(payload)
        if verb == protocol.DRAIN:
            return service.drain()
        if verb == protocol.UNREGISTER:
            self._forget(payload)
            return service.unregister(payload).outcome()
        if verb == protocol.DESCRIBE:
            return service.registry.get(payload).outcome()
        if verb == protocol.QUERY_STATS:
            return service.registry.get(payload).stats
        if verb == protocol.QUARANTINE:
            return self._quarantine(payload)
        if verb == protocol.MIGRATE_OUT:
            return self._migrate_out(payload)
        if verb == protocol.MIGRATE_IN:
            return self._migrate_in(payload)
        if verb == protocol.STATS:
            return (service.stats,
                    {e.query_id: e.stats for e in service.registry.list()},
                    self.metrics.snapshot() if self.metrics else {})
        if verb == protocol.STOP:
            return None
        raise ValueError(f"unknown request verb {verb!r}")

    def _migrate_out(self, query_id: str) -> tuple:
        """Detach one query: drop it from the registry and return its
        record's :meth:`~repro.service.registry.RegisteredQuery.outcome`
        (status, counters, collected result).  Its window is not sent
        back: the coordinator cuts it from its own.  Registry-level
        removal (not ``service.unregister``) keeps the service's
        registered / unregistered counters untouched — a migration is
        not a user-visible retire; the back-end still forgets it."""
        service = self.service
        entry = service.backend.retire(service.registry.unregister(query_id))
        self._forget(query_id)
        return entry.outcome()

    def _forget(self, query_id: str) -> None:
        """Drop what this worker keeps per hosted query."""
        self._reported.discard(query_id)
        self.shapes.pop(query_id, None)

    def _migrate_in(self, ticket: protocol.MigrationTicket):
        """Host a query from its ticket (a registration, restore,
        recovery or migration: they differ only in what it holds)
        through the service's one host path; returns the tail-replay
        notifications.  The join cursor is the record's global one:
        this worker's own position lags when the router has not
        contacted it.  A ticket of another format is refused."""
        expected = protocol.MigrationTicket.format
        if ticket.format != expected:
            raise ValueError(f"not a migration ticket: format "
                             f"{ticket.format!r} (expected {expected!r})")
        record = ticket.record
        # Errored before it came: nothing new to report.
        arrived_errored = not record.active
        notes = self.service.host(record, ticket.window, ticket.tail,
                                  ticket.final_now)
        self.shapes[record.query_id] = wire.reply_shape(ticket.code,
                                                        record.query)
        if arrived_errored:
            self._reported.add(record.query_id)
        return notes

    def _quarantine(self, payload: Tuple[str, str]) -> None:
        """Coordinator-initiated quarantine (a subscriber failed on the
        coordinator side; stop routing events to the query here)."""
        query_id, message = payload
        self.service.quarantine(self.service.registry.get(query_id),
                                message)
        self._reported.add(query_id)

    # ------------------------------------------------------------------
    # Reply bookkeeping
    # ------------------------------------------------------------------
    def new_errors(self) -> Tuple[Tuple[str, str], ...]:
        """Queries quarantined by the inner service since last reply."""
        fresh = []
        for entry in self.service.registry.list():
            if not entry.active and entry.query_id not in self._reported:
                self._reported.add(entry.query_id)
                fresh.append((entry.query_id, entry.error or "errored"))
        return tuple(fresh)

    def routed_delta(self) -> int:
        """(event, query) routings performed since the last reply."""
        current = self.service.stats.events_routed
        delta, self._routed_seen = current - self._routed_seen, current
        return delta

    def skipped_delta(self) -> int:
        """(event, query) interest skips performed since the last
        reply."""
        current = self.service.stats.events_skipped
        delta, self._skipped_seen = current - self._skipped_seen, current
        return delta

    def metric_deltas(self, busy_ns: int,
                      force: bool = False) -> Tuple[int, ...]:
        """The positional metric tuple to piggyback on the next reply
        (see :class:`~repro.cluster.protocol.Reply`); empty when
        metrics are off so pre-metrics frames stay byte-identical.
        ``force`` emits the pair even with metrics off — packed spans
        ride at indices 2+, so a traced reply always needs the first
        two slots filled."""
        if self.metrics is None and not force:
            return ()
        current = self.service.stats.edges_ingested
        edges, self._edges_seen = current - self._edges_seen, current
        return (busy_ns, edges)


def shard_worker_main(conn, delta: int, metrics: bool = False,
                      tracing: bool = False) -> None:
    """Worker process entry point: strict request/reply loop.

    Requests arrive either as pickle streams (control verbs) or as
    packed binary frames (everything that carries edges, sniffed by
    magic prefix); whichever it was, the reply is a binary frame
    whenever it is packable — notifications with no failure or
    piggybacked errors — with pickle as the transparent fallback.  With
    ``tracing`` on, ingest-path requests carrying a trace context get
    a shard-side span whose packed form rides back on the reply's
    metrics tuple.
    """
    worker = ShardWorker(delta, metrics=metrics, tracing=tracing)
    tracer = worker.tracer
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, KeyboardInterrupt):
            break
        verb = span = None
        dispatch_start = time.perf_counter_ns()
        try:
            # Decoding is inside the boundary: a request this worker
            # cannot read is answered like one it cannot serve, and
            # the pipe stays in step.
            if wire.is_request_frame(data):
                verb, payload, ctx = wire.decode_request(data)
            else:
                verb, payload, *rest = pickle.loads(data)
                ctx = rest[0] if rest else None
            name = _TRACED_VERBS.get(verb) if tracer is not None else None
            if name is not None and ctx is not None:
                span = tracer.span(name, remote=ctx).__enter__()
            result = worker.dispatch(verb, payload)
            failure = None
        except Exception as exc:  # noqa: BLE001 - request-level boundary
            result, failure = None, (type(exc).__name__, str(exc))
        busy_ns = time.perf_counter_ns() - dispatch_start
        if span is not None:
            span.__exit__(None, None, None)
        extra = (pack_spans(tracer.take_finished())
                 if tracer is not None else ())
        deltas = worker.metric_deltas(busy_ns, force=bool(extra)) + extra
        reply = Reply(payload=result, errors=worker.new_errors(),
                      routed=worker.routed_delta(),
                      skipped=worker.skipped_delta(),
                      failure=failure, metrics=deltas)
        frame = wire.encode_reply(reply, worker.shapes)
        try:
            if frame is not None:
                conn.send_bytes(frame)
            else:
                conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if verb == protocol.STOP:
            break
    conn.close()
