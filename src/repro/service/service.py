"""The multi-query continuous matching service.

A :class:`MatchService` owns one shared sliding window over one edge
stream and fans every arrival/expiration event out to N registered
queries, each backed by its own engine (TCM or any baseline).  This is
the standard deployment model of continuous subgraph matching: many
long-lived detection queries over one stream, registered and retired at
runtime.

Semantics, matching Algorithm 1's event list exactly:

* an edge ``(u, v, t)`` arrives at ``t`` and expires at ``t + delta``;
* at the moment an arrival at ``t`` is processed, every live edge with
  timestamp ``<= t - delta`` has already expired (the window is the
  half-open interval ``(t - delta, t]``);
* a query registered mid-stream only receives events from its
  registration point on — in particular it never receives the
  expiration of an edge whose arrival it did not see, so its engine's
  window copy stays consistent;
* a failing engine (or subscriber) quarantines only its own query: the
  error is recorded on the registry entry and the remaining queries
  keep matching;
* every event is fanned out only to the engines whose query could
  possibly match it, as decided by the registry's
  :class:`~repro.service.interest.QueryInterestIndex`; the rest is
  counted as skipped without an engine dispatch.  The index only prunes
  dispatches that were guaranteed to return nothing, and it decides
  per query from the registration itself: a query registered with a
  callable engine factory is never indexed (it sees every event), and
  an edge touching a vertex with no label is offered to every query of
  its label domain.

Because engines own their within-window graph copy, the service itself
only tracks the live-edge FIFO and the high-water mark; that pair (plus
the registry) is exactly what :mod:`repro.service.checkpoint` persists.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span
from repro.query.temporal_query import TemporalQuery
from repro.service.registry import (
    EngineFactory, QueryRegistry, RegisteredQuery,
)
from repro.service.stats import ServiceStats
from repro.streaming.events import Event, EventKind
from repro.streaming.match import Match


class OutOfOrderError(ValueError):
    """An ingested edge went backwards in time.

    ``notifications`` carries the notifications already routed for the
    accepted prefix of the batch — engines and subscribers have seen
    those events, so a caller that catches the error and continues must
    not lose them.
    """

    def __init__(self, message: str,
                 notifications: "List[MatchNotification]"):
        super().__init__(message)
        self.notifications = notifications


class MatchNotification(NamedTuple):
    """One routed result: ``query_id`` matched (or unmatched) on ``event``.

    ``seq`` is the arrival sequence number of the event's edge — for an
    expiration, the seq of the arrival it closes.  Together with the
    event time and kind it totally orders the service's event stream,
    which is what lets the sharded service (:mod:`repro.cluster`) merge
    per-shard notification streams back into exactly the order a
    single-process service would have emitted.

    A ``NamedTuple`` like :class:`Match`: one is built per reported
    embedding per query, here and again in ``wire.decode_reply``.  The
    notifications one event produces share its :class:`Event`, and
    embeddings found below one search node share that node's
    :class:`Edge`; the reply frame names every edge once, so decoded
    notifications share one ``Edge`` per distinct edge of the reply.
    A decoded notification therefore costs 3.4 objects the cyclic
    collector tracks (itself, its match, its edge map, its share of the
    reply's events and edges) where rebuilding all of them per
    notification cost 9.7 (``cluster_2w``, seed 0).
    """

    query_id: str
    event: Event
    match: Match
    seq: int = -1

    @property
    def occurred(self) -> bool:
        """True for an occurrence, False for an expiration."""
        return self.event.is_arrival


def _run_batch(engine, events: List[Event]) -> List[List[Match]]:
    """Feed ``events`` to ``engine`` in one batch.

    Duck-typed engines written against the per-event interface (custom
    factories without ``on_batch``) get the equivalent per-event loop.
    """
    on_batch = getattr(engine, "on_batch", None)
    if on_batch is not None:
        return on_batch(events)
    return [engine.on_edge_insert(ev.edge) if ev.is_arrival
            else engine.on_edge_expire(ev.edge) for ev in events]


def validated_prefix(edges: List[Edge], now: Optional[int]
                     ) -> Tuple[List[Edge], Optional[str]]:
    """Split a batch at its first out-of-order edge: the accepted prefix
    and the rejection message (``None`` when the whole batch is in
    order).  ``now`` is the stream high-water mark before the batch."""
    for index, edge in enumerate(edges):
        if now is not None and edge.t < now:
            return edges[:index], (
                f"out-of-order arrival: t={edge.t} after now={now}")
        now = edge.t
    return edges, None


class MatchService:
    """Hosts N continuous queries over one shared windowed edge stream.

    Parameters
    ----------
    delta:
        The shared window size; every hosted query matches within the
        same window (one stream, one window, many queries).
    registry:
        Optional pre-built :class:`QueryRegistry` (used by checkpoint
        restore); a fresh one is created by default.
    engine_factories:
        Optional engine-kind registry overriding the benchmark default.
    """

    def __init__(self, delta: int, *,
                 registry: Optional[QueryRegistry] = None,
                 engine_factories: Optional[Dict[str, EngineFactory]] = None,
                 metrics=None, tracer=None):
        if delta <= 0:
            raise ValueError("window size delta must be positive")
        #: Optional :class:`~repro.obs.Tracer`.  When set, every batch
        #: call opens a ``service_batch`` root span with route/
        #: dispatch/notify children; ``None`` (the default) costs the
        #: hot path nothing beyond per-batch ``is None`` checks.
        self.tracer = tracer
        self.delta = delta
        self.registry = registry or QueryRegistry(engine_factories)
        self.stats = ServiceStats()
        self._live: Deque[Tuple[Edge, int]] = deque()  # (edge, arrival seq)
        self._now: Optional[int] = None
        self._seq = 0
        #: Optional :class:`~repro.obs.MetricsRegistry`.  ``None`` (the
        #: default) disables all metric work: the fan-out loops guard
        #: every observation behind ``is None`` checks, so the
        #: metrics-off hot path is byte-for-byte the uninstrumented
        #: one.  With a registry, per-stage spans (route/dispatch/
        #: notify), per-query engine-time and match-delta histograms
        #: are observed live, and a snapshot-time collector mirrors
        #: the Service/Query/Engine counters into the registry.
        self.metrics = metrics
        self._obs = metrics
        if metrics is not None:
            self._h_ingest = metrics.histogram(
                "service_ingest_seconds",
                "seconds per service ingest/advance/drain call")
            self._h_route = metrics.histogram(
                "service_route_seconds",
                "seconds resolving per-batch interest routing")
            self._h_notify = metrics.histogram(
                "service_notify_seconds",
                "seconds recording results and firing subscribers")
            from repro.obs import SIZE_BUCKETS
            self._h_batch_events = metrics.histogram(
                "service_batch_events", "events per fanned-out batch",
                SIZE_BUCKETS)
            self._query_hists: Dict[str, Tuple] = {}
            metrics.add_collector(self._export_metrics)

    # ------------------------------------------------------------------
    # Registration façade
    # ------------------------------------------------------------------
    @property
    def now(self) -> Optional[int]:
        """The stream high-water mark (None before any edge)."""
        return self._now

    @property
    def seq(self) -> int:
        """Number of arrivals ingested so far (the join cursor)."""
        return self._seq

    def register(self, query: TemporalQuery, labels: Dict[int, object],
                 engine: object = "tcm", *,
                 query_id: Optional[str] = None,
                 edge_label_fn: Optional[Callable] = None,
                 subscriber: Optional[Callable] = None,
                 collect_results: bool = True) -> str:
        """Register a continuous query; returns its query id.

        Safe mid-stream: the query only sees arrivals ingested after
        this call (and only the expirations of those arrivals).
        """
        entry = self.registry.register(
            query, labels, engine, query_id=query_id,
            joined_seq=self._seq, edge_label_fn=edge_label_fn,
            subscriber=subscriber, collect_results=collect_results)
        self.stats.registered_total += 1
        return entry.query_id

    def unregister(self, query_id: str) -> RegisteredQuery:
        """Retire a query mid-stream; returns its final entry (with
        stats and any collected results)."""
        entry = self.registry.unregister(query_id)
        self.stats.unregistered_total += 1
        return entry

    def subscribe(self, query_id: str,
                  callback: Callable[[MatchNotification], None]) -> None:
        """Attach ``callback`` to a query's result feed."""
        self.registry.get(query_id).subscribers.append(callback)

    def query_stats(self, query_id: str):
        """The :class:`QueryStats` of one registered query."""
        return self.registry.get(query_id).stats

    def health(self) -> Dict[str, object]:
        """Liveness summary (read-only; safe from the admin server's
        thread).  A single-process service is alive by construction,
        so ``status`` is always ``"ok"`` — quarantined queries are
        reported but do not degrade the service itself."""
        entries = list(self.registry.entries())
        return {"status": "ok",
                "queries": len(entries),
                "errored_queries": sum(
                    1 for e in entries if not e.active),
                "live_edges": len(self._live)}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, edges: Iterable[Edge]) -> List[MatchNotification]:
        """Ingest one chronological batch of edges.

        Edges must arrive in non-decreasing timestamp order across all
        batches (the streaming contract); a violation raises
        :class:`OutOfOrderError`, whose ``notifications`` attribute
        carries the results of the batch's accepted prefix.  Returns
        every notification routed during the batch, in event order.
        """
        notifications: List[MatchNotification] = []
        start = time.perf_counter()
        root = maybe_span(self.tracer, "service_batch").__enter__()
        # Counters update per edge inside try/finally: a mid-batch
        # rejection (out-of-order edge) must leave the stats consistent
        # with the events that were already fanned out.
        try:
            for edge in edges:
                if self._now is not None and edge.t < self._now:
                    raise OutOfOrderError(
                        f"out-of-order arrival: t={edge.t} after "
                        f"now={self._now}", notifications)
                self._expire_until(edge.t, notifications)
                self._now = edge.t
                # Advance the join cursor before fanning out: a query
                # registered from inside a subscriber callback missed
                # this arrival (it is not in the entry snapshot being
                # iterated), so it must not be routed its expiration.
                seq = self._seq
                self._seq += 1
                event = Event(edge, edge.t, EventKind.ARRIVAL)
                self._fanout(event, seq, notifications)
                self._live.append((edge, seq))
                self.stats.edges_ingested += 1
        finally:
            root.__exit__(None, None, None)
            self.stats.batches += 1
            spent = time.perf_counter() - start
            self.stats.elapsed_seconds += spent
            if self._obs is not None:
                self._h_ingest.observe(spent)
        return notifications

    def process_batch(self, edges: Iterable[Edge]
                      ) -> List[MatchNotification]:
        """Batched ingestion: like :meth:`ingest`, but each engine sees
        the batch's whole event list through one
        :meth:`~repro.streaming.engine.MatchEngine.on_batch` call.

        Notifications are identical to :meth:`ingest` — same events,
        same matches, same order (event order, registry order within an
        event) — but delivery is *batch-granular*: engines run first,
        then results are recorded and subscribers fire in event order.
        A query registered from inside a subscriber callback therefore
        joins at the batch boundary (first sees the next batch), where
        :meth:`ingest` applies it mid-fan-out — the same batch-boundary
        semantics the sharded service documents.  A failing engine
        quarantines its query and contributes nothing for the batch.
        """
        edges = list(edges)
        notifications: List[MatchNotification] = []
        start = time.perf_counter()
        root = maybe_span(self.tracer, "service_batch",
                          events=len(edges)).__enter__()
        try:
            prefix, failure = validated_prefix(edges, self._now)
            events: List[Tuple[Event, int]] = []
            for edge in prefix:
                self._collect_expirations(edge.t, events)
                self._now = edge.t
                seq = self._seq
                self._seq += 1
                events.append((Event(edge, edge.t, EventKind.ARRIVAL), seq))
                self._live.append((edge, seq))
                self.stats.edges_ingested += 1
            if events:
                self._fanout_batch(events, notifications,
                                   trace_parent=root)
        finally:
            root.__exit__(None, None, None)
            self.stats.batches += 1
            spent = time.perf_counter() - start
            self.stats.elapsed_seconds += spent
            if self._obs is not None:
                self._h_ingest.observe(spent)
        if failure is not None:
            raise OutOfOrderError(failure, notifications)
        return notifications

    def _collect_expirations(self, t: int,
                             out: List[Tuple[Event, int]]) -> None:
        """Pop live edges whose window closes at or before ``t`` and
        append their expiration events (see :meth:`_expire_until`)."""
        delta = self.delta
        live = self._live
        while live and live[0][0].t + delta <= t:
            edge, seq = live.popleft()
            out.append((Event(edge, edge.t + delta, EventKind.EXPIRATION),
                        seq))

    def _fanout_batch(self, events: List[Tuple[Event, int]],
                      out: List[MatchNotification],
                      trace_parent=None) -> None:
        """Run every eligible engine over the batch, then route the
        per-event results in global event order.

        The label triple of every event is resolved once per batch
        (not once per engine) and each engine only receives the
        sub-batch it is interested in; the remainder is tallied as
        skipped without touching the engine.
        ``trace_parent`` (a live span) nests route/dispatch/notify
        stage spans under the caller's batch root.
        """
        registry = self.registry
        obs = self._obs
        tracer = self.tracer if trace_parent is not None else None
        entries = [entry for entry in registry.entries() if entry.active]
        route_start = time.perf_counter() if obs is not None else 0.0
        with maybe_span(tracer, "route", parent=trace_parent):
            lookup = registry.interest.lookup_ids
            interest_sets = [lookup(ev.edge) for ev, _ in events]
        if obs is not None:
            self._h_route.observe(time.perf_counter() - route_start)
            self._h_batch_events.observe(len(events))
        per_entry: Dict[str, Dict[int, List[Match]]] = {}
        dispatch = maybe_span(tracer, "dispatch", parent=trace_parent,
                              queries=len(entries)).__enter__()
        for entry in entries:
            joined = entry.joined_seq
            query_id = entry.query_id
            eligible = []
            skipped = 0
            for pair, interested in zip(events, interest_sets):
                if pair[1] < joined:
                    continue
                if query_id in interested:
                    eligible.append(pair)
                else:
                    skipped += 1
            if skipped:
                entry.stats.events_skipped += skipped
                self.stats.events_skipped += skipped
            if not eligible:
                continue
            self.stats.events_routed += len(eligible)
            stats = entry.stats
            began = time.perf_counter()
            try:
                lists = _run_batch(entry.engine, [ev for ev, _ in eligible])
                stats.events_processed += len(eligible)
                stats.batches_processed += 1
                stats.note_structure_size(
                    entry.engine.stats.peak_structure_entries)
                # (seq, kind) uniquely keys an event: every arrival gets
                # its own seq, and an expiration reuses its arrival's.
                per_entry[entry.query_id] = {
                    (seq, ev.kind): matches
                    for (ev, seq), matches in zip(eligible, lists)}
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                entry.mark_errored(exc)
                self.stats.errored_queries += 1
            finally:
                spent = time.perf_counter() - began
                stats.elapsed_seconds += spent
                if obs is not None:
                    engine_hist, delta_hist = self._query_observers(
                        entry.query_id)
                    engine_hist.observe(spent)
                    matched = per_entry.get(entry.query_id)
                    if matched is not None:
                        delta_hist.observe(sum(
                            len(m) for m in matched.values()))
        dispatch.__exit__(None, None, None)
        notify_start = time.perf_counter() if obs is not None else 0.0
        notify = maybe_span(tracer, "notify",
                            parent=trace_parent).__enter__()
        # Route in global event order, registry order within an event —
        # exactly the order the per-event path emits.
        for ev, seq in events:
            arrival = ev.is_arrival
            key = (seq, ev.kind)
            for entry in entries:
                by_event = per_entry.get(entry.query_id)
                if (by_event is None or not entry.active
                        or entry.query_id not in registry):
                    continue
                matches = by_event.get(key)
                if not matches:
                    continue
                stats = entry.stats
                if arrival:
                    stats.occurred += len(matches)
                else:
                    stats.expired += len(matches)
                began = time.perf_counter()
                try:
                    for match in matches:
                        notification = MatchNotification(
                            entry.query_id, ev, match, seq)
                        if entry.result is not None:
                            if arrival:
                                entry.result.occurred.append((ev, match))
                            else:
                                entry.result.expired.append((ev, match))
                        for callback in entry.subscribers:
                            callback(notification)
                        out.append(notification)
                except Exception as exc:  # noqa: BLE001 - isolation
                    entry.mark_errored(exc)
                    self.stats.errored_queries += 1
                finally:
                    stats.elapsed_seconds += time.perf_counter() - began
        for entry in entries:
            if entry.result is not None and entry.query_id in per_entry:
                entry.result.events_processed += len(per_entry[
                    entry.query_id])
        notify.__exit__(None, None, None)
        if obs is not None:
            self._h_notify.observe(time.perf_counter() - notify_start)

    def ingest_routed(self, pairs: List[Tuple[Edge, int]],
                      final_now: int, final_seq: int
                      ) -> List[MatchNotification]:
        """Ingest a routed *subset* of a globally ordered stream.

        This is the shard-worker entry point of the interest-routed
        cluster: ``pairs`` carries only the edges some hosted query is
        interested in, each paired with its **global** arrival sequence
        number, while ``final_now``/``final_seq`` are the whole batch's
        closing cursor.  After the subset is processed, the clock is
        advanced to ``final_now`` so that live edges whose window closed
        during the unseen remainder of the batch expire *now* — in the
        same call a full-stream service would have expired them — and
        the sequence cursor adopts ``final_seq`` so later registrations
        join at the global stream position.

        The caller (the cluster coordinator) has already validated
        stream order across the full batch; engines are fed through
        ``on_batch`` exactly like :meth:`process_batch`.
        """
        notifications: List[MatchNotification] = []
        start = time.perf_counter()
        try:
            if (pairs and self._now is not None
                    and pairs[0][0].t < self._now):
                raise OutOfOrderError(
                    f"out-of-order routed batch: t={pairs[0][0].t} after "
                    f"now={self._now}", notifications)
            events: List[Tuple[Event, int]] = []
            for edge, seq in pairs:
                self._collect_expirations(edge.t, events)
                self._now = edge.t
                events.append((Event(edge, edge.t, EventKind.ARRIVAL), seq))
                self._live.append((edge, seq))
                self.stats.edges_ingested += 1
            self._collect_expirations(final_now, events)
            if events:
                self._fanout_batch(events, notifications)
            if self._now is None or final_now > self._now:
                self._now = final_now
            self._seq = final_seq
        finally:
            self.stats.batches += 1
            spent = time.perf_counter() - start
            self.stats.elapsed_seconds += spent
            if self._obs is not None:
                self._h_ingest.observe(spent)
        return notifications

    def advance_to(self, t: int) -> List[MatchNotification]:
        """Advance the clock to ``t`` without ingesting edges, expiring
        every edge whose window has closed."""
        notifications: List[MatchNotification] = []
        start = time.perf_counter()
        if self._now is None or t > self._now:
            self._now = t
        self._expire_until(self._now, notifications)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return notifications

    def drain(self) -> List[MatchNotification]:
        """Expire every remaining live edge (end of stream).

        The arrival cursor (``now``) is deliberately left at the last
        arrival timestamp: draining flushes the window, it does not
        fast-forward the stream, so a checkpoint taken after a drain
        still resumes from the last edge actually ingested.
        """
        notifications: List[MatchNotification] = []
        start = time.perf_counter()
        while self._live:
            edge, seq = self._live.popleft()
            event = Event(edge, edge.t + self.delta, EventKind.EXPIRATION)
            self._fanout(event, seq, notifications)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return notifications

    # ------------------------------------------------------------------
    # Live migration hooks (used by repro.cluster)
    # ------------------------------------------------------------------
    def export_query_window(self, entry: RegisteredQuery
                            ) -> Tuple[Tuple[Edge, int], ...]:
        """The ``(edge, arrival seq)`` pairs currently inside ``entry``'s
        engine window.

        This is the subset of the service's live deque the query was
        eligible for: arrivals at or after its join cursor that the
        interest index routed to it.  Interest decisions depend only on
        the query's own registration data, so re-evaluating them here
        reproduces exactly the arrivals the engine saw.  Call *before* unregistering — the
        lookup needs the query still indexed.
        """
        if not entry.active:
            return ()
        joined = entry.joined_seq
        query_id = entry.query_id
        lookup = self.registry.interest.lookup_ids
        return tuple((edge, seq) for edge, seq in self._live
                     if seq >= joined and query_id in lookup(edge))

    def adopt_query(self, entry: RegisteredQuery,
                    window: Tuple[Tuple[Edge, int], ...],
                    tail: Tuple[Tuple[Edge, int], ...] = (), *,
                    final_now: Optional[int] = None,
                    drain_tail: bool = False) -> List[MatchNotification]:
        """Adopt a migrated query: rebuild its engine window, replay the
        in-flight tail, and merge what is still live into the shared
        deque.

        ``window`` is replayed *silently* — the source already
        dispatched those arrivals, accounted them in the stats shipped
        with the query, and emitted their notifications, so here they
        only rebuild derived engine state.  ``tail`` events (arrivals
        buffered while the query was detached) are replayed *live*
        against a private window copy: interleaved expirations and
        arrivals are dispatched, counted and notified exactly as the
        normal fan-out would have.  ``final_now`` then privately expires
        whatever fell due during the hop, and the remaining pairs are
        merged seq-ordered into the live deque, skipping seqs the deque
        already holds (edges this service received for its other
        queries) so no edge ever expires twice.

        Double-expiration safety: callers invoke this at a batch
        boundary, where every expiration due at or before the global
        clock has been flushed — so the shared deque holds only edges
        expiring *after* ``final_now``, while the private replay only
        ever expires edges due at or before it; the two sets cannot
        intersect.
        """
        notifications: List[MatchNotification] = []
        qwindow: Deque[Tuple[Edge, int]] = deque()
        if entry.active and window:
            try:
                _run_batch(entry.engine,
                           [Event(edge, edge.t, EventKind.ARRIVAL)
                            for edge, _ in window])
                qwindow.extend(window)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                entry.mark_errored(exc)
                self.stats.errored_queries += 1
        if entry.active:
            lookup = self.registry.interest.lookup_ids
            for edge, seq in tail:
                self._replay_expirations(entry, qwindow, edge.t,
                                         notifications)
                if not entry.active:
                    break
                if entry.query_id not in lookup(edge):
                    entry.stats.events_skipped += 1
                    self.stats.events_skipped += 1
                    continue
                event = Event(edge, edge.t, EventKind.ARRIVAL)
                self._replay_event(entry, event, seq, notifications)
                qwindow.append((edge, seq))
            if entry.active and drain_tail:
                while qwindow and entry.active:
                    edge, seq = qwindow.popleft()
                    event = Event(edge, edge.t + self.delta,
                                  EventKind.EXPIRATION)
                    self._replay_event(entry, event, seq, notifications)
            elif entry.active and final_now is not None:
                self._replay_expirations(entry, qwindow, final_now,
                                         notifications)
        if drain_tail or not entry.active:
            return notifications
        # Merge the surviving window into the shared live deque.
        if qwindow:
            present = {seq for _, seq in self._live}
            fresh = [pair for pair in qwindow if pair[1] not in present]
            if fresh:
                merged = sorted([*self._live, *fresh],
                                key=lambda pair: pair[1])
                self._live = deque(merged)
        if final_now is not None and (self._now is None
                                      or final_now > self._now):
            self._now = final_now
        return notifications

    def _replay_expirations(self, entry: RegisteredQuery,
                            qwindow: Deque[Tuple[Edge, int]], t: int,
                            out: List[MatchNotification]) -> None:
        """Expire the private window up to ``t`` (same closing rule as
        :meth:`_expire_until`), dispatching to ``entry`` only."""
        delta = self.delta
        while qwindow and entry.active and qwindow[0][0].t + delta <= t:
            edge, seq = qwindow.popleft()
            event = Event(edge, edge.t + delta, EventKind.EXPIRATION)
            self._replay_event(entry, event, seq, out)

    def _replay_event(self, entry: RegisteredQuery, event: Event,
                      seq: int, out: List[MatchNotification]) -> None:
        """Dispatch one replayed event to one entry — the per-entry body
        of :meth:`_fanout`, with identical accounting and isolation."""
        arrival = event.is_arrival
        self.stats.events_routed += 1
        stats = entry.stats
        matches = None
        began = time.perf_counter()
        try:
            if arrival:
                matches = entry.engine.on_edge_insert(event.edge)
            else:
                matches = entry.engine.on_edge_expire(event.edge)
            stats.events_processed += 1
            if arrival:
                stats.occurred += len(matches)
            else:
                stats.expired += len(matches)
            stats.note_structure_size(
                entry.engine.stats.peak_structure_entries)
            for match in matches:
                notification = MatchNotification(
                    entry.query_id, event, match, seq)
                if entry.result is not None:
                    if arrival:
                        entry.result.occurred.append((event, match))
                    else:
                        entry.result.expired.append((event, match))
                for callback in entry.subscribers:
                    callback(notification)
                out.append(notification)
            if entry.result is not None:
                entry.result.events_processed += 1
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            entry.mark_errored(exc)
            self.stats.errored_queries += 1
        finally:
            spent = time.perf_counter() - began
            stats.elapsed_seconds += spent
            if self._obs is not None:
                engine_hist, delta_hist = self._query_observers(
                    entry.query_id)
                engine_hist.observe(spent)
                if matches is not None:
                    delta_hist.observe(len(matches))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _expire_until(self, t: int,
                      out: List[MatchNotification]) -> None:
        """Expire live edges whose window closes at or before time ``t``
        (an edge with timestamp ``<= t - delta`` is outside ``(t -
        delta, t]``, so its expiration precedes the arrival at ``t``)."""
        while self._live and self._live[0][0].t + self.delta <= t:
            edge, seq = self._live.popleft()
            event = Event(edge, edge.t + self.delta, EventKind.EXPIRATION)
            self._fanout(event, seq, out)

    def _fanout(self, event: Event, seq: int,
                out: List[MatchNotification]) -> None:
        """Route one event to every eligible query, isolating failures."""
        arrival = event.is_arrival
        registry = self.registry
        obs = self._obs
        interested = registry.interest.lookup_ids(event.edge)
        service_stats = self.stats
        for entry in registry.entries():
            if (not entry.active or entry.joined_seq > seq
                    or entry.query_id not in registry):
                # Errored queries are quarantined; a query that joined
                # after this edge arrived never saw the arrival, so it
                # must not see the event either; and a query
                # unregistered from a callback mid-fan-out (it is still
                # in the cached snapshot) gets nothing further.
                continue
            if entry.query_id not in interested:
                # Interest-index skip: the engine is not dispatched, so
                # neither its timer nor the error-isolation bookkeeping
                # below runs — skipped is a distinct outcome from
                # failed, and the counters keep them apart.
                entry.stats.events_skipped += 1
                service_stats.events_skipped += 1
                continue
            self.stats.events_routed += 1
            stats = entry.stats
            matches = None
            began = time.perf_counter()
            try:
                if arrival:
                    matches = entry.engine.on_edge_insert(event.edge)
                else:
                    matches = entry.engine.on_edge_expire(event.edge)
                stats.events_processed += 1
                if arrival:
                    stats.occurred += len(matches)
                else:
                    stats.expired += len(matches)
                # Engines note their own peak per event; reading the
                # recorded high-water mark avoids a second O(entries)
                # scan per event (matches the single-query runner).
                stats.note_structure_size(
                    entry.engine.stats.peak_structure_entries)
                for match in matches:
                    notification = MatchNotification(
                        entry.query_id, event, match, seq)
                    if entry.result is not None:
                        if arrival:
                            entry.result.occurred.append((event, match))
                        else:
                            entry.result.expired.append((event, match))
                    for callback in entry.subscribers:
                        callback(notification)
                    out.append(notification)
                if entry.result is not None:
                    entry.result.events_processed += 1
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                entry.mark_errored(exc)
                self.stats.errored_queries += 1
            finally:
                spent = time.perf_counter() - began
                stats.elapsed_seconds += spent
                if obs is not None:
                    engine_hist, delta_hist = self._query_observers(
                        entry.query_id)
                    engine_hist.observe(spent)
                    if matches is not None:
                        delta_hist.observe(len(matches))

    # ------------------------------------------------------------------
    # Metrics export
    # ------------------------------------------------------------------
    def _query_observers(self, query_id: str) -> Tuple:
        """Per-query (engine-seconds, match-delta) histogram pair,
        created on first use and cached (the fan-out loops observe into
        these on every dispatch when metrics are enabled)."""
        pair = self._query_hists.get(query_id)
        if pair is None:
            from repro.obs import SIZE_BUCKETS
            pair = (
                self._obs.histogram(
                    "service_engine_seconds",
                    "seconds spent inside one query's engine per "
                    "dispatch", query=query_id),
                self._obs.histogram(
                    "service_match_delta",
                    "matches (occurrences + expirations) reported per "
                    "dispatch", SIZE_BUCKETS, query=query_id),
            )
            self._query_hists[query_id] = pair
        return pair

    def _export_metrics(self) -> None:
        """Snapshot-time collector: mirror the counters the service and
        its queries already maintain into the metrics registry.

        Runs only inside :meth:`~repro.obs.MetricsRegistry.snapshot`,
        so the mirrored counters (service totals, per-query stats, and
        the engine-stage :class:`~repro.streaming.engine.EngineStats`)
        cost the hot path nothing.
        """
        obs = self._obs
        stats = self.stats
        for name, value, help_text in (
                ("service_edges_ingested_total", stats.edges_ingested,
                 "edges ingested by the service"),
                ("service_batches_total", stats.batches,
                 "ingest batches processed"),
                ("service_events_routed_total", stats.events_routed,
                 "(event, query) engine dispatches"),
                ("service_events_skipped_total", stats.events_skipped,
                 "(event, query) dispatches pruned by the interest "
                 "index"),
                ("service_errored_queries_total", stats.errored_queries,
                 "query quarantines"),
                ("service_elapsed_seconds_total", stats.elapsed_seconds,
                 "cumulative wall-clock seconds spent serving")):
            obs.counter(name, help_text).set_total(value)
        obs.gauge("service_live_edges",
                  "edges currently inside the window").set(
                      len(self._live))
        obs.gauge("service_registered_queries",
                  "queries currently registered").set(len(self.registry))
        for entry in self.registry.entries():
            labels = {"query": entry.query_id,
                      "engine": entry.engine_kind}
            qstats = entry.stats
            obs.counter("query_events_processed_total",
                        "events dispatched to this query's engine",
                        **labels).set_total(qstats.events_processed)
            obs.counter("query_events_skipped_total",
                        "events interest-pruned before this query's "
                        "engine", **labels).set_total(
                            qstats.events_skipped)
            obs.counter("query_matches_total",
                        "match deltas reported (occurrences + "
                        "expirations)", **labels).set_total(
                            qstats.matches)
            obs.counter("query_engine_seconds_total",
                        "wall-clock seconds inside this query's engine",
                        **labels).set_total(qstats.elapsed_seconds)
            obs.counter("query_errors_total", "query failures",
                        **labels).set_total(qstats.errors)
            if not entry.engine_started:
                continue
            estats = entry.engine.stats
            obs.counter("engine_backtrack_nodes_total",
                        "search-tree node expansions",
                        **labels).set_total(estats.backtrack_nodes)
            obs.counter("engine_matches_emitted_total",
                        "matches emitted by the engine",
                        **labels).set_total(estats.matches_emitted)
            obs.counter("engine_candidates_pruned_total",
                        "candidates pruned by the engine's filters",
                        **labels).set_total(estats.candidates_pruned)
            obs.counter("engine_batches_processed_total",
                        "on_batch calls absorbed by the engine",
                        **labels).set_total(estats.batches_processed)
            obs.gauge("engine_peak_structure_entries",
                      "high-water mark of stored index entries",
                      **labels).set(estats.peak_structure_entries)
