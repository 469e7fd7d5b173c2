"""The multi-query continuous matching service.

A :class:`MatchService` owns one shared sliding window over one edge
stream and fans every arrival/expiration event out to N registered
queries, each backed by its own engine (TCM or any baseline).  This is
the standard deployment model of continuous subgraph matching: many
long-lived detection queries over one stream, registered and retired at
runtime.

Every entry point — ``ingest`` (alias ``process_batch``),
``ingest_routed``, ``advance_to``, ``drain`` and the migration replay of
``adopt_query`` — builds one event list and hands it to one fan-out
(``_fanout_batch``); how fine-grained the service runs is how many
edges the caller passes, not which method it calls.

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
  keep matching; an engine that fails on a batch contributes nothing
  for that batch;
* delivery is batch-granular, the same rule as the sharded service: the
  engines run over the whole event list first, then results are
  recorded and subscribers fire in event order (registry order within
  an event).  What a callback does therefore takes effect at the batch
  boundary: a query it registers first sees the next call's events, a
  query it unregisters (or a subscriber that raises) only stops that
  query's remaining callbacks — the returned sequence and the query's
  counters still hold the whole batch;
* every entry point returns :class:`Notifications`: one run per
  reporting (event, query) holding the engine's own sequence (TCM's
  ``MatchBlock``).  A :class:`MatchNotification` is built when read:
  by a subscriber, for its own query's runs only, or by the caller;
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
only tracks the live-edge FIFO and the stream cursor; those (plus the
registry) are exactly what :mod:`repro.service.checkpoint` persists.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence as SequenceABC
from typing import (
    Callable, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span
from repro.query.temporal_query import TemporalQuery
from repro.service.registry import (
    EngineFactory, QueryRegistry, QueryStatus, RegisteredQuery,
)
from repro.service.stats import ServiceStats
from repro.streaming.events import Event, EventKind
from repro.streaming.match import Match, MatchBlock


class OutOfOrderError(ValueError):
    """An ingested edge went backwards in time.

    ``notifications`` carries the notifications already routed for the
    accepted prefix of the batch — engines and subscribers have seen
    those events, so a caller that catches the error and continues must
    not lose them.
    """

    def __init__(self, message: str, notifications: "Notifications"):
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

    A ``NamedTuple`` like :class:`Match`, built only when read: services
    and cluster replies hold :class:`Notifications` runs instead, whose
    notifications share their run's :class:`Event` and, within a
    vertex-map group, one ``Edge`` per (query edge, timestamp).  On
    ``cluster_2w`` (seed 0) a decoded reply leaves 0.72 objects the
    cyclic collector tracks per notification while unread, 4.6 once
    every notification is read and kept; the decoder that built them
    all left 3.4, sharing one ``Edge`` per distinct edge of the reply.
    """

    query_id: str
    event: Event
    match: Match
    seq: int = -1

    @property
    def occurred(self) -> bool:
        """True for an occurrence, False for an expiration."""
        return self.event.is_arrival


class Run(NamedTuple):
    """What one engine reported for one event: ``matches`` as the engine
    returned it, with the fields its notifications share."""

    query_id: str
    event: Event
    seq: int
    matches: Sequence[Match]


class Notifications(SequenceABC):
    """What a service call returns: a read-only sequence of
    :class:`MatchNotification` kept as the ``runs`` the engines reported.

    ``len()`` costs nothing; iteration builds and caches nothing (so
    does indexing: it reads the whole sequence); ``==`` holds against
    any sequence of equal notifications; ``+`` takes another one or a
    list.  A caller that mutates a result copies it first.
    """

    __slots__ = ("runs", "_count")

    def __init__(self, runs: Iterable[Run] = ()):
        self.runs: List[Run] = list(runs)
        self._count = sum(len(run.matches) for run in self.runs)

    @staticmethod
    def built(run: Run) -> List[MatchNotification]:
        """One run's notifications — the only place one is built."""
        query_id, event, seq, matches = run
        new = tuple.__new__     # skips the NamedTuple's Python __new__
        return [new(MatchNotification, (query_id, event, match, seq))
                for match in matches]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[MatchNotification]:
        for run in self.runs:
            yield from self.built(run)

    # Indexed and compared by reading everything, as a block is.
    __getitem__ = MatchBlock.__getitem__
    __eq__ = MatchBlock.__eq__

    def __add__(self, other) -> "Notifications":
        return Notifications(self.runs + _runs_of(other))

    def __radd__(self, other) -> "Notifications":
        return Notifications(_runs_of(other) + self.runs)

    def __repr__(self) -> str:
        return f"Notifications({list(self)!r})"


def _runs_of(notes) -> List[Run]:
    """``notes`` as runs: a list's notifications become one run each."""
    if isinstance(notes, Notifications):
        return notes.runs
    if not isinstance(notes, list):
        raise TypeError(f"cannot add {type(notes).__name__} to "
                        f"Notifications")
    return [Run(n.query_id, n.event, n.seq, (n.match,)) for n in notes]


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


def _collect_expirations(live: Deque[Tuple[Edge, int]], delta: int, t: int,
                         out: List[Tuple[Event, int]]) -> None:
    """Pop the ``(edge, arrival seq)`` pairs of ``live`` whose window
    closes at or before ``t`` and append their expiration events (an
    edge with timestamp ``<= t - delta`` is outside ``(t - delta, t]``,
    so its expiration precedes an arrival at ``t``)."""
    while live and live[0][0].t + delta <= t:
        edge, seq = live.popleft()
        out.append((Event(edge, edge.t + delta, EventKind.EXPIRATION), seq))


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
    engine_factories:
        Optional engine-kind registry overriding the benchmark default.
    """

    def __init__(self, delta: int, *,
                 engine_factories: Optional[Dict[str, EngineFactory]] = None,
                 metrics=None, tracer=None):
        if delta <= 0:
            raise ValueError("window size delta must be positive")
        #: Optional :class:`~repro.obs.Tracer`.  When set, every
        #: ingest / advance_to / drain call opens a ``service_batch``
        #: root span with route/dispatch/notify children; ``None`` (the
        #: default) costs the hot path nothing beyond per-batch ``is
        #: None`` checks.
        self.tracer = tracer
        self.delta = delta
        self.registry = QueryRegistry(engine_factories)
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
    def ingest(self, edges: Iterable[Edge]) -> Notifications:
        """Ingest one chronological batch of edges.

        Edges must arrive in non-decreasing timestamp order across all
        batches (the streaming contract); a violation raises
        :class:`OutOfOrderError`, whose ``notifications`` attribute
        carries the results of the batch's accepted prefix.  Returns
        every notification of the batch in event order, registry order
        within an event, as unread :class:`Notifications` runs.

        Delivery is *batch-granular* (see the module docstring): each
        engine sees its share of the batch's event list through one
        :meth:`~repro.streaming.engine.MatchEngine.on_batch` call, then
        results are recorded and subscribers fire in event order.  A
        query registered from inside a subscriber callback joins at the
        batch boundary, and a failing engine quarantines its query and
        contributes nothing for the batch.  How fine-grained delivery
        is depends only on how many edges the caller passes.
        """
        edges = list(edges)
        prefix, failure = validated_prefix(edges, self._now)
        # A full batch is a routed batch numbered from the cursor.  The
        # cursor moves before the fan-out: a query registered from a
        # callback missed these arrivals, so it must join after them
        # and never be routed their expirations.
        seq = self._seq
        self._seq += len(prefix)
        notifications = self._serve(
            list(zip(prefix, range(seq, self._seq))), None)
        if failure is not None:
            raise OutOfOrderError(failure, notifications)
        return notifications

    #: The same method under the name the sharded API's callers and the
    #: ledger use; there is no per-event variant to tell it from.
    process_batch = ingest

    def ingest_routed(self, pairs: List[Tuple[Edge, int]],
                      final_now: int, final_seq: int) -> Notifications:
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
        stream order across the full batch; a subset that starts before
        the clock is refused whole, with nothing touched.
        """
        if pairs and self._now is not None and pairs[0][0].t < self._now:
            raise OutOfOrderError(
                f"out-of-order routed batch: t={pairs[0][0].t} after "
                f"now={self._now}", Notifications())
        self._seq = final_seq
        notifications = self._serve(pairs, final_now)
        if self._now is None or final_now > self._now:
            self._now = final_now
        return notifications

    def advance_to(self, t: int) -> Notifications:
        """Advance the clock to ``t`` without ingesting edges, expiring
        every edge whose window has closed."""
        if self._now is None or t > self._now:
            self._now = t
        return self._serve((), self._now, is_batch=False)

    def drain(self) -> Notifications:
        """Expire every remaining live edge (end of stream).

        The arrival cursor (``now``) is deliberately left at the last
        arrival timestamp: draining flushes the window, it does not
        fast-forward the stream, so a checkpoint taken after a drain
        still resumes from the last edge actually ingested.
        """
        live = self._live
        return self._serve((), live[-1][0].t + self.delta if live else None,
                           is_batch=False)

    def _serve(self, pairs: Sequence[Tuple[Edge, int]],
               horizon: Optional[int], is_batch: bool = True
               ) -> Notifications:
        """What every entry point does: build Algorithm 1's event list
        — the ``(edge, arrival seq)`` ``pairs``, each preceded by the
        expirations due at its timestamp, then the expirations due at
        or before ``horizon`` — fan it out as one batch, and account
        the call (``service_batch`` span, elapsed time, the
        ``service_ingest_seconds`` histogram; ``is_batch`` is the
        ``ServiceStats.batches`` rule)."""
        runs: List[Run] = []
        start = time.perf_counter()
        with maybe_span(self.tracer, "service_batch",
                        events=len(pairs)) as root:
            events: List[Tuple[Event, int]] = []
            live, delta = self._live, self.delta
            for edge, seq in pairs:
                _collect_expirations(live, delta, edge.t, events)
                self._now = edge.t
                events.append((Event(edge, edge.t, EventKind.ARRIVAL), seq))
                live.append((edge, seq))
            self.stats.edges_ingested += len(pairs)
            if horizon is not None:
                _collect_expirations(live, delta, horizon, events)
            if events:
                self._fanout_batch(events, runs, trace_parent=root)
        if is_batch:
            self.stats.batches += 1
        spent = time.perf_counter() - start
        self.stats.elapsed_seconds += spent
        if self._obs is not None:
            self._h_ingest.observe(spent)
        return Notifications(runs)

    def _fanout_batch(self, events: List[Tuple[Event, int]],
                      out: List[Run], trace_parent=None,
                      entries: Optional[List[RegisteredQuery]] = None
                      ) -> None:
        """Run every eligible engine over the batch, then append the
        per-event results to ``out`` as runs in global event order
        (notifications are built only for a query with subscribers).

        The label triple of every event is resolved once per batch
        (not once per engine) and each engine only receives the
        sub-batch it is interested in; the remainder is tallied as
        skipped without touching the engine.  The fan-out covers the
        registry's active queries unless ``entries`` names them (a
        migration replay is private to the adopted query).
        ``trace_parent`` (a live span) nests route/dispatch/notify
        stage spans under the caller's batch root.
        """
        registry = self.registry
        obs = self._obs
        tracer = self.tracer if trace_parent is not None else None
        if entries is None:
            entries = [entry for entry in registry.entries()
                       if entry.active]
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
                # A query that joined after an edge arrived never saw
                # the arrival, so it must not see its expiration.
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
        # Global event order, registry order within an event.  What the
        # engines reported is the batch's output whatever a callback
        # does: one that unregisters or fails a query only stops that
        # query's remaining callbacks.
        reported = [(entry, per_entry[entry.query_id]) for entry in entries
                    if entry.query_id in per_entry]
        for ev, seq in events:
            arrival = ev.is_arrival
            key = (seq, ev.kind)
            for entry, by_event in reported:
                matches = by_event.get(key)
                if not matches:
                    continue
                query_id = entry.query_id
                stats = entry.stats
                run = Run(query_id, ev, seq, matches)
                out.append(run)
                if arrival:
                    stats.occurred += len(matches)
                else:
                    stats.expired += len(matches)
                if entry.result is not None:
                    entry.result.add(ev, matches)
                if not (entry.subscribers and entry.active
                        and query_id in registry):
                    continue
                began = time.perf_counter()
                try:
                    for notification in Notifications.built(run):
                        for callback in entry.subscribers:
                            callback(notification)
                except Exception as exc:  # noqa: BLE001 - isolation
                    entry.mark_errored(exc)
                    self.stats.errored_queries += 1
                finally:
                    stats.elapsed_seconds += time.perf_counter() - began
        for entry, by_event in reported:
            if entry.result is not None:
                entry.result.events_processed += len(by_event)
        notify.__exit__(None, None, None)
        if obs is not None:
            self._h_notify.observe(time.perf_counter() - notify_start)

    # ------------------------------------------------------------------
    # Live migration hooks (used by repro.cluster)
    # ------------------------------------------------------------------
    def export_query_window(self, entry: RegisteredQuery
                            ) -> Tuple[Tuple[Edge, int], ...]:
        """``entry``'s :meth:`~repro.service.interest.QueryInterestIndex.
        window_of` the live deque: the pairs inside its engine window,
        what :meth:`host_query` replays when this service holds the
        stream.  The query must be indexed."""
        if not entry.active:
            return ()
        return self.registry.interest.window_of(
            entry.query_id, entry.joined_seq, self._live, self.delta,
            self._now)

    def host_query(self, query: TemporalQuery, labels: Dict[int, object],
                   engine: object, *, status: str, error: Optional[str],
                   stats, result=None,
                   window: Optional[Tuple[Tuple[Edge, int], ...]] = None,
                   tail: Tuple[Tuple[Edge, int], ...] = (),
                   final_now: Optional[int] = None, drained: bool = False,
                   **registration) -> Notifications:
        """Host a query that has lived before (a migration, restore or
        recovery; a registration brings nothing): register it —
        ``registration`` is :meth:`QueryRegistry.register`'s keywords,
        its *own* join cursor among them — with what its previous host
        knew, then :meth:`adopt_query` its window and tail.
        ``window=None``: this service already holds the stream (a
        checkpoint restore), so the query's cut of the live deque is its
        window.  The service's registration counters stay untouched.

        A cluster coordinator sends a shard no clock while none of its
        queries holds an edge falling due, so the live deque may hold
        edges whose window closed before ``final_now``: they expire
        first, before the query joins — it never held them here."""
        live = self._live
        overdue = (final_now is not None and live
                   and live[0][0].t + self.delta <= final_now)
        notes = self.advance_to(final_now) if overdue else Notifications()
        entry = self.registry.register(query, labels, engine, **registration)
        entry.status, entry.error = QueryStatus(status), error
        entry.stats = stats
        if result is not None:
            entry.result = result
        if window is None:
            window = self.export_query_window(entry)
        return notes + self.adopt_query(entry, window, tail,
                                        final_now=final_now,
                                        drain_tail=drained)

    def adopt_query(self, entry: RegisteredQuery,
                    window: Tuple[Tuple[Edge, int], ...],
                    tail: Tuple[Tuple[Edge, int], ...] = (), *,
                    final_now: Optional[int] = None,
                    drain_tail: bool = False) -> Notifications:
        """Adopt a migrated query: rebuild its engine window, replay the
        in-flight tail, and merge what is still live into the shared
        deque.

        ``window`` is replayed *silently* — the source already
        dispatched those arrivals, accounted them in the stats shipped
        with the query, and emitted their notifications, so here they
        only rebuild derived engine state.  ``tail`` (arrivals buffered
        while the query was detached) becomes one private event list
        over a private copy of the window — each arrival preceded by
        the expirations due at its timestamp, then whatever fell due by
        ``final_now`` (everything, with ``drain_tail``) — and goes
        through the same batch fan-out as any other event list,
        restricted to ``entry``: dispatched, counted and notified the
        same way, and an engine that fails on it quarantines the query
        with nothing emitted for the tail.  The remaining pairs are
        merged seq-ordered into the live deque, skipping seqs the deque
        already holds (edges this service received for its other
        queries) so no edge ever expires twice.

        Double-expiration safety: callers invoke this at a batch
        boundary, where every expiration due at or before the global
        clock has been flushed (:meth:`host_query` flushes what a
        coordinator left overdue) — so the shared deque holds only edges
        expiring *after* ``final_now``, while the private replay only
        ever expires edges due at or before it; the two sets cannot
        intersect.
        """
        if not entry.active:
            return Notifications()
        if window:
            try:
                _run_batch(entry.engine,
                           [Event(edge, edge.t, EventKind.ARRIVAL)
                            for edge, _ in window])
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                entry.mark_errored(exc)
                self.stats.errored_queries += 1
                return Notifications()
        qwindow: Deque[Tuple[Edge, int]] = deque(window)
        events: List[Tuple[Event, int]] = []
        delta = self.delta
        lookup = self.registry.interest.lookup_ids
        for edge, seq in tail:
            _collect_expirations(qwindow, delta, edge.t, events)
            events.append((Event(edge, edge.t, EventKind.ARRIVAL), seq))
            # Every tail arrival is offered (the fan-out counts the
            # uninteresting ones as skipped); only the ones the engine
            # is given enter its window.
            if entry.query_id in lookup(edge):
                qwindow.append((edge, seq))
        horizon = (qwindow[-1][0].t + delta if drain_tail and qwindow
                   else final_now)
        if horizon is not None:
            _collect_expirations(qwindow, delta, horizon, events)
        runs: List[Run] = []
        if events:
            self._fanout_batch(events, runs, entries=[entry])
        if drain_tail or not entry.active:
            return Notifications(runs)
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
        return Notifications(runs)

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
            obs.counter("engine_match_groups_total",
                        "vertex-map groups the emitted matches fall into",
                        **labels).set_total(estats.match_groups)
            obs.counter("engine_candidates_pruned_total",
                        "candidates pruned by the engine's filters",
                        **labels).set_total(estats.candidates_pruned)
            obs.counter("engine_batches_processed_total",
                        "on_batch calls absorbed by the engine",
                        **labels).set_total(estats.batches_processed)
            obs.counter("engine_filter_flushes_total",
                        "times the engine brought its filter up to date",
                        **labels).set_total(estats.filter_flushes)
            obs.counter("engine_arrivals_deferred_total",
                        "relevant arrivals answered without a flush",
                        **labels).set_total(estats.arrivals_deferred)
            obs.gauge("engine_peak_structure_entries",
                      "high-water mark of stored index entries",
                      **labels).set(estats.peak_structure_entries)
