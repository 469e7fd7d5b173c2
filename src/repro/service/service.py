"""The multi-query continuous matching service.

A service owns one shared sliding window over one edge stream and fans
every arrival/expiration event out to N registered queries, each backed
by its own engine (TCM or any baseline).  This is the standard
deployment model of continuous subgraph matching: many long-lived
detection queries over one stream, registered and retired at runtime.

Both services are one :class:`ServiceFront` — the window, the cursor,
the registry, the per-call rules and the checkpoint — composed with a
back-end that dispatches each call's events: :class:`MatchService`
holds a :class:`LocalBackend` (engines in this process),
:class:`~repro.cluster.ShardedMatchService` a sharded one (engines in
worker processes, each hosting a ``MatchService``).  The contract below
is therefore written once, for both.

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
  error is recorded on its record and the remaining queries keep
  matching; an engine that fails on a batch contributes nothing for
  that batch;
* delivery is batch-granular: the engines run over the whole call's
  event list first, then subscribers fire in event order (registration
  order within an event).  What a callback does therefore takes effect
  at the batch boundary: a query it registers first sees the next
  call's events, a query it unregisters (or a subscriber that raises)
  only stops that query's remaining callbacks — the returned sequence
  and the query's counters still hold the whole batch;
* every entry point — ``ingest`` (alias ``process_batch``),
  ``advance_to``, ``drain``, and a worker's ``ingest_routed`` — returns
  :class:`Notifications`: one run per reporting (event, query) holding
  the engine's own sequence (TCM's ``MatchBlock``).  A
  :class:`MatchNotification` is built when read: by a subscriber, for
  its own query's runs only, or by the caller;
* every event is dispatched only to the engines whose query could
  possibly match it, as decided by the registry's
  :class:`~repro.service.interest.QueryInterestIndex`; the rest is
  counted as skipped without an engine dispatch.  The index only prunes
  dispatches that were guaranteed to return nothing, and it decides
  per query from the registration itself: a query registered with a
  callable engine factory is never indexed (it sees every event), and
  an edge touching a vertex with no label is offered to every query of
  its label domain.

Because engines own their within-window graph copy, the front itself
only tracks the live-edge window and the stream cursor; those (plus the
registry) are exactly what :mod:`repro.service.checkpoint` persists.
"""

from __future__ import annotations

import itertools
import math
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
from repro.service.stats import QueryStats, ServiceStats
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


def _event_list(held: Iterable[Tuple[Edge, int]],
                arrivals: Sequence[Tuple[Edge, int]], delta: int,
                horizon: Optional[float]
                ) -> Tuple[List[Tuple[Event, int]], List[Tuple[Edge, int]]]:
    """Algorithm 1's event list: every ``(edge, arrival seq)`` of
    ``arrivals`` preceded by the expirations due at its timestamp, then
    those due at or before ``horizon`` (an edge with timestamp ``<= t -
    delta`` is outside ``(t - delta, t]``).  ``held`` is the window in
    seq order, the arrivals that enter it included; nothing is popped.
    Returns the events and the pairs of ``held`` still open after them.
    """
    events: List[Tuple[Event, int]] = []
    due = iter(held)
    head = next(due, None)
    for edge, seq in arrivals:
        t = edge.t
        while head is not None and head[0].t + delta <= t:
            events.append((Event(head[0], head[0].t + delta,
                                 EventKind.EXPIRATION), head[1]))
            head = next(due, None)
        events.append((Event(edge, t, EventKind.ARRIVAL), seq))
    if horizon is not None:
        while head is not None and head[0].t + delta <= horizon:
            events.append((Event(head[0], head[0].t + delta,
                                 EventKind.EXPIRATION), head[1]))
            head = next(due, None)
    return events, ([] if head is None else [head, *due])


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


class ServiceFront:
    """Both services' public surface over one stream, one window, one
    registry, composed with the back-end that dispatches the events.

    The front owns the ``(edge, arrival seq)`` window ``_live``, the
    ``now`` / ``seq`` cursor, the registry (one record per query, one id
    allocator, one subscriber list), the per-call rules — order
    validation, call accounting, subscriber delivery after the call,
    quarantine — and the checkpoint.  The back-end owns how a call's
    events reach the engines: :class:`LocalBackend` fans them out to
    engines in this process, :class:`~repro.cluster.coordinator.
    ShardedBackend` routes them to shard workers.  Neither the front nor
    its callers ask which one they hold.

    The window is trimmed at one point: the top of every ``ingest`` /
    ``advance_to`` / ``drain``, after the back-end's :meth:`boundary`
    hook, to the clock before the call.  So between calls it may still
    hold pairs whose window closed (a recovering back-end reads them);
    :meth:`window` is what is live.
    """

    def __init__(self, delta: int, backend, *,
                 engine_factories: Optional[Dict[str, EngineFactory]] = None,
                 metrics=None, tracer=None):
        if delta <= 0:
            raise ValueError("window size delta must be positive")
        self.delta = delta
        #: Optional :class:`~repro.obs.Tracer`: every ingest / advance_to
        #: / drain call opens the back-end's root span (``None`` costs
        #: the hot path nothing beyond per-call ``is None`` checks).
        self.tracer = tracer
        #: Optional :class:`~repro.obs.MetricsRegistry`; ``None`` (the
        #: default) disables all metric work.
        self.metrics = metrics
        self.registry = QueryRegistry(engine_factories)
        self.stats = ServiceStats()
        self._live: Deque[Tuple[Edge, int]] = deque()  # (edge, arrival seq)
        self._now: Optional[int] = None
        self._seq = 0
        self._closed = False
        self._backend = backend
        self._h_call = None
        if metrics is not None:
            self._h_call = metrics.histogram(
                f"{backend.PREFIX}_ingest_seconds",
                f"{backend.WHO} wall-clock per ingest/advance/drain call")
            metrics.add_collector(self._export_metrics)
        backend.bind(self)

    # ------------------------------------------------------------------
    # Cursor and window
    # ------------------------------------------------------------------
    @property
    def now(self) -> Optional[int]:
        """The stream high-water mark (None before any edge)."""
        return self._now

    @property
    def seq(self) -> int:
        """Number of arrivals ingested so far (the join cursor)."""
        return self._seq

    def export_query_window(self, entry: RegisteredQuery
                            ) -> Tuple[Tuple[Edge, int], ...]:
        """:meth:`window_at` the clock: the pairs ``entry``'s engine
        holds (none once it is not active)."""
        return self.window_at(entry, self._now) if entry.active else ()

    def window_at(self, entry: RegisteredQuery, now: Optional[int]
                  ) -> Tuple[Tuple[Edge, int], ...]:
        """``entry``'s :meth:`~repro.service.interest.QueryInterestIndex.
        window_of` this front's window at the clock ``now`` — an earlier
        one too, while the window still holds it (a recovery's)."""
        return self.registry.interest.window_of(
            entry.query_id, entry.joined_seq, self._live, self.delta, now)

    def window(self) -> List[Tuple[Edge, int]]:
        """The ``(edge, arrival seq)`` pairs inside the window at
        ``now`` (read from a copy: safe from another thread)."""
        now, delta = self._now, self.delta
        return [pair for pair in list(self._live)
                if now is None or pair[0].t + delta > now]

    def falling_due(self, t: float) -> Iterator[Tuple[Edge, int]]:
        """The window's pairs whose window closes by ``t``, in seq
        order (read while the window is trimmed: inside a call)."""
        delta = self.delta
        return itertools.takewhile(lambda pair: pair[0].t + delta <= t,
                                   self._live)

    def load(self, window: Iterable[Tuple[Edge, int]], now: Optional[int],
             seq: int) -> None:
        """Put a checkpoint's window and cursor on this fresh front."""
        self._live.extend(window)
        self._now, self._seq = now, seq

    def merge_window(self, pairs: List[Tuple[Edge, int]],
                     now: Optional[int]) -> None:
        """Merge an adopted query's open ``pairs`` into the window in
        seq order, skipping seqs it already holds (edges received for
        other queries: none may expire twice), and move the clock up to
        ``now``."""
        if pairs:
            present = {seq for _, seq in self._live}
            fresh = [pair for pair in pairs if pair[1] not in present]
            if fresh:
                self._live = deque(sorted([*self._live, *fresh],
                                          key=lambda pair: pair[1]))
        if now is not None and (self._now is None or now > self._now):
            self._now = now

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, query: TemporalQuery, labels: Dict[int, object],
                 engine: object = "tcm", *,
                 query_id: Optional[str] = None,
                 edge_label_fn: Optional[Callable] = None,
                 subscriber: Optional[Callable] = None,
                 collect_results: bool = True) -> str:
        """Register a continuous query; returns its query id.

        Safe mid-stream: the query joins at the current ``seq`` and only
        sees arrivals ingested after this call (and only the
        expirations of those arrivals), on whichever host.
        """
        self._ensure_open()
        entry = self.registry.new(
            query, labels, engine, query_id=query_id, joined_seq=self._seq,
            edge_label_fn=edge_label_fn, subscriber=subscriber,
            collect_results=collect_results)
        self.host(entry, window=())
        self.stats.registered_total += 1
        return entry.query_id

    def host(self, entry: RegisteredQuery,
             window: Optional[Tuple[Tuple[Edge, int], ...]] = None,
             tail: Tuple[Tuple[Edge, int], ...] = (),
             final_now: Optional[int] = None) -> Notifications:
        """Host ``entry`` — a registration, a checkpoint record or a
        migration ticket's — and return its tail replay's notifications
        (not delivered).  ``window`` defaults to the entry's cut of this
        front's window (a restore: the front already holds the stream).

        ``final_now`` is the clock a ticket was cut at: what the window
        still holds that fell due by then expires first, before the
        query joins — it never held those pairs.  The registration
        counters stay untouched; a back-end that refuses the query
        leaves the registry as it was.
        """
        notes = Notifications()
        if final_now is not None:
            now, delta = self._now, self.delta
            opening = next((edge.t for edge, _ in self._live
                            if now is None or edge.t + delta > now), None)
            if opening is not None and opening + delta <= final_now:
                notes = self.advance_to(final_now)
        self.registry.adopt(entry)
        if window is None:
            window = self.export_query_window(entry)
        try:
            return notes + self._backend.host(entry, window, tail,
                                              final_now)
        except Exception:
            self.registry.unregister(entry.query_id)
            raise

    def unregister(self, query_id: str) -> RegisteredQuery:
        """Retire a query mid-stream; returns its final record (stats
        and any collected results, as its host last knew them)."""
        entry = self._checked(query_id)
        self.registry.unregister(query_id)
        self.stats.unregistered_total += 1
        return self._backend.retire(entry)

    def subscribe(self, query_id: str,
                  callback: Callable[[MatchNotification], None]) -> None:
        """Attach ``callback`` to a query's result feed."""
        self._ensure_open()
        self.registry.get(query_id).subscribers.append(callback)

    def get(self, query_id: str) -> RegisteredQuery:
        """One query's record as its host knows it (counters and
        collected results)."""
        entry = self._checked(query_id)
        found = self._backend.describe(entry)
        entry.stats = found.stats
        return found

    def query_stats(self, query_id: str) -> QueryStats:
        """The :class:`QueryStats` of one registered query: the host's,
        or — when the host cannot answer — the last ones it gave."""
        entry = self._checked(query_id)
        entry.stats = self._backend.fetch_stats(entry).get(
            query_id, entry.stats)
        return entry.stats

    def all_query_stats(self) -> List[QueryStats]:
        """:meth:`query_stats` of every registered query, in
        registration order (one fetch per host)."""
        self._ensure_open()
        entries = self.registry.list()
        fetched = self._backend.fetch_stats()
        for entry in entries:
            entry.stats = fetched.get(entry.query_id, entry.stats)
        return [entry.stats for entry in entries]

    def quarantine(self, entry: RegisteredQuery, message: str) -> None:
        """Stop ``entry`` matching, with ``message`` as its error: the
        one place a quarantine is counted (once per query, however many
        times it is reported)."""
        if not entry.active:
            return
        entry.status = QueryStatus.ERRORED
        entry.error = message
        entry.stats.errors += 1
        self.stats.errored_queries += 1

    def health(self) -> Dict[str, object]:
        """Liveness summary, answered without a round trip (safe from
        the admin server's thread).  ``status`` is ``"closed"`` after
        :meth:`close`, else the back-end's (``"ok"`` unless a host was
        lost); quarantined queries are counted, not a degradation."""
        entries = self.registry.entries()
        report = {"status": "ok",
                  "queries": len(entries),
                  "errored_queries": sum(1 for e in entries if not e.active),
                  "live_edges": len(self.window())}
        report.update(self._backend.health())
        if self._closed:
            report["status"] = "closed"
        return report

    def close(self) -> None:
        """Stop the back-end (a sharded one reaps its workers); every
        later call but :meth:`health` raises.  Idempotent."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, edges: Iterable[Edge]) -> Notifications:
        """Ingest one chronological batch of edges.

        Edges must arrive in non-decreasing timestamp order across all
        batches (the streaming contract); a violation raises
        :class:`OutOfOrderError`, whose ``notifications`` attribute
        carries the results of the batch's accepted prefix (processed
        everywhere).  A batch the back-end cannot carry is refused whole
        before anything moved.  Returns every notification of the batch
        in event order, registration order within an event, as unread
        :class:`Notifications` runs.

        Delivery is *batch-granular* (see the module docstring): the
        engines run the batch's whole event list, then subscribers fire
        in event order.  A query registered from inside a subscriber
        callback joins at the batch boundary, and a failing engine
        quarantines its query and contributes nothing for the batch.
        How fine-grained delivery is depends only on how many edges the
        caller passes.
        """
        self._ensure_open()
        edges = list(edges)
        self._backend.admit(edges)
        prefix, failure = validated_prefix(edges, self._now)
        seq = self._seq
        notifications = self._call(
            self._backend.SPANS[0], list(zip(prefix, range(seq, seq + len(
                prefix)))), prefix[-1].t if prefix else self._now)
        if failure is not None:
            raise OutOfOrderError(failure, notifications)
        return notifications

    #: The same method under the name the ledger and the sharded API's
    #: callers use; there is no per-event variant to tell it from.
    process_batch = ingest

    def advance_to(self, t: int) -> Notifications:
        """Advance the clock to ``t`` (never backwards) without
        ingesting edges, expiring every edge whose window has closed."""
        self._ensure_open()
        t = t if self._now is None else max(t, self._now)
        return self._call(self._backend.SPANS[1], [], t, is_batch=False)

    def drain(self) -> Notifications:
        """Expire every remaining live edge (end of stream).

        The arrival cursor (``now``) is deliberately left at the last
        arrival timestamp: draining flushes the window, it does not
        fast-forward the stream, so a checkpoint taken after a drain
        still resumes from the last edge actually ingested.
        """
        self._ensure_open()
        return self._call(self._backend.SPANS[2], [], math.inf,
                          is_batch=False)

    def _call(self, span: str, pairs: List[Tuple[Edge, int]],
              horizon: Optional[float], final_seq: Optional[int] = None,
              is_batch: bool = True) -> Notifications:
        """What every entry point does: trim the window, have the
        back-end serve the ``(edge, arrival seq)`` ``pairs`` and the
        expirations due by ``horizon`` (``inf``: all of them), move the
        cursor, deliver to subscribers, and account the call (root span,
        ``elapsed_seconds``, the call histogram; ``is_batch`` is the
        ``ServiceStats.batches`` rule)."""
        start = time.perf_counter()
        try:
            with maybe_span(self.tracer, span, events=len(pairs)) as root:
                self._backend.boundary()
                live, delta, now = self._live, self.delta, self._now
                while now is not None and live and live[0][0].t + delta <= now:
                    live.popleft()
                notifications = self._backend.serve(pairs, horizon, root)
                if horizon == math.inf:
                    live.clear()
                else:
                    live.extend(pairs)
                    if horizon is not None and (now is None
                                                or horizon > now):
                        self._now = horizon
                self._seq = (self._seq + len(pairs) if final_seq is None
                             else final_seq)
                self.stats.edges_ingested += len(pairs)
                self._deliver(notifications)
        finally:
            if is_batch:
                self.stats.batches += 1
            spent = time.perf_counter() - start
            self.stats.elapsed_seconds += spent
            if self._h_call is not None:
                self._h_call.observe(spent)
        return notifications

    def _deliver(self, notifications: Notifications) -> None:
        """Run subscribers over a call's runs in their order, building
        notifications only for a query that has some.  What the engines
        reported is the call's output whatever a callback does: one that
        unregisters or fails a query only stops that query's remaining
        callbacks (a raising one quarantines its query)."""
        registry = self.registry
        subscribed = {entry.query_id: entry for entry in registry.entries()
                      if entry.subscribers}
        for run in notifications.runs if subscribed else ():
            entry = subscribed.get(run.query_id)
            if entry is None or run.query_id not in registry:
                continue
            began = time.perf_counter()
            try:
                for notification in Notifications.built(run):
                    for callback in entry.subscribers:
                        callback(notification)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                del subscribed[run.query_id]
                self.quarantine(entry, f"{type(exc).__name__}: {exc}")
                self._backend.stop(entry)
            finally:
                entry.stats.elapsed_seconds += time.perf_counter() - began

    def _checked(self, query_id: str) -> RegisteredQuery:
        """A registered query's record (the service must be open)."""
        self._ensure_open()
        return self.registry.get(query_id)

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def _export_metrics(self) -> None:
        """Snapshot-time collector: mirror the counters the front keeps
        into the metrics registry under the back-end's prefix (the hot
        path pays nothing for them), then the back-end's own."""
        obs, stats = self.metrics, self.stats
        prefix = self._backend.PREFIX
        for name, value, help_text in (
                ("edges_ingested_total", stats.edges_ingested,
                 "edges ingested"),
                ("batches_total", stats.batches, "ingest batches served"),
                ("events_routed_total", stats.events_routed,
                 "(event, query) engine dispatches"),
                ("events_skipped_total", stats.events_skipped,
                 "(event, query) dispatches pruned by the interest "
                 "index"),
                ("errored_queries_total", stats.errored_queries,
                 "query quarantines"),
                ("elapsed_seconds_total", stats.elapsed_seconds,
                 "wall-clock seconds across ingest/advance/drain")):
            obs.counter(f"{prefix}_{name}", help_text).set_total(value)
        obs.gauge(f"{prefix}_live_edges",
                  "edges currently inside the window").set(
                      len(self.window()))
        obs.gauge(f"{prefix}_registered_queries",
                  "queries currently registered").set(len(self.registry))
        self._backend.export_metrics(obs)


class LocalBackend:
    """Dispatch to engines in this process: every call's event list is
    built over the front's window and fanned out by interest."""

    PREFIX, WHO = "service", "service"
    SPANS = ("service_batch",) * 3

    def bind(self, front: ServiceFront) -> None:
        self.front = front
        obs = self._obs = front.metrics
        if obs is not None:
            from repro.obs import SIZE_BUCKETS
            self._h_route = obs.histogram(
                "service_route_seconds",
                "seconds resolving per-batch interest routing")
            self._h_notify = obs.histogram(
                "service_notify_seconds",
                "seconds recording results per batch")
            self._h_batch_events = obs.histogram(
                "service_batch_events", "events per fanned-out batch",
                SIZE_BUCKETS)
            self._query_hists: Dict[str, Tuple] = {}

    # -- what the front asks of every back-end -------------------------
    def admit(self, edges: List[Edge]) -> None:
        """Any edge the engines were built for is fine."""

    def boundary(self) -> None:
        """Nothing is pending between calls."""

    def stop(self, entry: RegisteredQuery) -> None:
        """The registry's status already stops the fan-out."""

    def close(self) -> None:
        """Nothing to reap."""

    def health(self) -> Dict[str, object]:
        return {}

    def describe(self, entry: RegisteredQuery) -> RegisteredQuery:
        return entry

    retire = describe

    def fetch_stats(self, entry=None) -> Dict[str, QueryStats]:
        """The records hold the live counters: nothing to fetch."""
        return {}

    def envelope(self, document: Dict[str, object]) -> Dict[str, object]:
        return document

    def serve(self, pairs: List[Tuple[Edge, int]], horizon: Optional[float],
              root) -> Notifications:
        """Algorithm 1's event list over the front's (trimmed) window,
        fanned out as one batch."""
        front = self.front
        events, _ = _event_list(itertools.chain(front._live, pairs), pairs,
                                front.delta, horizon)
        runs: List[Run] = []
        if events:
            self._fanout_batch(events, runs, trace_parent=root)
        return Notifications(runs)

    # -- the fan-out ---------------------------------------------------
    def _fanout_batch(self, events: List[Tuple[Event, int]],
                      out: List[Run], trace_parent=None,
                      entries: Optional[List[RegisteredQuery]] = None
                      ) -> None:
        """Run every eligible engine over the batch, then append the
        per-event results to ``out`` as runs in global event order.

        The label triple of every event is resolved once per batch
        (not once per engine) and each engine only receives the
        sub-batch it is interested in; the remainder is tallied as
        skipped without touching the engine.  The fan-out covers the
        registry's active queries unless ``entries`` names them (a
        migration replay is private to the adopted query).
        ``trace_parent`` (a live span) nests route/dispatch/notify
        stage spans under the caller's batch root.
        """
        front = self.front
        registry = front.registry
        service_stats = front.stats
        obs = self._obs
        tracer = front.tracer if trace_parent is not None else None
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
                service_stats.events_skipped += skipped
            if not eligible:
                continue
            service_stats.events_routed += len(eligible)
            stats = entry.stats
            began = time.perf_counter()
            try:
                lists = entry.engine.on_batch([ev for ev, _ in eligible])
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
                front.quarantine(entry, f"{type(exc).__name__}: {exc}")
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
        # Global event order, registry order within an event.
        reported = [(entry, per_entry[entry.query_id]) for entry in entries
                    if entry.query_id in per_entry]
        for ev, seq in events:
            arrival = ev.is_arrival
            key = (seq, ev.kind)
            for entry, by_event in reported:
                matches = by_event.get(key)
                if not matches:
                    continue
                out.append(Run(entry.query_id, ev, seq, matches))
                if arrival:
                    entry.stats.occurred += len(matches)
                else:
                    entry.stats.expired += len(matches)
                if entry.result is not None:
                    entry.result.add(ev, matches)
        for entry, by_event in reported:
            if entry.result is not None:
                entry.result.events_processed += len(by_event)
        notify.__exit__(None, None, None)
        if obs is not None:
            self._h_notify.observe(time.perf_counter() - notify_start)

    def host(self, entry: RegisteredQuery,
             window: Tuple[Tuple[Edge, int], ...],
             tail: Tuple[Tuple[Edge, int], ...], final_now: Optional[int]
             ) -> Notifications:
        """Adopt a registered query that lived elsewhere: rebuild its
        engine window, replay the tail, and merge what is still live
        into the front's window.

        ``window`` is replayed *silently* — the source already
        dispatched those arrivals, accounted them in the stats shipped
        with the query, and emitted their notifications, so here they
        only rebuild derived engine state.  ``tail`` (the arrivals a
        recovery owes the query: routed after its worker was lost)
        becomes one private event list over a private copy of the
        window — each arrival preceded by the expirations due at its
        timestamp, then whatever fell due by ``final_now`` — and goes
        through the same batch fan-out as any other event list,
        restricted to ``entry``: dispatched, counted and recorded the
        same way, and an engine that fails on it quarantines the query
        with nothing emitted for the tail.  The remaining pairs are
        merged into the front's window (:meth:`ServiceFront.
        merge_window`).

        Double-expiration safety: every expiration due at or before
        ``final_now`` has left the front's window (:meth:`ServiceFront.
        host` flushes what a coordinator left overdue, and a trimmed
        pair expired before), so the pairs it still serves expire
        *after* ``final_now``, while the private replay only ever
        expires pairs due at or before it; the two sets cannot
        intersect.
        """
        front = self.front
        if not entry.active:
            return Notifications()
        if window:
            try:
                entry.engine.on_batch([Event(edge, edge.t, EventKind.ARRIVAL)
                                       for edge, _ in window])
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                front.quarantine(entry, f"{type(exc).__name__}: {exc}")
                return Notifications()
        # Every tail arrival is offered (the fan-out counts the
        # uninteresting ones as skipped); only the ones the engine is
        # given enter its window.
        lookup = front.registry.interest.lookup_ids
        given = [pair for pair in tail if entry.query_id in lookup(pair[0])]
        events, still_open = _event_list(
            itertools.chain(window, given), tail, front.delta, final_now)
        runs: List[Run] = []
        if events:
            self._fanout_batch(events, runs, entries=[entry])
        if entry.active:
            front.merge_window(still_open, final_now)
        return Notifications(runs)

    # -- metrics export ------------------------------------------------
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

    def export_metrics(self, obs) -> None:
        """Mirror the per-query stats and the engine-stage
        :class:`~repro.streaming.engine.EngineStats` into ``obs``."""
        for entry in self.front.registry.entries():
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


class MatchService(ServiceFront):
    """Hosts N continuous queries over one shared windowed edge stream,
    their engines in this process.

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
        super().__init__(delta, LocalBackend(),
                         engine_factories=engine_factories,
                         metrics=metrics, tracer=tracer)

    def ingest_routed(self, pairs: List[Tuple[Edge, int]],
                      final_now: int, final_seq: int) -> Notifications:
        """Ingest a routed *subset* of a globally ordered stream.

        This is the shard-worker entry point of the interest-routed
        cluster: ``pairs`` carries only the edges some hosted query is
        interested in, each paired with its **global** arrival sequence
        number, while ``final_now``/``final_seq`` are the whole batch's
        closing cursor.  Live edges whose window closed during the
        unseen remainder of the batch expire *now* — in the same call a
        full-stream service would have expired them — and the sequence
        cursor adopts ``final_seq`` so later registrations join at the
        global stream position.

        The caller (the cluster coordinator) has already validated
        stream order across the full batch; a subset that starts before
        the clock is refused whole, with nothing touched.
        """
        self._ensure_open()
        if pairs and self._now is not None and pairs[0][0].t < self._now:
            raise OutOfOrderError(
                f"out-of-order routed batch: t={pairs[0][0].t} after "
                f"now={self._now}", Notifications())
        return self._call(self._backend.SPANS[0], list(pairs), final_now,
                          final_seq)

    def adopt_query(self, entry: RegisteredQuery,
                    window: Tuple[Tuple[Edge, int], ...],
                    tail: Tuple[Tuple[Edge, int], ...] = (), *,
                    final_now: Optional[int] = None) -> Notifications:
        """:meth:`LocalBackend.host` of a registered ``entry``."""
        return self._backend.host(entry, window, tail, final_now)
