"""Stream driver: feeds an event list to an engine and collects results.

This is the outer loop of Algorithm 1 (lines 8-20): events are processed
chronologically; arrivals report occurring embeddings, expirations report
expiring embeddings.  The driver optionally enforces a wall-clock budget so
the benchmark harness can implement the paper's per-query time limit, and
optionally feeds the engine in chronological *batches* (``batch_size``)
through :meth:`~repro.streaming.engine.MatchEngine.on_batch` — same
output, one engine call per batch instead of per event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import Edge
from repro.obs.trace import maybe_span
from repro.streaming.engine import MatchEngine
from repro.streaming.events import Event, build_event_list
from repro.streaming.match import Match


@dataclass
class StreamResult:
    """Outcome of driving one engine over one stream.

    What each event reported is kept as the engine returned it — an
    ``(event, sequence)`` per reporting event, written only by
    :meth:`add`.  ``num_occurred`` / ``num_expired`` count without
    building a match; ``occurred`` / ``expired`` flatten to
    ``(event, match)`` pairs when read.
    """

    reports: List[Tuple[Event, Sequence[Match]]] = field(
        default_factory=list)
    num_occurred: int = 0
    num_expired: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    events_processed: int = 0

    def add(self, event: Event, matches: Sequence[Match]) -> None:
        """File what the engine reported for ``event``."""
        if matches:
            self.reports.append((event, matches))
            if event.is_arrival:
                self.num_occurred += len(matches)
            else:
                self.num_expired += len(matches)

    def _flat(self, arrival: bool) -> List[Tuple[Event, Match]]:
        return [(event, match) for event, matches in self.reports
                if event.is_arrival == arrival for match in matches]

    @property
    def occurred(self) -> List[Tuple[Event, Match]]:
        """``(event, match)`` per occurring embedding, built on read."""
        return self._flat(True)

    @property
    def expired(self) -> List[Tuple[Event, Match]]:
        """``(event, match)`` per expiring embedding, built on read."""
        return self._flat(False)

    def occurrence_multiset(self) -> List[Match]:
        """All occurring matches, for cross-engine comparisons."""
        return sorted(m for _, m in self.occurred)

    def expiration_multiset(self) -> List[Match]:
        """All expiring matches, for cross-engine comparisons."""
        return sorted(m for _, m in self.expired)


class StreamDriver:
    """Runs a matching engine over a chronological event list.

    ``batch_size=None`` (the default) dispatches per event through
    ``on_edge_insert``/``on_edge_expire``; ``batch_size=K`` slices the
    event list into chronological chunks of ``K`` events and dispatches
    each through ``on_batch`` — byte-identical results, but engines with
    a real batched path (TCM, SymBi) dedupe their filter maintenance
    across each chunk.
    """

    #: Events between wall-clock budget checks.  ``time.perf_counter``
    #: costs as much as a cheap engine call, so the budget is only
    #: sampled every K events (the overshoot is K events' worth of work,
    #: negligible against the paper's seconds-scale limits).  Must be a
    #: power of two (the check uses a bitmask).
    BUDGET_CHECK_INTERVAL = 64

    def __init__(self, engine: MatchEngine,
                 time_limit: Optional[float] = None,
                 batch_size: Optional[int] = None,
                 metrics=None, tracer=None):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.engine = engine
        self.time_limit = time_limit
        self.batch_size = batch_size
        #: Optional :class:`~repro.obs.MetricsRegistry`.  ``None`` (the
        #: default) keeps the hot loops untouched: the driver only
        #: consults it at run/chunk granularity, never per event.
        self.metrics = metrics
        #: Optional :class:`~repro.obs.Tracer`: each batched chunk (or
        #: one whole per-event run) becomes a root span, which is what
        #: the slow-batch log watches.  Same granularity rule as
        #: metrics — never consulted per event.
        self.tracer = tracer

    def run_edges(self, edges: Iterable[Edge], delta: int) -> StreamResult:
        """Build the event list for ``edges`` with window ``delta`` and run."""
        return self.run_events(build_event_list(edges, delta))

    def run_events(self, events: Iterable[Event]) -> StreamResult:
        """Process ``events`` in order, collecting the reported deltas."""
        if self.batch_size is not None:
            return self._run_batched(events)
        result = StreamResult()
        limit = self.time_limit
        engine = self.engine
        check_mask = self.BUDGET_CHECK_INTERVAL - 1
        event = None
        root = maybe_span(self.tracer, "driver_run").__enter__()
        start = time.perf_counter()
        if limit is None:
            for event in events:
                result.add(event, engine.on_edge_insert(event.edge)
                           if event.is_arrival
                           else engine.on_edge_expire(event.edge))
                result.events_processed += 1
        else:
            budget_checks = 0
            for index, event in enumerate(events):
                if index & check_mask == 0:
                    budget_checks += 1
                    if time.perf_counter() - start > limit:
                        result.timed_out = True
                        break
                result.add(event, engine.on_edge_insert(event.edge)
                           if event.is_arrival
                           else engine.on_edge_expire(event.edge))
                result.events_processed += 1
        result.elapsed_seconds = time.perf_counter() - start
        root.__exit__(None, None, None)
        if self.metrics is not None:
            self._record_run(result,
                             budget_checks=(0 if limit is None
                                            else budget_checks),
                             last_event=event)
        return result

    def _run_batched(self, events: Iterable[Event]) -> StreamResult:
        """Batched dispatch: the time budget is checked per chunk (the
        overshoot is one chunk's worth of work)."""
        result = StreamResult()
        engine = self.engine
        limit = self.time_limit
        step = self.batch_size
        obs = self.metrics
        tracer = self.tracer
        batch_events = batch_seconds = lag_gauge = None
        if obs is not None:
            from repro.obs import SIZE_BUCKETS
            batch_events = obs.histogram(
                "driver_batch_events", "events per driver chunk",
                SIZE_BUCKETS, engine=engine.name)
            batch_seconds = obs.histogram(
                "driver_batch_seconds", "seconds per driver chunk",
                engine=engine.name)
            lag_gauge = obs.gauge(
                "driver_event_time_lag_seconds",
                "wall-clock now minus the last processed event's "
                "stream timestamp", engine=engine.name)
        events = list(events)
        budget_checks = 0
        start = time.perf_counter()
        for lo in range(0, len(events), step):
            if limit is not None:
                budget_checks += 1
                if time.perf_counter() - start > limit:
                    result.timed_out = True
                    break
            chunk = events[lo:lo + step]
            chunk_start = (time.perf_counter() if obs is not None
                           else 0.0)
            span = maybe_span(tracer, "driver_batch",
                              events=len(chunk)).__enter__()
            matches_lists = engine.on_batch(chunk)
            for event, matches in zip(chunk, matches_lists):
                result.add(event, matches)
            result.events_processed += len(chunk)
            span.__exit__(None, None, None)
            if obs is not None:
                batch_seconds.observe(time.perf_counter() - chunk_start)
                batch_events.observe(len(chunk))
                lag_gauge.set(time.time() - chunk[-1].time)
        result.elapsed_seconds = time.perf_counter() - start
        if obs is not None:
            self._record_run(result, budget_checks=budget_checks)
        return result

    def _record_run(self, result: StreamResult,
                    budget_checks: int, last_event=None) -> None:
        """Fold one finished run into the metrics registry."""
        obs = self.metrics
        engine = self.engine.name
        obs.counter("driver_events_total",
                    "events dispatched by the stream driver",
                    engine=engine).inc(result.events_processed)
        obs.counter("driver_budget_checks_total",
                    "wall-clock budget checks performed",
                    engine=engine).inc(budget_checks)
        if result.timed_out:
            obs.counter("driver_timeouts_total",
                        "runs cut short by the time budget",
                        engine=engine).inc()
        obs.histogram("driver_run_seconds",
                      "wall-clock seconds per driver run",
                      engine=engine).observe(result.elapsed_seconds)
        if last_event is not None:
            obs.gauge("driver_event_time_lag_seconds",
                      "wall-clock now minus the last processed event's "
                      "stream timestamp", engine=engine).set(
                          time.time() - last_event.time)
