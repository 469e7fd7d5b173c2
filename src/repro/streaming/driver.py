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
    across each chunk.  The driver keeps no metrics or spans of its own:
    what a run did is its :class:`StreamResult`.
    """

    #: Events between wall-clock budget checks.  ``time.perf_counter``
    #: costs as much as a cheap engine call, so the budget is only
    #: sampled every K events (the overshoot is K events' worth of work,
    #: negligible against the paper's seconds-scale limits).  Must be a
    #: power of two (the check uses a bitmask).
    BUDGET_CHECK_INTERVAL = 64

    def __init__(self, engine: MatchEngine,
                 time_limit: Optional[float] = None,
                 batch_size: Optional[int] = None):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.engine = engine
        self.time_limit = time_limit
        self.batch_size = batch_size

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
        start = time.perf_counter()
        if limit is None:
            for event in events:
                result.add(event, engine.on_edge_insert(event.edge)
                           if event.is_arrival
                           else engine.on_edge_expire(event.edge))
                result.events_processed += 1
        else:
            for index, event in enumerate(events):
                if (index & check_mask == 0
                        and time.perf_counter() - start > limit):
                    result.timed_out = True
                    break
                result.add(event, engine.on_edge_insert(event.edge)
                           if event.is_arrival
                           else engine.on_edge_expire(event.edge))
                result.events_processed += 1
        result.elapsed_seconds = time.perf_counter() - start
        return result

    def _run_batched(self, events: Iterable[Event]) -> StreamResult:
        """Batched dispatch: the time budget is checked per chunk (the
        overshoot is one chunk's worth of work)."""
        result = StreamResult()
        engine = self.engine
        limit = self.time_limit
        step = self.batch_size
        events = list(events)
        start = time.perf_counter()
        for lo in range(0, len(events), step):
            if limit is not None and time.perf_counter() - start > limit:
                result.timed_out = True
                break
            chunk = events[lo:lo + step]
            for event, matches in zip(chunk, engine.on_batch(chunk)):
                result.add(event, matches)
            result.events_processed += len(chunk)
        result.elapsed_seconds = time.perf_counter() - start
        return result
