"""Registry of continuous queries hosted by a :class:`MatchService`.

Each registered query pairs a :class:`~repro.query.temporal_query.
TemporalQuery` with the vertex labels of the shared data stream, an engine
kind (any name from the benchmark engine registry, or a custom factory),
and the bookkeeping the service needs for fan-out: a stable query id, the
stream sequence number at which the query joined (so mid-stream
registrations only see post-registration events), subscriber callbacks,
and per-query counters.

Engines are constructed lazily: registering a query is cheap, and the
engine only materializes when the first event reaches it.  This also
means a query that is registered and unregistered between batches never
pays engine-construction cost.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.query.temporal_query import TemporalQuery
from repro.service.interest import QueryInterestIndex
from repro.service.stats import QueryStats
from repro.streaming.driver import StreamResult
from repro.streaming.engine import MatchEngine

#: An engine factory: ``factory(query, labels, edge_label_fn) -> engine``.
EngineFactory = Callable[..., MatchEngine]


def _default_factories() -> Dict[str, EngineFactory]:
    """The benchmark engine registry (imported lazily: ``repro.bench``
    itself depends on the service for the multi-query harness)."""
    from repro.bench.runner import ENGINE_FACTORIES
    return ENGINE_FACTORIES


class QueryStatus(enum.Enum):
    """Lifecycle of a registered query."""

    ACTIVE = "active"
    ERRORED = "errored"


@dataclass
class RegisteredQuery:
    """One continuous query hosted by the service."""

    query_id: str
    query: TemporalQuery
    labels: Dict[int, object]
    engine_kind: str
    joined_seq: int
    factory: EngineFactory
    edge_label_fn: Optional[Callable] = None
    custom_factory: bool = False
    status: QueryStatus = QueryStatus.ACTIVE
    error: Optional[str] = None
    subscribers: List[Callable] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    result: Optional[StreamResult] = None
    _engine: Optional[MatchEngine] = None

    @property
    def engine(self) -> MatchEngine:
        """The query's engine, constructed on first access."""
        if self._engine is None:
            self._engine = self.factory(self.query, self.labels,
                                        self.edge_label_fn)
        return self._engine

    @property
    def engine_started(self) -> bool:
        """True once the lazy engine has been constructed."""
        return self._engine is not None

    @property
    def active(self) -> bool:
        return self.status is QueryStatus.ACTIVE

    def mark_errored(self, exc: BaseException) -> None:
        """Quarantine this query after an engine/subscriber failure."""
        self.status = QueryStatus.ERRORED
        self.error = f"{type(exc).__name__}: {exc}"
        self.stats.errors += 1


class QueryRegistry:
    """Registered queries of one service: register/unregister/list.

    The registry is deliberately independent of the service so that a
    checkpoint can rebuild it, and so tests can inspect it directly.
    """

    def __init__(self,
                 engine_factories: Optional[Dict[str, EngineFactory]] = None):
        self._factories = engine_factories
        self._entries: Dict[str, RegisteredQuery] = {}
        self._ids = itertools.count()
        #: Label-triple -> interested-query index, maintained on every
        #: register/unregister (this is the single choke point for
        #: membership, including checkpoint restores).
        self.interest = QueryInterestIndex()
        # Entry snapshot reused by the per-event fan-out loop; rebuilt
        # only when membership changes (register/unregister), never per
        # event.
        self._entry_cache: Optional[List[RegisteredQuery]] = None

    # ------------------------------------------------------------------
    # Engine kinds
    # ------------------------------------------------------------------
    def engine_factories(self) -> Dict[str, EngineFactory]:
        """The engine-kind registry in effect (benchmark registry unless
        custom factories were supplied)."""
        if self._factories is not None:
            return self._factories
        return _default_factories()

    def resolve_factory(self, engine: object) -> "tuple[str, EngineFactory]":
        """Resolve ``engine`` (a kind name or a callable factory) to a
        ``(kind_name, factory)`` pair."""
        if callable(engine) and not isinstance(engine, str):
            name = getattr(engine, "__name__", "custom")
            return name, engine
        factories = self.engine_factories()
        try:
            return str(engine), factories[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine kind {engine!r}; "
                f"known: {sorted(factories)}") from None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, query: TemporalQuery, labels: Dict[int, object],
                 engine: object = "tcm", *,
                 query_id: Optional[str] = None,
                 joined_seq: int = 0,
                 edge_label_fn: Optional[Callable] = None,
                 subscriber: Optional[Callable] = None,
                 collect_results: bool = True) -> RegisteredQuery:
        """Register ``query`` and return its entry.

        ``engine`` is an engine-kind name (``"tcm"``, ``"symbi"``, ...)
        or a factory callable.  ``joined_seq`` is the stream sequence
        number at registration time; the service routes an expiration to
        a query only if it also saw the arrival.  ``subscriber`` is an
        optional first callback; ``collect_results`` keeps a per-query
        :class:`StreamResult` for later inspection (switch off for
        long-running services that only need the counters).
        """
        if query_id is None:
            query_id = f"q{next(self._ids)}"
            while query_id in self._entries:  # skip explicit-name clashes
                query_id = f"q{next(self._ids)}"
        elif query_id in self._entries:
            raise ValueError(f"query id {query_id!r} already registered")
        kind, factory = self.resolve_factory(engine)
        entry = RegisteredQuery(
            query_id=query_id,
            query=query,
            labels=dict(labels),
            engine_kind=kind,
            joined_seq=joined_seq,
            factory=factory,
            custom_factory=callable(engine) and not isinstance(engine, str),
            edge_label_fn=edge_label_fn,
            stats=QueryStats(query_id=query_id, engine=kind),
            result=StreamResult() if collect_results else None,
        )
        if subscriber is not None:
            entry.subscribers.append(subscriber)
        self._entries[query_id] = entry
        # Custom factories stay un-indexed (always routed): a duck-typed
        # engine may not interpret the query's labels like the stock
        # engines, so pruning on their behalf would be unsound.
        self.interest.add(query_id, query, entry.labels, edge_label_fn,
                          indexable=not entry.custom_factory)
        self._entry_cache = None
        return entry

    def unregister(self, query_id: str) -> RegisteredQuery:
        """Remove and return the entry; raises ``KeyError`` if absent."""
        try:
            entry = self._entries.pop(query_id)
        except KeyError:
            raise KeyError(f"no registered query {query_id!r}") from None
        self.interest.remove(query_id)
        self._entry_cache = None
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, query_id: str) -> RegisteredQuery:
        """The entry for ``query_id``; raises ``KeyError`` if absent."""
        try:
            return self._entries[query_id]
        except KeyError:
            raise KeyError(f"no registered query {query_id!r}") from None

    def list(self) -> List[RegisteredQuery]:
        """All entries in registration order."""
        return list(self._entries.values())

    def entries(self) -> List[RegisteredQuery]:
        """Cached entry snapshot for the fan-out hot path.

        Callers must not mutate the returned list; its contents go
        stale only on register/unregister (status flips like
        ``mark_errored`` are visible through the shared entries, so
        hot-path callers re-check ``entry.active`` themselves).
        """
        if self._entry_cache is None:
            self._entry_cache = list(self._entries.values())
        return self._entry_cache

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegisteredQuery]:
        return iter(self._entries.values())
