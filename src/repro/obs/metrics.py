"""Dependency-free metrics: counters, gauges and histograms.

One :class:`MetricsRegistry` holds every instrument of one process.
Instruments are identified by ``(name, labels)``: the registry
get-or-creates them, so call sites simply say
``registry.counter("service_edges_total").inc()`` — and hot paths hold
on to the returned instrument to skip the dict lookup.

Histograms use fixed bucket bounds (:data:`LATENCY_BUCKETS` for
seconds-scale spans, :data:`SIZE_BUCKETS` for batch/queue sizes) and
derive p50/p95/p99 by linear interpolation inside the owning bucket —
the standard fixed-bucket estimate, cheap enough to compute at snapshot
time and exactly what the Prometheus exposition carries anyway.

Design constraints, in order:

* **zero cost when absent** — components take ``metrics=None`` and
  guard with ``is None``; no global registry, no no-op call layer on
  the per-event path;
* **no dependencies** — plain dicts, lists and floats; ``snapshot()``
  is JSON-ready as returned;
* **mergeable** — :func:`merge_snapshots` folds one snapshot into
  another under extra labels, which is how the cluster coordinator
  combines per-worker registries into one view (workers ship their
  snapshots over the existing STATS verb).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Bucket upper bounds for seconds-scale span histograms (10us..10s).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-05, 2.5e-05, 5e-05, 1e-04, 2.5e-04, 5e-04,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Bucket upper bounds for size/count histograms (batch sizes, deltas).
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: ``(name, sorted labels)`` — the registry key of one series.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class Counter:
    """A monotonic counter.

    :meth:`set_total` exists for *mirroring*: components that already
    maintain cumulative counters (``ServiceStats``, ``QueryStats``,
    ``EngineStats``) export them through snapshot-time collectors by
    overwriting the counter with the authoritative total, instead of
    double-counting on the hot path.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_total(self, value: float) -> None:
        """Adopt an externally maintained cumulative total."""
        self.value = float(value)


class Gauge:
    """A value that goes up and down (queue depths, live edges)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram with percentile summaries.

    ``bounds`` are the inclusive upper bounds of the finite buckets;
    one implicit overflow bucket catches everything above the last
    bound.  ``observe`` is two list operations (a bisect and an index
    increment), so it is safe on per-batch paths.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and "
                             "non-empty")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``), interpolated linearly
        inside the owning bucket; the overflow bucket reports its lower
        bound (the largest finite one — there is no upper edge)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.bounds):
                    return self.bounds[-1]
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = self.bounds[index]
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(1.0, fraction)
            cumulative += bucket_count
        return self.bounds[-1]  # pragma: no cover - loop always returns

    def summary(self) -> Dict[str, float]:
        """count/sum/avg plus the p50/p95/p99 estimates."""
        avg = self.sum / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "avg": round(avg, 9),
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
        }

    def cumulative_buckets(self) -> List[Tuple[object, int]]:
        """Prometheus-style ``(upper bound, cumulative count)`` pairs;
        the overflow bound is the string ``"+Inf"`` (JSON-safe)."""
        out: List[Tuple[object, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            out.append((bound, running))
        out.append(("+Inf", self.count))
        return out


_KINDS = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricsRegistry:
    """All instruments of one process, keyed by name and labels.

    A metric *name* carries one kind and one help string; each distinct
    label set under it is one *series*.  Collectors registered with
    :meth:`add_collector` run at the start of every :meth:`snapshot`
    call — components use them to refresh gauges and mirrored counters
    from state they already maintain, which keeps snapshot-only metrics
    entirely off the hot path.
    """

    def __init__(self, process_metrics: bool = True) -> None:
        self._series: Dict[SeriesKey, object] = {}
        self._meta: Dict[str, Tuple[str, str]] = {}  # name -> (kind, help)
        self._collectors: List[Callable[[], None]] = []
        if process_metrics:
            # Standard process self-metrics (RSS, CPU seconds, open
            # fds) on every registry: snapshot-time collectors only, so
            # the hot path never sees them; sharded runs merge each
            # worker's copy under its shard label.
            from repro.obs.hostinfo import register_process_collectors
            register_process_collectors(self)

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets)

    def _get(self, cls, name: str, help: str, labels: Dict[str, str],
             buckets: Optional[Sequence[float]] = None):
        key: SeriesKey = (name, tuple(sorted(
            (k, str(v)) for k, v in labels.items())))
        instrument = self._series.get(key)
        if instrument is None:
            kind = _KINDS[cls]
            meta = self._meta.get(name)
            if meta is not None and meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} is a {meta[0]}, not a {kind}")
            if meta is None or (help and not meta[1]):
                self._meta[name] = (kind, help)
            instrument = (cls(buckets) if cls is Histogram and buckets
                          else cls())
            self._series[key] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} is a {_KINDS[type(instrument)]}, "
                f"not a {_KINDS[cls]}")
        return instrument

    def drop(self, label: str, value: str) -> None:
        """Forget every series labelled ``label=value`` (a retired
        query's ``query=<id>`` ones), so series stay bounded by what is
        live; the family keeps its kind and help."""
        for key in list(self._series):
            if (label, value) in key[1]:
                del self._series[key]

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run at the start of every snapshot."""
        self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Nested JSON-ready dict of every metric and series.

        Shape::

            {name: {"kind": ..., "help": ...,
                    "series": [{"labels": {...}, "value": ...} |
                               {"labels": {...}, "count": ..., "sum":
                                ..., "avg": ..., "p50": ..., "p95":
                                ..., "p99": ...,
                                "buckets": [[bound, cumulative], ...]}
                              ]}}
        """
        for collector in self._collectors:
            collector()
        out: Dict[str, object] = {}
        for (name, labels), instrument in sorted(
                self._series.items(), key=lambda item: item[0]):
            kind, help_text = self._meta[name]
            metric = out.setdefault(
                name, {"kind": kind, "help": help_text, "series": []})
            series: Dict[str, object] = {"labels": dict(labels)}
            if isinstance(instrument, Histogram):
                series.update(instrument.summary())
                series["buckets"] = [
                    [bound, count]
                    for bound, count in instrument.cumulative_buckets()]
            else:
                series["value"] = instrument.value
            metric["series"].append(series)
        return out


def merge_snapshots(target: Dict[str, object], source: Dict[str, object],
                    **extra_labels) -> Dict[str, object]:
    """Fold ``source`` snapshot into ``target`` under ``extra_labels``.

    Series keep their own labels plus the extra ones (the cluster
    coordinator adds ``shard="N"`` to each worker's series), so merged
    snapshots stay renderable by :func:`repro.obs.promtext.
    render_prometheus` with no collisions.  Returns ``target``.

    A merge that would corrupt the result raises :class:`ValueError`
    instead of silently producing an unrenderable snapshot: a kind
    mismatch within one family, histogram series whose bucket bounds
    disagree with the family's, or a source series whose merged labels
    exactly collide with a series already in the target (the caller
    forgot a disambiguating extra label).
    """
    extras = {key: str(value) for key, value in extra_labels.items()}
    for name, metric in source.items():
        existing = target.setdefault(
            name, {"kind": metric["kind"], "help": metric["help"],
                   "series": []})
        if existing["kind"] != metric["kind"]:
            raise ValueError(
                f"metric {name!r} kind mismatch: "
                f"{existing['kind']} vs {metric['kind']}")
        seen = {tuple(sorted(s["labels"].items()))
                for s in existing["series"]}
        bounds = None
        if metric["kind"] == "histogram" and existing["series"]:
            bounds = [b for b, _ in existing["series"][0]["buckets"]]
        for series in metric["series"]:
            merged = dict(series)
            merged["labels"] = {**series["labels"], **extras}
            key = tuple(sorted(merged["labels"].items()))
            if key in seen:
                raise ValueError(
                    f"metric {name!r}: merged series collides on "
                    f"labels {merged['labels']!r} (pass disambiguating "
                    f"extra labels)")
            seen.add(key)
            if metric["kind"] == "histogram":
                series_bounds = [b for b, _ in series["buckets"]]
                if bounds is None:
                    bounds = series_bounds
                elif series_bounds != bounds:
                    raise ValueError(
                        f"metric {name!r}: histogram bucket bounds "
                        f"mismatch across merged series")
            existing["series"].append(merged)
    return target
