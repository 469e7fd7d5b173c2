"""Tests for the repro.obs observability subsystem.

Four layers of guarantees:

* instrument math — counters, gauges, fixed-bucket histogram
  percentiles, snapshot structure, snapshot merging;
* export conformance — the Prometheus text exposition parses back
  (strictly) into exactly the values the snapshot holds, and the JSON
  snapshot survives a serialization round trip;
* integration — instrumented runs produce byte-identical match output
  to uninstrumented ones (service and cluster), worker metrics arrive
  merged under shard labels, crash-lost queries keep their last-known
  counters, and the CLI ``--metrics`` artifacts validate;
* overhead — the metrics-off service hot path does no metric work at
  all (the ``metrics=None`` guard really guards).
"""

import json
import time

import pytest

from repro.cluster import ShardedMatchService
from repro.cluster.protocol import Reply
from repro.cluster.wire import decode_reply, encode_reply
from repro.graph.temporal_graph import Edge
from repro.obs import (
    Counter, Gauge, Histogram, LATENCY_BUCKETS, MetricsRegistry, SIZE_BUCKETS,
    host_metadata, merge_snapshots, parse_prometheus, render_prometheus,
    validate_snapshot,
)
from repro.obs.validate import validate_metrics_file, validate_promtext_file
from repro.query import TemporalQuery
from repro.service import MatchService, Notifications

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
AB_LABELS = {0: "A", 1: "B"}


def ab_edges(n, start=1):
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        counter = reg.counter("edges_total", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        counter.set_total(42)
        assert counter.value == 42.0
        gauge = reg.gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 8.0

    def test_series_identity_and_kind_mismatch(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", shard="0")
        b = reg.counter("hits", shard="0")
        c = reg.counter("hits", shard="1")
        assert a is b and a is not c
        with pytest.raises(ValueError):
            reg.gauge("hits", shard="0")
        with pytest.raises(ValueError):
            reg.gauge("hits")  # name-level kind clash, new labels

    def test_timer_observes_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("span_seconds"):
            time.sleep(0.001)
        hist = reg.histogram("span_seconds")
        assert hist.count == 1
        assert hist.sum >= 0.001

    def test_histogram_bucket_math(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket (le semantics).
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)
        cumulative = hist.cumulative_buckets()
        assert cumulative == [(1.0, 2), (2.0, 3), (4.0, 4), ("+Inf", 5)]

    def test_histogram_percentiles_interpolate(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(10):
            hist.observe(1.5)  # all in the (1, 2] bucket
        # Linear interpolation inside the owning bucket: p50 sits at
        # half the bucket span above its lower bound.
        assert hist.percentile(0.5) == pytest.approx(1.5)
        assert hist.percentile(1.0) == pytest.approx(2.0)

    def test_histogram_overflow_reports_last_finite_bound(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.percentile(0.99) == 2.0
        assert hist.summary()["p50"] == 2.0

    def test_histogram_empty_and_bad_bounds(self):
        assert Histogram().percentile(0.99) == 0.0
        assert Histogram().summary()["count"] == 0
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_default_bucket_sets_are_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


# ----------------------------------------------------------------------
# Snapshot + merge
# ----------------------------------------------------------------------
class TestSnapshot:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "requests", route="a").inc(3)
        reg.counter("requests_total", "requests", route="b").inc(1)
        reg.gauge("live").set(12)
        hist = reg.histogram("latency_seconds", "span")
        hist.observe(0.003)
        hist.observe(0.2)
        return reg

    def test_snapshot_json_round_trip(self):
        snap = self.make_registry().snapshot()
        assert validate_snapshot(snap) == []
        restored = json.loads(json.dumps(snap))
        assert restored == snap
        series = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in snap["requests_total"]["series"]}
        assert series[(("route", "a"),)] == 3.0
        assert series[(("route", "b"),)] == 1.0
        hist_series = snap["latency_seconds"]["series"][0]
        assert hist_series["count"] == 2
        assert hist_series["buckets"][-1] == ["+Inf", 2]

    def test_collectors_run_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"edges": 10}
        reg.add_collector(lambda: reg.counter("edges_total")
                          .set_total(state["edges"]))
        assert reg.snapshot()["edges_total"]["series"][0]["value"] == 10.0
        state["edges"] = 25
        assert reg.snapshot()["edges_total"]["series"][0]["value"] == 25.0

    def test_merge_snapshots_adds_labels(self):
        target = self.make_registry().snapshot()
        source = self.make_registry().snapshot()
        merge_snapshots(target, source, shard="1")
        series = target["requests_total"]["series"]
        assert len(series) == 4
        shards = [s["labels"].get("shard") for s in series]
        assert shards.count("1") == 2
        assert validate_snapshot(target) == []
        # Merged snapshots stay renderable (no sample-key collisions).
        samples, _ = parse_prometheus(render_prometheus(target))
        assert 'requests_total{route="a",shard="1"}' in samples

    def test_merge_kind_mismatch_raises(self):
        reg = MetricsRegistry(process_metrics=False)
        reg.counter("x").inc()
        other = MetricsRegistry(process_metrics=False)
        other.gauge("x").set(1)
        with pytest.raises(ValueError, match="kind mismatch"):
            merge_snapshots(reg.snapshot(), other.snapshot())

    def test_merge_empty_source_is_identity(self):
        target = self.make_registry().snapshot()
        before = json.loads(json.dumps(target))
        merged = merge_snapshots(
            target, MetricsRegistry(process_metrics=False).snapshot(),
            shard="9")
        assert merged is target
        assert target == before

    def test_merge_disjoint_families_union(self):
        a = MetricsRegistry(process_metrics=False)
        a.counter("left_total").inc(2)
        b = MetricsRegistry(process_metrics=False)
        b.gauge("right").set(5)
        snap = merge_snapshots(a.snapshot(), b.snapshot(), shard="3")
        assert snap["left_total"]["series"][0]["labels"] == {}
        (right,) = snap["right"]["series"]
        assert right["labels"] == {"shard": "3"}
        assert right["value"] == 5.0
        assert validate_snapshot(snap) == []

    def test_merge_histogram_bound_mismatch_raises(self):
        a = MetricsRegistry(process_metrics=False)
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry(process_metrics=False)
        b.histogram("h", buckets=(1.0, 4.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds"):
            merge_snapshots(a.snapshot(), b.snapshot(), shard="1")

    def test_merge_label_collision_raises(self):
        a = MetricsRegistry(process_metrics=False)
        a.counter("hits_total", shard="1").inc()
        b = MetricsRegistry(process_metrics=False)
        b.counter("hits_total").inc()
        # Merging b under shard="1" lands exactly on a's series.
        with pytest.raises(ValueError, match="collides"):
            merge_snapshots(a.snapshot(), b.snapshot(), shard="1")
        # The same merge with a disambiguating label is fine.
        snap = merge_snapshots(a.snapshot(), b.snapshot(), shard="2")
        assert len(snap["hits_total"]["series"]) == 2

    def test_validate_snapshot_flags_problems(self):
        assert validate_snapshot([]) != []
        assert validate_snapshot({"m": {"kind": "bogus"}}) != []
        broken = self.make_registry().snapshot()
        broken["latency_seconds"]["series"][0]["buckets"][-1][1] += 5
        assert any("+Inf" in p for p in validate_snapshot(broken))


# ----------------------------------------------------------------------
# Prometheus exposition conformance
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_round_trip_values_and_types(self):
        reg = MetricsRegistry(process_metrics=False)
        reg.counter("hits_total", "hits", route="a").inc(7)
        reg.gauge("depth", "queue").set(3)
        hist = reg.histogram("span_seconds", "spans", (0.1, 1.0),
                             stage="merge")
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(reg)
        samples, types = parse_prometheus(text)
        assert types == {"hits_total": "counter", "depth": "gauge",
                         "span_seconds": "histogram"}
        assert samples['hits_total{route="a"}'] == 7.0
        assert samples["depth"] == 3.0
        assert samples['span_seconds_bucket{le="0.1",stage="merge"}'] == 1
        assert samples['span_seconds_bucket{le="1",stage="merge"}'] == 2
        assert samples['span_seconds_bucket{le="+Inf",stage="merge"}'] == 3
        assert samples['span_seconds_count{stage="merge"}'] == 3
        assert samples['span_seconds_sum{stage="merge"}'] == \
            pytest.approx(5.55)

    def test_inf_bucket_equals_count_for_every_histogram(self):
        reg = MetricsRegistry()
        for i in range(5):
            reg.histogram("h", shard=str(i % 2)).observe(i / 10.0)
        samples, _ = parse_prometheus(render_prometheus(reg))
        for shard, expected in (("0", 3), ("1", 2)):
            assert samples[f'h_bucket{{le="+Inf",shard="{shard}"}}'] == \
                expected
            assert samples[f'h_count{{shard="{shard}"}}'] == expected

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry(process_metrics=False)
        tricky = 'back\\slash "quoted"\nnewline'
        reg.counter("weird_total", label=tricky).inc()
        text = render_prometheus(reg)
        samples, _ = parse_prometheus(text)
        (key,) = samples
        assert samples[key] == 1.0
        # Re-rendering the parsed labels must produce the same key:
        # escaping is reversible.
        assert key.startswith("weird_total{label=")

    def test_parser_rejects_malformed_lines(self):
        for bad in ("metric_with_no_value",
                    "ok 1\nbad{unclosed 2",
                    'ok{label="x"} notanumber',
                    "# TYPE bad_type wibble"):
            with pytest.raises(ValueError):
                parse_prometheus(bad)

    def test_invalid_metric_name_refused_at_render(self):
        snap = {"bad-name": {"kind": "counter", "help": "",
                             "series": [{"labels": {}, "value": 1}]}}
        with pytest.raises(ValueError):
            render_prometheus(snap)


# ----------------------------------------------------------------------
# Wire: piggybacked metric deltas
# ----------------------------------------------------------------------
class TestReplyMetrics:
    def test_metrics_tuple_round_trips_binary(self):
        reply = Reply(payload=Notifications(), routed=3, skipped=1,
                      metrics=(123456789, 42))
        frame = encode_reply(reply, {})
        assert frame is not None
        decoded = decode_reply(frame, [])
        assert decoded.metrics == (123456789, 42)
        assert decoded.routed == 3 and decoded.skipped == 1

    def test_empty_metrics_stays_encodable(self):
        frame = encode_reply(Reply(payload=Notifications(), routed=1), {})
        assert decode_reply(frame, []).metrics == ()

    def test_unpackable_metrics_fall_back_to_pickle(self):
        reply = Reply(payload=Notifications(), metrics=("not", "ints"))
        assert encode_reply(reply, {}) is None


# ----------------------------------------------------------------------
# Integration: equivalence, cluster merge, crash stats, host metadata
# ----------------------------------------------------------------------
def run_service_scenario(metrics):
    service = MatchService(10, metrics=metrics)
    service.register(AB_QUERY, AB_LABELS, "tcm", query_id="q0")
    service.register(AB_QUERY, AB_LABELS, "symbi", query_id="q1")
    notes = []
    for lo in range(1, 41, 10):
        notes += service.process_batch(ab_edges(10, start=lo))
    notes += service.advance_to(45)       # idle gap: t=31..35 expire
    notes += service.drain()
    return [(n.query_id, n.event, n.match, n.seq) for n in notes]


class TestIntegration:
    def test_service_output_identical_with_metrics(self):
        assert run_service_scenario(None) == \
            run_service_scenario(MetricsRegistry())

    def test_service_snapshot_covers_stages(self):
        reg = MetricsRegistry()
        run_service_scenario(reg)
        snap = reg.snapshot()
        assert validate_snapshot(snap) == []
        for name in ("service_ingest_seconds", "service_route_seconds",
                     "service_notify_seconds", "service_engine_seconds",
                     "service_match_delta", "service_edges_ingested_total",
                     "query_matches_total", "engine_matches_emitted_total",
                     "engine_match_groups_total",
                     "engine_filter_flushes_total",
                     "engine_arrivals_deferred_total"):
            assert name in snap, name
        # matches / groups is the parallel-edge multiplicity of a
        # query's output: 1 here, a one-edge query reports one match
        # per event.  Only TCM groups; SymBi leaves it 0.
        emitted, groups = (
            {s["labels"]["query"]: s["value"] for s in snap[name]["series"]}
            for name in ("engine_matches_emitted_total",
                         "engine_match_groups_total"))
        assert emitted["q0"] == emitted["q1"] == groups["q0"] > 0
        assert groups["q1"] == 0
        # The flush gate is visible per query: TCM flushed at least once
        # per batch; SymBi has no gate and reports zeros.
        flushes = {s["labels"]["query"]: s["value"] for s in
                   snap["engine_filter_flushes_total"]["series"]}
        assert flushes["q0"] >= 4 and flushes["q1"] == 0
        engine_series = snap["service_engine_seconds"]["series"]
        assert {s["labels"]["query"] for s in engine_series} == \
            {"q0", "q1"}
        # Every entry point is observed, not only the ones that carry
        # edges: 4 batches, the advance and the drain.  Only the four
        # count as batches (ServiceStats.batches).
        for name in ("service_ingest_seconds", "service_route_seconds",
                     "service_notify_seconds"):
            assert snap[name]["series"][0]["count"] == 6, name
        assert snap["service_batches_total"]["series"][0]["value"] == 4

    def test_cluster_output_identical_with_metrics(self):
        def run(metrics):
            with ShardedMatchService(10, workers=2,
                                     metrics=metrics) as service:
                service.register(AB_QUERY, AB_LABELS, "tcm",
                                 query_id="q0")
                service.register(AB_QUERY, AB_LABELS, "symbi",
                                 query_id="q1")
                notes = []
                for lo in range(1, 41, 10):
                    notes += service.ingest(ab_edges(10, start=lo))
                notes += service.drain()
                return [(n.query_id, n.event, n.match, n.seq)
                        for n in notes]

        assert run(None) == run(MetricsRegistry())

    def test_exchange_histogram_counts_only_the_calls(self):
        """Control round trips (STATS, a snapshot's) are not exchanges
        of an ingest / advance / drain call: the two counts agree."""
        from repro.cluster.checkpoint import snapshot
        reg = MetricsRegistry()
        with ShardedMatchService(10, workers=2, metrics=reg) as service:
            service.register(AB_QUERY, AB_LABELS, "tcm", query_id="q0")
            for lo in range(1, 51, 10):
                service.ingest(ab_edges(10, start=lo))
            service.all_query_stats()
            snapshot(service)
            service.metrics_snapshot()
            service.drain()
        counts = {reg.histogram(f"cluster_{name}_seconds").count
                  for name in ("ingest", "exchange")}
        assert counts == {6}

    def test_cluster_snapshot_merges_worker_series_by_shard(self):
        reg = MetricsRegistry()
        with ShardedMatchService(10, workers=2, metrics=reg) as service:
            for i in range(4):
                service.register(AB_QUERY, AB_LABELS, "tcm",
                                 query_id=f"q{i}")
            for lo in range(1, 31, 10):
                service.ingest(ab_edges(10, start=lo))
            service.drain()
            snap = service.metrics_snapshot()
        assert validate_snapshot(snap) == []
        # Coordinator-side families.
        for name in ("cluster_ingest_seconds", "cluster_worker_busy_seconds",
                     "cluster_worker_edges_total", "cluster_tx_bytes_total",
                     "cluster_rx_bytes_total", "cluster_roundtrips_total",
                     "cluster_shard_shipped_total"):
            assert name in snap, name
        # Worker-side families arrive labeled by hosting shard.
        shards = {s["labels"]["shard"]
                  for s in snap["service_edges_ingested_total"]["series"]}
        assert shards == {"0", "1"}
        flushes = snap["engine_filter_flushes_total"]["series"]
        assert {s["labels"]["query"] for s in flushes} == \
            {f"q{i}" for i in range(4)}
        assert all(s["labels"]["shard"] in "01" and s["value"] > 0
                   for s in flushes)
        busy = snap["cluster_worker_busy_seconds"]["series"]
        assert all(s["count"] > 0 for s in busy)
        edges = {s["labels"]["shard"]: s["value"]
                 for s in snap["cluster_worker_edges_total"]["series"]}
        assert all(v > 0 for v in edges.values())
        # Process self-metrics arrive per process: the coordinator's
        # own (unlabeled) plus one copy per shard.
        rss = snap["process_resident_memory_bytes"]["series"]
        assert {s["labels"].get("shard") for s in rss} == \
            {None, "0", "1"}
        assert all(s["value"] > 0 for s in rss)
        # Metrics snapshots must not disturb the service counters.
        assert service.stats.edges_ingested == 30

    def test_crash_keeps_last_known_query_stats(self):
        with ShardedMatchService(100, workers=2) as service:
            qids = [service.register(AB_QUERY, AB_LABELS, "tcm")
                    for _ in range(4)]
            service.ingest(ab_edges(6))
            before = {q: service.query_stats(q) for q in qids}
            assert all(s.events_processed == 6 for s in before.values())
            assert all(s.elapsed_seconds > 0 for s in before.values())
            handle = service._backend._workers[0]
            handle.process.kill()
            handle.process.join()
            service.ingest(ab_edges(2, start=7))  # detect the crash
            dead = [q for q in qids if service.shard_of(q) == 0]
            assert dead
            for query_id in dead:
                after = service.query_stats(query_id)
                # The quarantined shard's contribution survives: engine
                # timing and counters equal the last fetch, with the
                # crash recorded as an error.
                assert after.events_processed == \
                    before[query_id].events_processed
                assert after.elapsed_seconds == \
                    before[query_id].elapsed_seconds
                assert after.occurred == before[query_id].occurred
                assert after.errors >= 1
            merged = service.all_query_stats()
            assert sum(s.elapsed_seconds for s in merged) >= \
                sum(before[q].elapsed_seconds for q in dead)

    def test_crash_without_prior_fetch_returns_zeroed_stats(self):
        with ShardedMatchService(100, workers=2) as service:
            qids = [service.register(AB_QUERY, AB_LABELS, "tcm")
                    for _ in range(2)]
            service.ingest(ab_edges(4))
            handle = service._backend._workers[0]
            handle.process.kill()
            handle.process.join()
            service.ingest(ab_edges(2, start=5))
            dead = [q for q in qids if service.shard_of(q) == 0]
            for query_id in dead:
                stats = service.query_stats(query_id)
                assert stats.events_processed == 0
                assert stats.errors == 1

    def test_process_selfmetrics_on_every_registry(self):
        snap = MetricsRegistry().snapshot()
        for name in ("process_resident_memory_bytes",
                     "process_max_resident_memory_bytes"):
            assert snap[name]["series"][0]["value"] > 0, name
        for name in ("process_cpu_user_seconds_total",
                     "process_cpu_system_seconds_total"):
            assert snap[name]["kind"] == "counter"
            assert snap[name]["series"][0]["value"] >= 0.0
        samples, _ = parse_prometheus(render_prometheus(snap))
        assert samples["process_resident_memory_bytes"] > 0

    def test_driver_event_time_lag_gauge(self):
        from repro.bench.runner import make_engine
        from repro.streaming.driver import StreamDriver

        reg = MetricsRegistry(process_metrics=False)
        engine = make_engine("tcm", AB_QUERY, AB_LABELS)
        driver = StreamDriver(engine, batch_size=8, metrics=reg)
        driver.run_edges(ab_edges(20), delta=10)
        (series,) = reg.snapshot()["driver_event_time_lag_seconds"][
            "series"]
        # Synthetic timestamps are tiny ints, so the lag is roughly
        # the wall clock itself — positive and enormous.
        assert series["value"] > 1e6
        assert series["labels"] == {"engine": engine.name}

    @pytest.mark.parametrize("batch_size", [None, 8])
    def test_driver_run_counters(self, batch_size):
        from repro.bench.runner import make_engine
        from repro.streaming.driver import StreamDriver

        reg = MetricsRegistry(process_metrics=False)
        engine = make_engine("tcm", AB_QUERY, AB_LABELS)
        driver = StreamDriver(engine, batch_size=batch_size, metrics=reg)
        result = driver.run_edges(ab_edges(20), delta=10)
        snap = reg.snapshot()
        assert validate_snapshot(snap) == []
        (events,) = snap["driver_events_total"]["series"]
        assert events["value"] == result.events_processed == 40
        (runs,) = snap["driver_run_seconds"]["series"]
        assert runs["count"] == 1

    def test_host_metadata_fields(self):
        meta = host_metadata()
        for key in ("python_version", "platform", "machine", "cpu_count"):
            assert key in meta
        assert isinstance(meta["cpu_count"], int)
        json.dumps(meta)  # must be JSON-serializable


# ----------------------------------------------------------------------
# CLI artifacts
# ----------------------------------------------------------------------
class TestCliMetrics:
    def test_multi_metrics_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.cli import main
        status = main(["multi", "--stream-edges", "120", "--queries", "3",
                       "--batch-size", "40", "--metrics",
                       "--metrics-dir", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "[100%]" in out
        json_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        assert validate_metrics_file(
            str(json_path),
            require=["service_engine_seconds",
                     "service_ingest_seconds"]) == []
        with open(json_path) as handle:
            snapshot = json.load(handle)["metrics"]
        assert validate_promtext_file(str(prom_path), snapshot) == []

    def test_metrics_refused_with_scaling(self, capsys):
        from repro.cli import main
        status = main(["multi", "--scaling", "2", "4", "--metrics"])
        assert status == 2
        assert "--metrics" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
class TestOverhead:
    def test_metrics_off_does_no_metric_work(self, monkeypatch):
        """The ``metrics=None`` guard keeps the uninstrumented hot path
        free of metric work, checked without a clock: with every way to
        create a registry or move an instrument made to raise, an
        ingest + drain with metrics *off* runs through, while the same
        ingest with metrics *on* trips it.  What metrics on costs is
        the ledger's ``obs.trace_overhead``."""
        edges = ab_edges(300)
        registry = MetricsRegistry()

        def run(metrics):
            service = MatchService(50, metrics=metrics)
            service.register(AB_QUERY, AB_LABELS, "tcm")
            notes = []
            for lo in range(0, len(edges), 100):
                notes += service.process_batch(edges[lo:lo + 100])
            return notes + service.drain()

        def forbidden(*args, **kwargs):
            raise AssertionError("metric work with metrics=None")

        for owner, name in ((MetricsRegistry, "__init__"), (Counter, "inc"),
                            (Counter, "set_total"), (Gauge, "set"),
                            (Gauge, "inc"), (Histogram, "observe")):
            monkeypatch.setattr(owner, name, forbidden)
        assert len(run(None)) == 2 * len(edges)
        with pytest.raises(AssertionError, match="metric work"):
            run(registry)
