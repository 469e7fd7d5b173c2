"""Tests for the repro.obs tracing layer (trace.py).

Covers the span/tracer primitives, the integer wire packing workers use
to ship spans inside ``Reply.metrics``, the Chrome ``trace_event``
export, and the pipeline integration: a traced
clustered ingest must produce a span tree whose coordinator stages and
per-shard worker spans link across the process boundary by
parent/child ids — while leaving the match output identical to an
untraced run.
"""

import json

from repro.cluster import ShardedMatchService
from repro.graph.temporal_graph import Edge
from repro.obs import Span, Tracer, maybe_span
from repro.obs.trace import (
    NULL_SPAN, WIRE_SPAN_NAMES, pack_spans, unpack_spans,
)
from repro.query import TemporalQuery
from repro.service import MatchService

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
AB_LABELS = {0: "A", 1: "B"}


def ab_edges(n, start=1):
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


def spans_by_name(tracer):
    out = {}
    for span in tracer.finished:
        out.setdefault(span.name, []).append(span)
    return out


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestSpanPrimitives:
    def test_span_context_manager_times(self):
        tracer = Tracer()
        with tracer.span("work", detail=1) as span:
            pass
        assert span.duration_ns >= 0
        assert span.start_us > 0
        assert span.is_root
        assert list(tracer.finished) == [span]
        assert span.args == {"detail": 1}

    def test_child_links_to_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child", parent=parent) as child:
                pass
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert not child.is_root

    def test_remote_context_continues_the_trace(self):
        coordinator, worker = Tracer(), Tracer()
        with coordinator.span("root") as root:
            ctx = (root.trace_id, root.span_id)
        with worker.span("shard_ingest", remote=ctx) as span:
            pass
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id

    def test_ids_are_wire_safe(self):
        tracer = Tracer()
        for _ in range(100):
            span_id = tracer._new_id()
            assert 0 < span_id < 2 ** 63

    def test_maybe_span_off_is_null(self):
        assert maybe_span(None, "anything") is NULL_SPAN
        with maybe_span(None, "anything") as span:
            assert span.span_id == 0

    def test_null_span_parent_roots_a_new_trace(self):
        """A child of NULL_SPAN (its creator had tracing off) must not
        inherit trace id 0 — it starts its own trace."""
        tracer = Tracer()
        with tracer.span("child", parent=NULL_SPAN) as span:
            pass
        assert span.is_root
        assert span.trace_id > 0

    def test_finished_deque_is_bounded(self):
        tracer = Tracer(max_finished=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 4
        assert tracer.dropped == 6

    def test_take_finished_drains(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        taken = tracer.take_finished()
        assert [s.name for s in taken] == ["a"]
        assert tracer.take_finished() == []


# ----------------------------------------------------------------------
# Wire packing
# ----------------------------------------------------------------------
class TestWirePacking:
    def test_round_trip(self):
        spans = [Span(name, 7, 10 + i, 3, start_us=1000 + i,
                      duration_ns=5000 + i)
                 for i, name in enumerate(WIRE_SPAN_NAMES)]
        packed = pack_spans(spans)
        assert packed[0] == len(spans)
        assert all(isinstance(v, int) for v in packed)
        unpacked = unpack_spans(packed)
        assert [(s.name, s.trace_id, s.span_id, s.parent_id, s.start_us,
                 s.duration_ns) for s in unpacked] == \
            [(s.name, s.trace_id, s.span_id, s.parent_id, s.start_us,
              s.duration_ns) for s in spans]

    def test_unpackable_names_are_skipped(self):
        spans = [Span("route", 1, 2, 0), Span("shard_ingest", 1, 3, 0)]
        packed = pack_spans(spans)
        assert packed[0] == 1
        assert unpack_spans(packed)[0].name == "shard_ingest"

    def test_nothing_packable_is_empty(self):
        assert pack_spans([]) == ()
        assert pack_spans([Span("merge", 1, 2, 0)]) == ()

    def test_unpack_honors_offset(self):
        packed = (111, 222) + pack_spans([Span("shard_drain", 9, 8, 7)])
        (span,) = unpack_spans(packed, 2)
        assert (span.name, span.trace_id) == ("shard_drain", 9)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExports:
    def make_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("stage", parent=root) as stage:
                with tracer.span("leaf", parent=stage):
                    pass
        return tracer, root

    def test_chrome_trace_shape(self):
        tracer, root = self.make_trace()
        adopted = Span("shard_ingest", root.trace_id, 99,
                       root.span_id, start_us=root.start_us,
                       duration_ns=10)
        adopted.tid = 2
        tracer.adopt(adopted)
        doc = tracer.chrome_trace()
        json.dumps(doc)
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        ms = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in xs} == \
            {"root", "stage", "leaf", "shard_ingest"}
        track_names = {e["args"]["name"] for e in ms}
        assert "coordinator" in track_names
        assert "shard 1" in track_names
        leaf = next(e for e in xs if e["name"] == "leaf")
        assert leaf["tid"] == 0
        assert int(leaf["args"]["trace_id"], 16) == root.trace_id


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
def run_service_scenario(tracer):
    service = MatchService(10, tracer=tracer)
    service.register(AB_QUERY, AB_LABELS, "tcm", query_id="q0")
    notes = []
    for lo in range(1, 31, 10):
        notes += service.process_batch(ab_edges(10, start=lo))
    notes += service.advance_to(35)       # idle gap: t=21..25 expire
    notes += service.drain()
    return [(n.query_id, n.event, n.match, n.seq) for n in notes]


def run_cluster_scenario(tracer):
    with ShardedMatchService(10, workers=2, tracer=tracer) as service:
        service.register(AB_QUERY, AB_LABELS, "tcm", query_id="q0")
        service.register(AB_QUERY, AB_LABELS, "symbi", query_id="q1")
        notes = []
        for lo in range(1, 31, 10):
            notes += service.ingest(ab_edges(10, start=lo))
        notes += service.drain()
        return [(n.query_id, n.event, n.match, n.seq) for n in notes]


class TestPipelineTracing:
    def test_service_output_identical_with_tracing(self):
        assert run_service_scenario(None) == \
            run_service_scenario(Tracer())

    def test_service_span_tree_covers_stages(self):
        tracer = Tracer()
        run_service_scenario(tracer)
        by_name = spans_by_name(tracer)
        # Three batches, then the advance and the drain: an expiry
        # storm with no arrival opens the same tree as a batch.
        roots = by_name["service_batch"]
        assert len(roots) == 5
        assert all(r.is_root for r in roots)
        assert [r.args["events"] for r in roots] == [10, 10, 10, 0, 0]
        for stage in ("route", "dispatch", "notify"):
            stage_spans = by_name[stage]
            assert len(stage_spans) == 5, stage
            assert {s.parent_id for s in stage_spans} == \
                {r.span_id for r in roots}

    def test_cluster_output_identical_with_tracing(self):
        assert run_cluster_scenario(None) == run_cluster_scenario(Tracer())

    def test_cluster_span_tree_links_across_processes(self):
        tracer = Tracer()
        run_cluster_scenario(tracer)
        by_name = spans_by_name(tracer)
        roots = by_name["cluster_ingest"]
        assert len(roots) == 3
        root_ids = {r.span_id for r in roots}
        trace_ids = {r.trace_id for r in roots}
        route_spans = by_name["route"]
        assert len(route_spans) == 3
        assert {s.parent_id for s in route_spans} == root_ids
        # Every ingest root fathered exchange and merge spans (the
        # drain root produces its own on top).
        assert root_ids <= {s.parent_id for s in by_name["exchange"]}
        assert root_ids <= {s.parent_id for s in by_name["merge"]}
        exchange_ids = {s.span_id for s in by_name["exchange"]}
        assert {s.parent_id for s in by_name["ship"]} <= exchange_ids
        # Worker spans crossed the pipe: same trace ids as the
        # coordinator roots, parented on them, shard-numbered tracks.
        shard_spans = by_name["shard_ingest"]
        assert shard_spans
        assert {s.trace_id for s in shard_spans} <= trace_ids
        assert {s.parent_id for s in shard_spans} <= root_ids
        assert {s.tid for s in shard_spans} <= {1, 2}
        assert all(s.duration_ns > 0 for s in shard_spans)
        # Drain rides the same machinery.
        drain_spans = by_name["shard_drain"]
        assert {s.parent_id for s in drain_spans} <= \
            {r.span_id for r in by_name["cluster_drain"]}

    def test_chrome_export_of_clustered_run(self):
        tracer = Tracer()
        run_cluster_scenario(tracer)
        doc = tracer.chrome_trace()
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {0, 1, 2} <= tids
        json.dumps(doc)


# ----------------------------------------------------------------------
# CLI artifacts
# ----------------------------------------------------------------------
class TestCliTrace:
    def test_clustered_trace_run_emits_linked_chrome_trace(
            self, tmp_path, capsys):
        from repro.cli import main
        status = main(["multi", "--stream-edges", "200", "--queries", "4",
                       "--batch-size", "50", "--workers", "2",
                       "--metrics", "--trace", "--admin-port", "0",
                       "--metrics-dir", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "admin endpoint at http://127.0.0.1:" in out
        assert "trace.json" in out
        doc = json.loads((tmp_path / "trace.json").read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"cluster_ingest", "route", "ship", "exchange", "merge",
                "shard_ingest"} <= names
        # Worker spans link to coordinator roots by parent/trace ids
        # across the process boundary, on shard-numbered tracks.
        by_id = {e["args"]["span_id"]: e for e in events}
        shard_events = [e for e in events if e["name"] == "shard_ingest"]
        assert shard_events
        for event in shard_events:
            parent = by_id[event["args"]["parent_id"]]
            assert parent["name"] == "cluster_ingest"
            assert parent["args"]["trace_id"] == event["args"]["trace_id"]
            assert event["tid"] in (1, 2)
        # The metrics artifacts rode along.
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "metrics.prom").exists()

    def test_trace_without_metrics_or_workers(self, tmp_path, capsys):
        from repro.cli import main
        status = main(["multi", "--stream-edges", "100", "--queries", "2",
                       "--batch-size", "25", "--trace",
                       "--metrics-dir", str(tmp_path)])
        assert status == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "service_batch" in names

    def test_trace_refused_with_scaling(self, capsys):
        from repro.cli import main
        status = main(["multi", "--scaling", "2", "4", "--trace"])
        assert status == 2
        assert "--trace" in capsys.readouterr().err
