"""Tests for the repro.obs admin endpoint (repro.obs.server).

Route behaviour (payloads, status codes, content types), lifecycle
(ephemeral ports, idempotent stop), the published-snapshot precedence
the sharded service relies on, and the load test the ISSUE demands:
``/metrics`` scraped concurrently from several threads during a live
clustered ingest must always parse cleanly.
"""

import json
import threading
import urllib.error
import urllib.request

from repro.cluster import ShardedMatchService
from repro.graph.temporal_graph import Edge
from repro.obs import MetricsRegistry, parse_prometheus
from repro.obs.server import AdminServer
from repro.query import TemporalQuery

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
AB_LABELS = {0: "A", 1: "B"}


def ab_edges(n, start=1):
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


def fetch(url):
    """GET ``url``; returns (status, content_type, body) without
    raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return (error.code, error.headers.get("Content-Type"),
                error.read().decode("utf-8"))


class TestRoutes:
    def test_metrics_renders_prometheus(self):
        reg = MetricsRegistry(process_metrics=False)
        reg.counter("hits_total", "hits", route="a").inc(7)
        with AdminServer(registry=reg) as server:
            status, ctype, body = fetch(server.url + "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        samples, types = parse_prometheus(body)
        assert samples['hits_total{route="a"}'] == 7.0
        assert types == {"hits_total": "counter"}

    def test_metrics_disabled_is_503(self):
        with AdminServer() as server:
            status, _, body = fetch(server.url + "/metrics")
        assert status == 503
        assert "disabled" in body

    def test_healthz_defaults_ok_without_callable(self):
        with AdminServer() as server:
            status, ctype, body = fetch(server.url + "/healthz")
        assert status == 200
        assert ctype == "application/json"
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_degraded_is_503(self):
        health = {"status": "degraded", "live_workers": 1, "workers": 2}
        with AdminServer(health=lambda: dict(health)) as server:
            status, _, body = fetch(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["live_workers"] == 1

    def test_varz_carries_host_and_metrics(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        with AdminServer(registry=reg) as server:
            status, _, body = fetch(server.url + "/varz")
        assert status == 200
        varz = json.loads(body)
        assert varz["host"]["python_version"]
        assert varz["metrics"]["depth"]["series"][0]["value"] == 3.0

    def test_index_and_404(self):
        with AdminServer() as server:
            status, _, body = fetch(server.url + "/")
            assert status == 200
            assert sorted(json.loads(body)["endpoints"]) == \
                ["/healthz", "/metrics", "/varz"]
            for path in ("/nope", "/tracez"):
                status, _, _ = fetch(server.url + path)
                assert status == 404, path

    def test_handler_errors_become_500(self):
        def broken_health():
            raise RuntimeError("mirror on fire")

        with AdminServer(health=broken_health) as server:
            status, _, body = fetch(server.url + "/healthz")
        assert status == 500
        assert "mirror on fire" in body


class TestLifecycle:
    def test_ephemeral_port_and_idempotent_stop(self):
        server = AdminServer()
        port = server.start()
        assert port > 0
        assert server.start() == port  # second start is a no-op
        assert server.url.endswith(str(port))
        server.stop()
        server.stop()  # idempotent

    def test_published_snapshot_wins_over_registry(self):
        reg = MetricsRegistry(process_metrics=False)
        reg.counter("local_total").inc()
        with AdminServer(registry=reg) as server:
            server.publish({"published_total": {
                "kind": "counter", "help": "",
                "series": [{"labels": {}, "value": 9.0}]}})
            _, _, body = fetch(server.url + "/metrics")
        samples, _ = parse_prometheus(body)
        assert samples == {"published_total": 9.0}


class TestConcurrentScrapes:
    def test_scrapes_during_live_clustered_ingest(self):
        """Hammer /metrics and /healthz from scraper threads while the
        main thread drives a clustered ingest, publishing merged
        snapshots between batches — every response must parse clean."""
        reg = MetricsRegistry()
        failures, scraped = [], []
        stop = threading.Event()

        with ShardedMatchService(10, workers=2, metrics=reg) as service:
            for i in range(4):
                service.register(AB_QUERY, AB_LABELS, "tcm",
                                 query_id=f"q{i}")
            with AdminServer(registry=reg,
                             health=service.health) as server:
                url = server.url

                def scrape():
                    while not stop.is_set():
                        try:
                            status, _, body = fetch(url + "/metrics")
                            if status != 200:
                                failures.append(f"/metrics {status}")
                                continue
                            samples, _ = parse_prometheus(body)
                            scraped.append(len(samples))
                            status, _, body = fetch(url + "/healthz")
                            if status != 200:
                                failures.append(f"/healthz {status}")
                            elif json.loads(body)["status"] != "ok":
                                failures.append("healthz degraded")
                        except Exception as exc:  # noqa: BLE001
                            failures.append(repr(exc))

                scrapers = [threading.Thread(target=scrape)
                            for _ in range(3)]
                for thread in scrapers:
                    thread.start()
                try:
                    for lo in range(1, 201, 10):
                        service.ingest(ab_edges(10, start=lo))
                        server.publish(service.metrics_snapshot())
                    service.drain()
                finally:
                    stop.set()
                    for thread in scrapers:
                        thread.join(timeout=10)
        assert scraped  # the scrapers were served, not just started
        assert failures == []
