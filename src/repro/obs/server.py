"""Live admin/scrape endpoint: stdlib ``http.server`` on a thread.

The metrics substrate is snapshot-only until something serves it;
:class:`AdminServer` is that something — a daemon-threaded
``ThreadingHTTPServer`` bound to localhost, scrapeable *while a run is
in flight*:

* ``GET /metrics`` — Prometheus text exposition (via the existing
  :func:`~repro.obs.promtext.render_prometheus`) of the published
  snapshot if one was pushed, else a live snapshot of the attached
  registry; 503 when metrics are off.
* ``GET /healthz`` — JSON from the attached health callable (e.g.
  ``ShardedMatchService.health``: per-shard liveness incl. quarantine
  state); HTTP 200 while ``status == "ok"``, 503 once degraded.
* ``GET /varz`` — the full JSON snapshot plus host metadata, plus any
  extra sections an attached ``varz`` callable contributes (the
  sharded CLI adds the live placement map and migration state).
* ``GET /`` — an endpoint index.

Concurrency model — why scraping a live run is safe without locks:

* the server thread never performs RPC.  The health callables read
  only coordinator-side mirrors, and ``/metrics`` either renders a
  *published* snapshot (an immutable dict swapped in atomically by the
  ingest thread via :meth:`publish` — the sharded service pushes its
  merged cluster snapshot this way) or snapshots the local registry;
* registry snapshots iterate ``sorted(dict.items())``, which CPython
  executes atomically under the GIL, and instrument reads are plain
  attribute loads — a concurrent ``observe`` can at worst make one
  histogram's ``sum`` lag its ``counts`` by one sample, never corrupt
  a structure.  A snapshot that still races a structural registry
  mutation (a brand-new series mid-iteration) is retried once.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How often ``serve_forever`` checks for shutdown.  ``stop()`` blocks
#: for up to one interval, and the stdlib's 0.5 s default made every
#: ``--admin-port`` run exit half a second late.
_POLL_SECONDS = 0.02

_ENDPOINTS = {
    "/metrics": "Prometheus text exposition",
    "/healthz": "liveness (200 ok, 503 degraded)",
    "/varz": "JSON metrics snapshot + host metadata",
}


class AdminServer:
    """Serves the admin endpoints for one registry/health pair.

    Both attachments are optional and may be (re)assigned before
    :meth:`start`: ``registry`` is a
    :class:`~repro.obs.MetricsRegistry`, ``health`` a zero-argument
    callable returning a JSON-ready dict with a ``"status"`` key.
    ``port=0`` binds an ephemeral port (reported by :meth:`start` /
    :attr:`port`).
    """

    def __init__(self, registry=None,
                 health: Optional[Callable[[], Dict[str, object]]] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self.health = health
        #: Optional zero-argument callable returning extra JSON-ready
        #: sections merged into the ``/varz`` body (the sharded CLI
        #: attaches the live placement map and migration state here).
        #: Like ``health``, it must read only coordinator-side mirrors
        #: — it runs on the server thread.
        self.varz = None
        self.host = host
        self._port = port
        self._published: Optional[Dict[str, object]] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        admin = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                admin._handle(self)

            def log_message(self, *args) -> None:
                pass  # the run's stdout is the CLI's, not access logs

        self._httpd = ThreadingHTTPServer((self.host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-admin",
            kwargs={"poll_interval": _POLL_SECONDS}, daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread.  Idempotent."""
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "AdminServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Snapshot publication (ingest thread -> server thread)
    # ------------------------------------------------------------------
    def publish(self, snapshot: Dict[str, object]) -> None:
        """Atomically swap in a pre-merged snapshot for ``/metrics`` and
        ``/varz`` (the sharded service pushes its cluster-wide merged
        snapshot here, because only the ingest thread may talk to the
        worker pipes)."""
        self._published = snapshot

    def _snapshot(self) -> Optional[Dict[str, object]]:
        published = self._published
        if published is not None:
            return published
        if self.registry is None:
            return None
        try:
            return self.registry.snapshot()
        except RuntimeError:
            # A structural registry mutation (new series) raced the
            # snapshot's dict iteration; one retry sees the new state.
            return self.registry.snapshot()

    # ------------------------------------------------------------------
    # Request handling (runs on the server thread)
    # ------------------------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                snapshot = self._snapshot()
                if snapshot is None:
                    self._send(request, 503, "text/plain",
                               "metrics disabled\n")
                else:
                    from repro.obs.promtext import render_prometheus
                    self._send(request, 200, _PROM_CONTENT_TYPE,
                               render_prometheus(snapshot))
            elif path == "/healthz":
                if self.health is None:
                    body: Dict[str, object] = {"status": "ok"}
                else:
                    body = self.health()
                code = 200 if body.get("status") == "ok" else 503
                self._send_json(request, code, body)
            elif path == "/varz":
                from repro.obs.hostinfo import host_metadata
                body = {"host": host_metadata(),
                        "metrics": self._snapshot() or {}}
                if self.varz is not None:
                    body.update(self.varz())
                self._send_json(request, 200, body)
            elif path == "/":
                self._send_json(request, 200, {"endpoints": _ENDPOINTS})
            else:
                self._send(request, 404, "text/plain", "not found\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # scraper hung up mid-response
        except Exception as exc:  # noqa: BLE001 - serve errors as 500s
            try:
                self._send(request, 500, "text/plain",
                           f"{type(exc).__name__}: {exc}\n")
            except OSError:
                pass

    def _send_json(self, request: BaseHTTPRequestHandler, code: int,
                   body: Dict[str, object]) -> None:
        self._send(request, code, "application/json",
                   json.dumps(body, sort_keys=True) + "\n")

    @staticmethod
    def _send(request: BaseHTTPRequestHandler, code: int,
              content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)


__all__ = ["AdminServer"]
