"""The RPC plane of the sharded back-end: worker processes and the
pipes to them.

One :class:`Worker` record per shard holds what the back-end knows of a
shard besides its placement: process, pipe, the cursor it was lost at,
routing counters, instruments.  Whether a shard is live is the
placement's fact (:class:`~repro.cluster.placement.ShardPlacement`),
read here before every send and never written.  A dead pipe or an
undecodable reply costs its shard: the transport closes the pipe, ends
the process and reports the shard to its caller's ``lost`` callback;
every decoded reply goes to the ``account`` callback.  The transport
never reads the service front.
"""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import protocol, wire
from repro.cluster.protocol import Reply, make_exception
from repro.cluster.worker import shard_worker_main
from repro.obs.trace import maybe_span


class WorkerCrashError(RuntimeError):
    """A shard worker died while handling a request."""


#: Losing a shard: a dead pipe, or a reply that cannot be decoded.
_SHARD_LOST = (EOFError, OSError, wire.FrameError, pickle.UnpicklingError)

#: Fork when available: child processes inherit the parent's modules,
#: so callable engine factories and ``edge_label_fn`` closures defined
#: anywhere importable-by-reference keep working across the pipe.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)

#: The per-shard instruments, in :attr:`Worker.instruments` order.
_SHARD_INSTRUMENTS = (
    ("histogram", "cluster_worker_busy_seconds",
     "worker-side dispatch time per request"),
    ("counter", "cluster_worker_edges_total",
     "edges ingested by the shard worker"),
    ("counter", "cluster_tx_bytes_total",
     "request bytes shipped to the shard"),
    ("counter", "cluster_rx_bytes_total",
     "reply bytes received from the shard"),
    ("counter", "cluster_roundtrips_total",
     "request/reply exchanges with the shard"),
)


@dataclass
class Worker:
    """One shard worker, as the coordinator knows it."""

    index: int
    process: object
    conn: object
    #: The front's cursor ``(seq, now)`` when the worker was lost.
    lost_from: Optional[Tuple[int, Optional[int]]] = None
    #: Routing counters (see the coordinator's ``shard_shipped``).
    shipped: int = 0
    unshipped: int = 0
    routed: int = 0
    skipped: int = 0
    #: :data:`_SHARD_INSTRUMENTS`, bound on first use with metrics on.
    instruments: Optional[Tuple] = None


class Transport:
    """The worker pool and the request/reply plane over its pipes."""

    def __init__(self, placement, delta: int, metrics, tracer, *,
                 lost: Callable[[int, BaseException], None],
                 account: Callable[[Reply, int], None]):
        self.placement = placement
        self.delta = delta
        self.metrics, self.tracer = metrics, tracer
        self.lost, self.account = lost, account
        self.workers: List[Worker] = []
        #: The reply-wire code table: a hosted query's code indexes
        #: ``names``; a released code is reused by the next query.
        self.codes: Dict[str, int] = {}
        self.names: List[Optional[str]] = []
        self._free: List[int] = []
        if metrics is not None:
            self._g_inflight = metrics.gauge(
                "cluster_inflight_requests",
                "replies outstanding at the peak of the last exchange")

    def intern(self, query_id: str) -> None:
        """Give a query about to be hosted its reply-wire code: a freed
        one when there is one."""
        if self._free:
            code = self._free.pop()
            self.names[code] = query_id
        else:
            code = len(self.names)
            self.names.append(query_id)
        self.codes[query_id] = code

    def release(self, query_id: str) -> None:
        """Free ``query_id``'s code: no worker hosts the query any
        more, so no reply can carry it."""
        code = self.codes.pop(query_id)
        self.names[code] = None
        self._free.append(code)

    def spawn(self) -> int:
        """Start the next shard's worker; returns its index."""
        index = len(self.workers)
        parent_conn, child_conn = _CONTEXT.Pipe()
        process = _CONTEXT.Process(
            target=shard_worker_main,
            args=(child_conn, self.delta, self.metrics is not None,
                  self.tracer is not None),
            name=f"repro-shard-{index}", daemon=True)
        process.start()
        child_conn.close()
        self.workers.append(Worker(index, process, parent_conn))
        return index

    def stop(self, shard: int) -> None:
        """Ask one worker to stop, reap its process and close its pipe.
        Every wait is bounded: a wedged worker must not hang the caller
        (terminate reaps it regardless).  A worker whose pipe is already
        closed gets only the reaping."""
        worker = self.workers[shard]
        try:
            worker.conn.send_bytes(pickle.dumps((protocol.STOP, None)))
            if worker.conn.poll(timeout=5):
                # The ack says nothing; whatever is in the pipe is read
                # and dropped, never unpickled.
                worker.conn.recv_bytes()
        except (OSError, EOFError):
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _lose(self, worker: Worker, cause: BaseException) -> None:
        """The worker is gone: close its pipe, end its process, count
        the crash and report the shard."""
        if self.metrics is not None:
            self.metrics.counter(
                "cluster_worker_crashes_total",
                "shard workers lost to a dead pipe",
                shard=str(worker.index)).inc()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        self.lost(worker.index, cause)

    def _instruments(self, worker: Worker) -> Tuple:
        if worker.instruments is None:
            worker.instruments = tuple(
                getattr(self.metrics, kind)(name, help_text,
                                            shard=str(worker.index))
                for kind, name, help_text in _SHARD_INSTRUMENTS)
        return worker.instruments

    def _post(self, worker: Worker, message) -> None:
        """Ship one message: a binary frame as is, anything else
        pickled (the worker sniffs which)."""
        data = (message if isinstance(message, bytes)
                else pickle.dumps(message))
        worker.conn.send_bytes(data)
        if self.metrics is not None:
            self._instruments(worker)[2].inc(len(data))

    def _receive(self, worker: Worker) -> Reply:
        """Read and decode one reply, counting it and the worker-side
        deltas it piggybacks (see :class:`~repro.cluster.protocol.
        Reply`): busy nanoseconds, then edges ingested."""
        data = worker.conn.recv_bytes()
        obs = self.metrics
        if obs is not None:
            instruments = self._instruments(worker)
            instruments[3].inc(len(data))
        reply = (wire.decode_reply(data, self.names)
                 if wire.is_reply_frame(data) else pickle.loads(data))
        if obs is not None:
            instruments[4].inc()
            if reply.metrics:
                instruments[0].observe(reply.metrics[0] / 1e9)
                if len(reply.metrics) > 1:
                    instruments[1].inc(reply.metrics[1])
        return reply

    def request(self, shard: int, message) -> Reply:
        """One request/reply :meth:`exchange` with one worker; raises
        :class:`WorkerCrashError` when the shard is not live or is lost
        on the way."""
        replies = self.exchange({shard: message})
        if shard not in replies:
            raise WorkerCrashError(f"shard {shard} worker is lost")
        return replies[shard]

    def exchange(self, messages: Dict[int, object],
                 parent=None) -> Dict[int, Reply]:
        """Send per-shard messages to the live shards among them, then
        collect the replies.

        A worker that dies at either step, or whose reply cannot be
        decoded, is lost and simply missing from the result — every
        other shard that was sent to is still read, so no reply is left
        in a pipe for the next exchange to mistake for its own.  The
        first failure a reply carries is raised once all are read.
        ``parent`` (a live span) nests an ``exchange`` span with a
        ``ship`` child around the send-all phase; control exchanges
        pass no parent and produce no spans.
        """
        tracer = self.tracer if parent is not None else None
        span = maybe_span(tracer, "exchange", parent=parent,
                          shards=len(messages)).__enter__()
        ship = maybe_span(tracer, "ship", parent=span).__enter__()
        sent: List[Worker] = []
        for shard, message in messages.items():
            if not self.placement.is_live(shard):
                continue
            worker = self.workers[shard]
            try:
                self._post(worker, message)
                sent.append(worker)
            except OSError as exc:
                self._lose(worker, exc)
        ship.__exit__(None, None, None)
        if self.metrics is not None:
            # Peak pipe depth: replies outstanding once sends complete.
            self._g_inflight.set(len(sent))
        replies: Dict[int, Reply] = {}
        failure = None
        for worker in sent:
            try:
                reply = self._receive(worker)
            except _SHARD_LOST as exc:
                self._lose(worker, exc)
                continue
            self.account(reply, worker.index)
            if reply.failure is not None:
                failure = failure or reply.failure
            else:
                replies[worker.index] = reply
        span.__exit__(None, None, None)
        if self.metrics is not None:
            self._g_inflight.set(0)
        if failure is not None:
            raise make_exception(failure)
        return replies

    def broadcast(self, message) -> Dict[int, Reply]:
        """Send ``message`` to every live worker, then collect replies."""
        return self.exchange({shard: message
                              for shard in self.placement.live_shards()})


__all__ = ["Transport", "Worker", "WorkerCrashError"]
