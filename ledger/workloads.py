"""Workload definitions: what each of the five workloads generates and runs.

Inputs are made in two steps so that cost does not depend on the seed:

* the **instance** (the constant :data:`INSTANCE`) draws the stream from
  the repo's dataset generator and the queries by the paper's
  random-walk protocol.  Cost varies 100x between draws (one heavy query
  can take ten times as long as all its siblings together), so queries
  are *selected by a measured property*: each candidate is run over a
  short prefix and ranked by matches per event;
* the **seed** (``--seed``) draws an isomorphic copy of the instance: it
  permutes the vertex ids and the label alphabet and shifts the time
  origin.  The program never sees the instance, only the copy, and the
  copy costs the same as the instance, which is what keeps two runs
  with different seeds comparable.

A workload hands the runner a list of *segments* per repeat.  A segment
is set up (engine built, queries registered, workers spawned, window
filled), then yields its timed operations one by one (closed loop: the
runner calls the next one only after the previous returned), then is
finished (drained and closed, untimed).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import ShardedMatchService
from repro.cluster import checkpoint as cluster_checkpoint
from repro.core.tcm import TCMEngine
from repro.datasets.generators import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import TemporalQuery
from repro.service import MatchService
from repro.streaming.driver import StreamDriver
from repro.streaming.events import Event, build_event_list
from repro.workloads.queries import random_walk_query

#: One canonical notification: (seq, query id, "+"/"-", vertex map,
#: edge map).  ``seq`` is the arrival number of the event's edge.
Note = Tuple[int, str, str, Tuple[int, ...], Tuple[Edge, ...]]


@dataclass(frozen=True)
class Config:
    """Sizes and shape of one workload (``scaled`` shrinks them)."""

    name: str
    kind: str               # "single" | "service" | "cluster" | "churn"
    spec: str               # dataset generator spec
    stream_edges: int       # length the generator is asked for
    delta: int              # window, in edges (one edge per tick)
    timed_edges: int        # stream edges in the timed region
    batch: int              # events per call (single) / edges per call
    pool: int               # calibrated candidate queries kept
    pick: str               # "sparse" | "dense" | "first"
    live: int               # queries running at once
    order_density: float = 0.5  # of the random-walk temporal orders
    cal_edges: int = 2000   # calibration prefix
    cal_match_cap: int = 20000   # candidates above this are dropped
    stream_salt: int = 0    # same salt => same stream across workloads

    def scaled(self, factor: float) -> "Config":
        if factor == 1.0:
            return self
        batch = max(16, self.batch // 8)
        delta = max(25, int(self.delta * factor))
        per_batch = batch // 2 if self.kind == "single" else batch
        timed = max(6 * per_batch, int(self.timed_edges * factor))
        return replace(
            self, batch=batch, delta=delta, timed_edges=timed,
            stream_edges=max(delta + timed,
                             int(self.stream_edges * factor)),
            cal_edges=max(100, int(self.cal_edges * factor)))


#: The five workloads.  ``service_16q`` and ``cluster_2w`` share a salt:
#: same stream, same queries, so their digests must agree.
CONFIGS: Dict[str, Config] = {c.name: c for c in (
    Config("single_sparse", "single", "superuser", stream_edges=10000,
           delta=4000, timed_edges=6000, batch=256, pool=12,
           pick="sparse", live=3, order_density=1.0, cal_edges=5000,
           cal_match_cap=1500, stream_salt=1),
    Config("single_dense", "single", "yahoo", stream_edges=4500,
           delta=500, timed_edges=4000, batch=256, pool=12,
           pick="dense", live=3, cal_edges=1000, cal_match_cap=5000,
           stream_salt=2),
    Config("service_16q", "service", "superuser", stream_edges=6000,
           delta=2000, timed_edges=3000, batch=128, pool=16,
           pick="first", live=16, cal_edges=3000, cal_match_cap=1500,
           stream_salt=3),
    Config("cluster_2w", "cluster", "superuser", stream_edges=6000,
           delta=2000, timed_edges=3000, batch=128, pool=16,
           pick="first", live=16, cal_edges=3000, cal_match_cap=1500,
           stream_salt=3),
    Config("cluster_churn", "churn", "superuser", stream_edges=6000,
           delta=2000, timed_edges=3000, batch=128, pool=24,
           pick="first", live=12, cal_edges=3000, cal_match_cap=1500,
           stream_salt=4),
)}

WORKLOAD_NAMES = tuple(CONFIGS)

#: Query sizes (edges), cycled per draw; the walks run over at least
#: WALK_EDGES stream edges so a short calibration prefix still offers
#: connected walks.
SIZES = (4, 5, 6)
WALK_EDGES = 2000

#: Churn script: every CHURN_EVERY batches the oldest live query is
#: retired and the next pool query registered; half a period later the
#: oldest live query is migrated to the other shard.
CHURN_EVERY = 8
WORKERS = 2


# ----------------------------------------------------------------------
# Instance = stream + calibrated query pool, relabelled by the seed
# ----------------------------------------------------------------------
#: Which draw of streams and queries the ledger measures.  Numbers are
#: comparable only within one instance and ``expected.json`` pins this
#: one; to see whether a claim holds on inputs it was not developed on,
#: edit this constant on both commits.
INSTANCE = 0


@dataclass
class Calibration:
    """What a kept candidate query did on the calibration prefix."""

    matches: int
    nodes: int


@dataclass
class Instance:
    config: Config
    labels: Dict[int, int]
    edges: List[Edge]
    queries: List[TemporalQuery]        # the selected ones, in run order
    calibration: List[Calibration]      # aligned with ``queries``
    generate_s: float
    calibrate_s: float

    def query_id(self, index: int) -> str:
        return f"q{index}"


def build_instance(config: Config, seed: int) -> Instance:
    """Draw the instance, copy it under ``seed``, calibrate."""
    start = time.perf_counter()
    spec = DATASET_SPECS[config.spec]
    draw = random.Random(INSTANCE * 1009 + config.stream_salt)
    base = generate_stream(spec, config.stream_edges,
                           seed=draw.randrange(1 << 30))
    used = base.edges[:config.delta + config.timed_edges]
    graph = TemporalGraph(labels=base.labels)
    for edge in base.edges[:max(config.cal_edges, WALK_EDGES)]:
        graph.insert_edge(edge)

    # The seed's isomorphism.
    rng = random.Random(seed)
    vertices = sorted(base.labels)
    image = list(vertices)
    rng.shuffle(image)
    forward = dict(zip(vertices, image))
    alphabet = sorted(set(base.labels.values()))
    shuffled = list(alphabet)
    rng.shuffle(shuffled)
    relabel = dict(zip(alphabet, shuffled))
    shift = rng.randrange(1, 100_000)
    labels = {forward[v]: relabel[l] for v, l in base.labels.items()}
    edges = [Edge.make(forward[e.u], forward[e.v], e.t + shift)
             for e in used]
    generate_s = time.perf_counter() - start

    # Draw candidates one by one until ``pool`` of them finished the
    # calibration prefix under the match cap.
    start = time.perf_counter()
    cal_edges = edges[:config.cal_edges]
    cal_events = [ev for ev in build_event_list(cal_edges, config.delta)
                  if ev.time <= cal_edges[-1].t]
    kept: List[Tuple[TemporalQuery, Calibration]] = []
    draws = 0
    while len(kept) < config.pool and draws < 8 * config.pool:
        walked = random_walk_query(graph, SIZES[draws % len(SIZES)], draw,
                                   config.order_density)
        draws += 1
        if walked is None:
            continue
        q = walked.query
        query = TemporalQuery([relabel[l] for l in q.labels],
                              [(e.u, e.v) for e in q.edges],
                              q.order.pairs())
        cal = calibrate(query, labels, cal_events, config.cal_match_cap)
        if cal is not None:
            kept.append((query, cal))
    if len(kept) < config.live:
        raise RuntimeError(
            f"{config.name}: only {len(kept)} of {draws} candidate "
            f"queries stayed under the match cap; need {config.live}")
    chosen = select(kept, config)
    return Instance(
        config=config, labels=labels, edges=edges,
        queries=[q for q, _ in chosen],
        calibration=[c for _, c in chosen],
        generate_s=generate_s,
        calibrate_s=time.perf_counter() - start)


def calibrate(query: TemporalQuery, labels: Dict[int, int],
              events: Sequence[Event],
              match_cap: int) -> Optional[Calibration]:
    """Run ``query`` over the prefix in small slices; give up (None) once
    it has reported more than ``match_cap`` matches.  The cap is a count,
    not a time, so the same candidates are kept on a faster or slower
    host or engine."""
    engine = TCMEngine(query, labels)
    driver = StreamDriver(engine, batch_size=32)
    matches = 0
    for lo in range(0, len(events), 32):
        matches += len(driver.run_events(events[lo:lo + 32]).occurred)
        if matches > match_cap:
            return None
    return Calibration(matches, engine.stats.backtrack_nodes)


def select(kept, config: Config):
    """Pick the queries a workload runs from its calibrated pool.

    Ranking is by reported matches, which is a property of the input
    (every correct engine reports the same matches), not of the engine
    that happened to measure it."""
    if config.pick == "first":
        return kept
    ranked = sorted(range(len(kept)),
                    key=lambda i: (kept[i][1].matches, i))
    if config.pick == "sparse":
        # Lowest with at least one match; match-free ones only to fill.
        ranked.sort(key=lambda i: kept[i][1].matches < 1)
        picked = ranked[:config.live]
    else:
        picked = ranked[-config.live:]
    return [kept[i] for i in sorted(picked)]


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed operation of a segment.  ``call`` returns what the
    program returned; the segment's ``notes`` turns that into canonical
    notes outside the timed call."""

    kind: str                    # "batch" or a control-op name
    edges: int                   # stream edges it carries
    call: Callable[[], object]


def _notes_of_result(result, query_id: str, t0: int) -> List[Note]:
    """``StreamResult`` as notes; one edge per tick, so ``edge.t - t0``
    is the edge's arrival number."""
    notes = [(ev.edge.t - t0, query_id, "+", m.vertex_map, m.edge_map)
             for ev, m in result.occurred]
    notes.extend((ev.edge.t - t0, query_id, "-", m.vertex_map, m.edge_map)
                 for ev, m in result.expired)
    return notes


def _notes_of_service(notifications) -> List[Note]:
    return [(n.seq, n.query_id, "+" if n.event.is_arrival else "-",
             n.match.vertex_map, n.match.edge_map)
            for n in notifications]


class SingleSegment:
    """One query on one ``TCMEngine`` through ``StreamDriver``.

    A "batch" is one ``run_events`` call on a ``batch``-event slice of
    the event list; the engine keeps its state between calls."""

    def __init__(self, inst: Instance, index: int, events: "EventPlan"):
        self.inst = inst
        self.query_id = inst.query_id(index)
        self.query = inst.queries[index]
        self.plan = events
        self.t0 = inst.edges[0].t
        self.engine: Optional[TCMEngine] = None
        self.driver: Optional[StreamDriver] = None

    def notes(self, result) -> List[Note]:
        return _notes_of_result(result, self.query_id, self.t0)

    def setup(self) -> list:
        """Build the engine and fill the window.  Returns what the fill's
        calls returned (``notes`` converts each, outside the clock)."""
        config = self.inst.config
        self.engine = TCMEngine(self.query, self.inst.labels)
        self.driver = StreamDriver(self.engine, batch_size=config.batch)
        fill = self.plan.fill
        return [self.driver.run_events(fill[lo:lo + config.batch])
                for lo in range(0, len(fill), config.batch)]

    def ops(self) -> Iterator[Op]:
        step = self.inst.config.batch
        steady = self.plan.steady
        for lo in range(0, len(steady), step):
            chunk = steady[lo:lo + step]
            arrivals = sum(1 for ev in chunk if ev.is_arrival)
            yield Op("batch", arrivals,
                     lambda chunk=chunk: self.driver.run_events(chunk))

    def finish(self) -> List[Note]:
        return self.notes(self.driver.run_events(self.plan.tail))

    def close(self) -> None:
        """Nothing to release: no worker processes."""

    def engines(self) -> List[TCMEngine]:
        return [self.engine]

    def service(self):
        return None


@dataclass
class EventPlan:
    """The event list of a single-engine workload, cut into window fill,
    steady state (every arrival pairs with an expiration) and tail."""

    fill: List[Event]
    steady: List[Event]
    tail: List[Event]


def event_plan(inst: Instance) -> EventPlan:
    config = inst.config
    events = build_event_list(inst.edges, config.delta)
    fill_until = inst.edges[config.delta - 1].t
    last = inst.edges[-1].t
    fill = [ev for ev in events if ev.time <= fill_until]
    steady = [ev for ev in events if fill_until < ev.time <= last]
    tail = [ev for ev in events if ev.time > last]
    return EventPlan(fill, steady, tail)


class ServiceSegment:
    """All live queries on one service, in-process or sharded.

    ``churn=True`` interleaves the control-plane script of
    ``cluster_churn``; run against an in-process ``MatchService`` the
    script keeps its register/unregister steps and skips the two
    operations that cannot change the output (migrate, snapshot), which
    is what makes it the reference for the cluster run's digest."""

    def __init__(self, inst: Instance, *, sharded: bool, churn: bool,
                 metrics=None):
        self.inst = inst
        self.sharded = sharded
        self.churn = churn
        self.metrics = metrics
        self.svc = None
        self.live: List[int] = []       # pool indices, oldest first
        self.next_index = 0
        self.snapshot_bytes = 0

    def _register(self, index: int) -> None:
        inst = self.inst
        self.svc.register(inst.queries[index], inst.labels, "tcm",
                          query_id=inst.query_id(index),
                          collect_results=False)
        self.live.append(index)

    def setup(self) -> list:
        """Build the service, register, spawn the workers and fill the
        window.  Returns what the fill's calls returned."""
        config = self.inst.config
        if self.sharded:
            self.svc = ShardedMatchService(config.delta, workers=WORKERS,
                                           metrics=self.metrics)
        else:
            self.svc = MatchService(config.delta, metrics=self.metrics)
        for index in range(config.live):
            self._register(index)
        self.next_index = config.live
        edges = self.inst.edges
        return [self.svc.process_batch(
                    edges[lo:min(lo + config.batch, config.delta)])
                for lo in range(0, config.delta, config.batch)]

    def notes(self, notifications) -> List[Note]:
        return _notes_of_service(notifications)

    def _swap(self) -> Iterator[Op]:
        pool = len(self.inst.queries)

        def unregister() -> list:
            self.svc.unregister(self.inst.query_id(self.live.pop(0)))
            return []

        def register() -> list:
            self._register(self.next_index % pool)
            self.next_index += 1
            return []

        yield Op("unregister", 0, unregister)
        yield Op("register", 0, register)

    def _migrate(self) -> list:
        query_id = self.inst.query_id(self.live[0])
        other = (self.svc.shard_of(query_id) + 1) % WORKERS
        self.svc.migrate(query_id, other)
        return []

    def _snapshot(self) -> list:
        self.snapshot_bytes = len(json.dumps(
            cluster_checkpoint.snapshot(self.svc)))
        return []

    def ops(self) -> Iterator[Op]:
        config = self.inst.config
        edges = self.inst.edges
        starts = range(config.delta, len(edges), config.batch)
        for number, lo in enumerate(starts, start=1):
            chunk = edges[lo:lo + config.batch]
            yield Op("batch", len(chunk),
                     lambda chunk=chunk: self.svc.process_batch(chunk))
            if not self.churn:
                continue
            if number % CHURN_EVERY == 0:
                yield from self._swap()
            if self.sharded and number % CHURN_EVERY == CHURN_EVERY // 2:
                yield Op("migrate", 0, self._migrate)
            if self.sharded and number == len(starts) // 2:
                yield Op("snapshot", 0, self._snapshot)

    def finish(self) -> List[Note]:
        try:
            return _notes_of_service(self.svc.drain())
        finally:
            self.close()

    def close(self) -> None:
        if self.sharded and self.svc is not None:
            self.svc.close()

    def engines(self) -> List[TCMEngine]:
        """Engines hosted in this process (none for a sharded service:
        they live in the workers)."""
        if self.sharded:
            return []
        return [entry.engine for entry in self.svc.registry.entries()
                if entry.engine_started]

    def service(self):
        return self.svc


#: The oracle replay's window is at least this wide (but no wider than
#: the workload's own), and the slice keeps
#: this many edges on either side of it, so that the match it is built
#: around has neighbours and also expires by the window sliding on, not
#: only in the drain.
ORACLE_WINDOW = 100
ORACLE_PAD = 16


def oracle_instance(inst: Instance, span: int, seq: int) -> Instance:
    """The short copy of ``inst`` that the brute-force oracle can afford:
    the slice of the stream around the tightest match the program
    reported (edge number ``seq`` completed it, its edges lie within
    ``span`` edges before), under a window just wide enough to hold that
    match, so the oracle has to see it occur and expire.  Same queries,
    same kind of service; the churn script is left out (a query that
    joins mid-stream has no oracle; the churn output is checked against
    the in-process script instead)."""
    config = inst.config
    delta = min(config.delta, max(span + 1, ORACLE_WINDOW))
    edges = inst.edges[max(0, seq + 1 - delta - ORACLE_PAD):
                       seq + 1 + ORACLE_PAD]
    delta = min(delta, len(edges))   # the slice hit the stream's start
    short = replace(
        config, kind="cluster" if config.kind == "churn" else config.kind,
        delta=delta, timed_edges=len(edges) - delta)
    return replace(inst, config=short, edges=edges,
                   queries=inst.queries[:config.live],
                   calibration=inst.calibration[:config.live])


#: kind of a service workload -> (sharded, runs the churn script).
#: "script" is the in-process reference of "churn".
SERVICE_KINDS = {"service": (False, False), "cluster": (True, False),
                 "churn": (True, True), "script": (False, True)}


class Workload:
    """One workload over one instance: builds the segments of a pass."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.config = inst.config
        self.plan = (event_plan(inst) if self.config.kind == "single"
                     else None)

    def segments(self, metrics=None) -> List:
        if self.config.kind == "single":
            return [SingleSegment(self.inst, i, self.plan)
                    for i in range(len(self.inst.queries))]
        sharded, churn = SERVICE_KINDS[self.config.kind]
        return [ServiceSegment(self.inst, sharded=sharded, churn=churn,
                               metrics=metrics)]

    def reference(self) -> Optional["Workload"]:
        """The in-process workload a sharded one's digest must equal."""
        kind = {"cluster": "service", "churn": "script"}.get(
            self.config.kind)
        if kind is None:
            return None
        return Workload(replace(
            self.inst, config=replace(self.config, kind=kind)))
