"""Outside-in tracer: spans around the public calls into each layer.

Nothing under ``src/`` is edited.  :func:`install` replaces the listed
class methods and module functions with timing wrappers, in the traced
process only and only after the untraced repeats of that process have
run.  A span stack gives every span its parent, so a layer's *self
time* is its spans' durations minus the part their child spans cover;
self times of all layers therefore add up to the duration of the root
spans, which the runner opens around each timed operation.

Spans are kept in flat arrays (a traced service pass records 250 000)
and written out only when asked (``--trace-out``), as
``{name, start, end, parent, batch}`` records plus the counts.

What the wrappers cost lands in the *parent's* self time (the parent is
running while its child's wrapper takes its two clock readings), so
``tcm.self_s``, ``service.self_s`` and ``driver.self_s`` are upper
bounds; ``obs.trace_overhead`` says by how much the whole run grew.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

from repro.cluster import coordinator, wire
from repro.core.backtrack import Backtracker
from repro.core.dcs import DCS
from repro.core.maxmin import MaxMinIndex
from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import TemporalGraph
from repro.service.interest import QueryInterestIndex
from repro.service.service import MatchService
from repro.streaming.driver import StreamDriver

#: layer -> [(owner, attribute)].  The engine layers are wrapped only
#: where the engines run in the traced process: a sharded service forks
#: its workers, and spans recorded there would never be read.
ENGINE_TARGETS: Dict[str, List[Tuple[object, str]]] = {
    "graph": [(TemporalGraph, "insert_edge"), (TemporalGraph, "remove_edge"),
              (TemporalGraph, "discard_edge")],
    "maxmin": [(MaxMinIndex, "on_graph_change"),
               (MaxMinIndex, "on_graph_changes"),
               (MaxMinIndex, "purge_vertex")],
    "dcs": [(DCS, "apply"), (DCS, "stage"), (DCS, "refresh"),
            (DCS, "discard_edge")],
    "backtrack": [(Backtracker, "find_matches")],
    "tcm": [(TCMEngine, "on_batch")],
    "driver": [(StreamDriver, "run_events")],
    "interest": [(QueryInterestIndex, "lookup_ids")],
    "service": [(MatchService, "process_batch")],
}
CLUSTER_TARGETS: Dict[str, List[Tuple[object, str]]] = {
    "wire": [(wire, "encode_ingest"), (wire, "encode_routed"),
             (wire, "decode_reply")],
    "coordinator": [(coordinator.ShardedMatchService, "ingest")],
}
#: Wrapped calls whose result length is a count of its own
#: (``maxmin.changed_per_call``).
SIZED = {"maxmin.on_graph_change", "maxmin.on_graph_changes"}


class Tracer:
    """Span store + the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.batch_of = array("i")
        self.result_len: Dict[str, int] = {}
        self.stack: List[int] = []
        self.batch = -1
        self.enabled = False
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def open(self, name_id: int) -> int:
        index = len(self.name_of)
        stack = self.stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.batch_of.append(self.batch)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def root(self, name: str, batch: int) -> int:
        """Open the runner's span around one timed operation."""
        self.batch = batch
        return self.open(self._name_id(name))

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        tracer = self
        sized = name in SIZED
        if sized:
            self.result_len.setdefault(name, 0)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if sized:
                tracer.result_len[name] += len(result)
            return result

        return traced

    def install(self, *, engine_layers: bool) -> None:
        groups = [CLUSTER_TARGETS]
        if engine_layers:
            groups.append(ENGINE_TARGETS)
        for targets in groups:
            for layer, pairs in targets.items():
                for owner, attr in pairs:
                    original = getattr(owner, attr)
                    setattr(owner, attr,
                            self._wrap(original, f"{layer}.{attr}"))
                    self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading -------------------------------------------------------
    def mark(self) -> int:
        """Position to pass to :meth:`summary` as ``since``."""
        return len(self.name_of)

    def summary(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` over the spans
        recorded at or after position ``since``."""
        count = len(self.name_of)
        child_time = [0.0] * (count - since)
        start, end, parent = self.start, self.end, self.parent
        for i in range(since, count):
            p = parent[i]
            if p >= since:
                child_time[p - since] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(since, count):
            row = out[names[name_of[i]]]
            row["calls"] += 1
            row["self_s"] += end[i] - start[i] - child_time[i - since]
        return out

    def write(self, path: str, counts: Dict[str, float]) -> None:
        """Dump every span and the counts as one JSON document."""
        names = self.names
        spans = [{"name": names[self.name_of[i]],
                  "start": self.start[i], "end": self.end[i],
                  "parent": self.parent[i], "batch": self.batch_of[i]}
                 for i in range(len(self.name_of))]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "counts": counts}, handle)
