"""Output checks: a digest over the notification stream and an oracle replay.

The digest is one sha256 per pass over the ``(seq, query_id, kind, vertex
map, edge map)`` notes exactly as the program returned them, window fill
and drain included, so it is sensitive to order.  It must be equal across
the passes of a run, equal to the in-process reference of a sharded
workload (the cluster promises the merged stream of a single-process
service, byte for byte) and, for seed 0, equal to ``expected.json``.

The oracle replay is the check that works for any seed: the workload's
program path runs a short-window copy of its inputs
(``workloads.oracle_instance``) and every event's matches are compared
with ``repro.oracle.OracleEngine``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.oracle import OracleEngine
from repro.streaming.events import build_event_list

from ledger.workloads import Instance, Note


class Digest:
    """Running digest over the operations of one pass.

    ``locate=True`` also finds the tightest match reported (smallest
    distance in time between its edges), as ``(span, seq)``: the oracle
    replay is built around it.  ``keep=True`` keeps the notes themselves
    (the oracle replay compares them)."""

    def __init__(self, *, locate: bool = False, keep: bool = False):
        self.order = hashlib.sha256()
        self.count = 0
        self.locate = locate
        self.tightest: Optional[Tuple[int, int]] = None
        self.kept: Optional[List[Note]] = [] if keep else None

    def add(self, notes: Sequence[Note]) -> None:
        if not notes:
            return
        self.count += len(notes)
        self.order.update(repr(notes).encode())
        if self.kept is not None:
            self.kept.extend(notes)
        if self.locate:
            for seq, _, kind, _, edge_map in notes:
                if kind == "+":
                    times = [e.t for e in edge_map]
                    found = (max(times) - min(times), seq)
                    if self.tightest is None or found < self.tightest:
                        self.tightest = found

    def result(self) -> Dict[str, object]:
        return {"order": self.order.hexdigest(), "notes": self.count}


def oracle_replay(inst: Instance, notes: Sequence[Note]):
    """Compare ``notes``, everything the program reported on the oracle
    instance ``inst`` (fill, steady state and drain), with
    ``OracleEngine`` fed the same events, per query and per event.
    Returns ``(problems, what the oracle saw)``: one line per
    disagreeing (query, event), and one if the replay was too quiet to
    mean anything: the oracle has to have seen matches occur and
    expire."""
    config = inst.config
    events = build_event_list(inst.edges, config.delta)
    t0 = inst.edges[0].t
    got: Dict[tuple, List] = {}
    for seq, query_id, kind, vertex_map, edge_map in notes:
        got.setdefault((query_id, seq, kind), []).append(
            (vertex_map, edge_map))
    problems: List[str] = []
    seen = {"+": 0, "-": 0}
    for index in range(len(inst.queries)):
        query_id = inst.query_id(index)
        oracle = OracleEngine(inst.queries[index], inst.labels)
        for ev in events:
            if ev.is_arrival:
                want = oracle.on_edge_insert(ev.edge)
                kind = "+"
            else:
                want = oracle.on_edge_expire(ev.edge)
                kind = "-"
            seen[kind] += len(want)
            have = sorted(got.pop((query_id, ev.edge.t - t0, kind), []))
            if have != sorted((m.vertex_map, m.edge_map) for m in want):
                problems.append(
                    f"oracle replay: {query_id} {kind}{ev.edge}: program "
                    f"reported {len(have)} matches, oracle {len(want)}")
    if got:
        problems.append(f"oracle replay: program reported matches for "
                        f"{len(got)} events the replay does not contain")
    if not seen["+"] or not seen["-"]:
        problems.append(
            f"oracle replay checked nothing: {seen['+']} matches occurred "
            f"and {seen['-']} expired within {len(inst.edges)} edges")
    return problems, {"edges": len(inst.edges), "delta": config.delta,
                      "occurred": seen["+"], "expired": seen["-"]}
