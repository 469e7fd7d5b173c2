#!/usr/bin/env python
"""Tracking layered money flows in a transaction stream.

The paper's introduction names money-laundering detection as a driving
application: money moves source -> mule -> mule -> destination, and the
hops must be chronological (each transfer after the previous one).
This example watches a synthetic transaction stream for a 3-hop layered
flow with a totally ordered chain and shows the window semantics: flows
whose first hop has expired are not reported.

Run:  python examples/money_laundering.py
"""

import random

from repro import Edge, StreamDriver, TCMEngine, TemporalQuery

# ----------------------------------------------------------------------
# Query: a path  source(S) - mule(M) - mule(M) - sink(D)
# with a total temporal order along the chain (hop1 < hop2 < hop3).
# ----------------------------------------------------------------------
query = TemporalQuery(
    labels=["S", "M", "M", "D"],
    edges=[(0, 1), (1, 2), (2, 3)],
    order_pairs=[(0, 1), (1, 2)],
)

# ----------------------------------------------------------------------
# Accounts: 0-1 flagged sources, 2-9 mules, 10-11 offshore sinks,
# 12-29 ordinary accounts.
# ----------------------------------------------------------------------
labels = {0: "S", 1: "S", 10: "D", 11: "D"}
labels.update({a: "M" for a in range(2, 10)})
labels.update({a: "usr" for a in range(12, 30)})

rng = random.Random(7)
stream = []
t = 0


def tx(u, v):
    global t
    t += 1
    stream.append(Edge.make(u, v, t))


# Background transactions.
for _ in range(40):
    u, v = rng.sample(range(12, 30), 2)
    tx(u, v)

# A layered flow inside the window: 0 -> 4 -> 7 -> 10, in order.
tx(0, 4)
for _ in range(5):
    u, v = rng.sample(range(12, 30), 2)
    tx(u, v)
tx(4, 7)
tx(7, 10)

# A *stale* flow: the first hop happens here, but the remaining hops
# come more than `delta` ticks later, so the chain never coexists in
# one window.
tx(1, 5)
for _ in range(80):
    u, v = rng.sample(range(12, 30), 2)
    tx(u, v)
tx(5, 8)
tx(8, 11)

delta = 40
engine = TCMEngine(query, labels)
result = StreamDriver(engine).run_edges(stream, delta=delta)

print(f"{len(stream)} transactions, window delta = {delta}\n")
print(f"layered flows detected: {result.num_occurred}")
for event, match in result.occurred:
    s, m1, m2, d = match.vertex_map
    hops = " -> ".join(f"{e.u}->{e.v}@t{e.t}" for e in match.edge_map)
    print(f"  t={event.time}: {s} => {m1} => {m2} => {d}   ({hops})")

flows = {tuple(m.vertex_map) for _, m in result.occurred}
assert (0, 4, 7, 10) in flows, "the in-window flow must be detected"
assert all(vm[0] != 1 for vm in flows), (
    "the stale flow spans more than one window and must NOT match")
print("\n=> only flows completing within the window are reported; the "
      "stale chain through account 1 is correctly ignored.")
