#!/usr/bin/env python
"""Quickstart: time-constrained continuous subgraph matching in 60 lines.

We watch a stream of labelled, timestamped edges for a triangle pattern
whose edges must appear in a prescribed chronological order, and print
each time-constrained embedding the moment it occurs or expires.

Run:  python examples/quickstart.py
"""

from repro import Edge, StreamDriver, TCMEngine, TemporalQuery

# ----------------------------------------------------------------------
# 1. The pattern: a triangle A - B - C with a temporal order.
#    Edge 0 (A-B) must happen before edge 1 (B-C), which must happen
#    before edge 2 (A-C).
# ----------------------------------------------------------------------
query = TemporalQuery(
    labels=["A", "B", "C"],
    edges=[(0, 1), (1, 2), (0, 2)],
    order_pairs=[(0, 1), (1, 2)],
)

# ----------------------------------------------------------------------
# 2. The data stream: vertices 10/11 are 'A', 20 is 'B', 30 is 'C'.
#    The window delta keeps only the last 50 time units alive.
# ----------------------------------------------------------------------
labels = {10: "A", 11: "A", 20: "B", 30: "C"}
stream = [
    Edge.make(10, 20, 1),    # A-B  .. in order
    Edge.make(20, 30, 5),    # B-C  .. in order
    Edge.make(10, 30, 9),    # A-C  -> completes the ordered triangle!
    Edge.make(11, 30, 12),   # another A-C, but 11 has no A-B edge
    Edge.make(11, 20, 15),   # A-B for 11 -- too late for edge order
    Edge.make(11, 30, 20),   # but a later A-C completes 11's triangle
]

# ----------------------------------------------------------------------
# 3. Drive the TCM engine over the stream.
# ----------------------------------------------------------------------
engine = TCMEngine(query, labels)
driver = StreamDriver(engine)
result = driver.run_edges(stream, delta=50)

print("pattern:", query)
print(f"stream of {len(stream)} edges, window delta = 50\n")

for event, match in result.occurred:
    images = ", ".join(f"e{i}->({e.u},{e.v},t={e.t})"
                       for i, e in enumerate(match.edge_map))
    print(f"t={event.time:>3}  OCCUR   {images}")
for event, match in result.expired:
    images = ", ".join(f"e{i}->({e.u},{e.v},t={e.t})"
                       for i, e in enumerate(match.edge_map))
    print(f"t={event.time:>3}  EXPIRE  {images}")

print(f"\n{result.num_occurred} occurrences, "
      f"{result.num_expired} expirations, "
      f"{engine.stats.backtrack_nodes} backtracking nodes")
