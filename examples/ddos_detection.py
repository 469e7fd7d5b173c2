#!/usr/bin/env python
"""Detecting the paper's DDoS attack pattern in synthetic network traffic.

Figure 1 of the paper motivates time-constrained matching with a DDoS
pattern: an attacker commands several zombies (at times t_{i,1}), after
which each zombie hits the victim (t_{i,2} with t_{i,1} < t_{i,2}).
This example builds that query for two zombies, synthesizes background
traffic with an embedded attack, and shows that TCM pinpoints exactly
the attack — while the same topology without temporal constraints would
also accept benign "victim talked to zombie first" patterns.

Both detection queries are hosted on one :class:`~repro.service.
MatchService` — the deployment model for continuous detection: one
shared windowed stream, many registered queries, live alert callbacks.

Run:  python examples/ddos_detection.py
"""

import random

from repro import Edge, MatchService, TemporalQuery

ATTACKER, ZOMBIE1, ZOMBIE2, VICTIM = "atk", "zom", "zom", "vic"

# ----------------------------------------------------------------------
# The DDoS query (Figure 1, two zombies): a star from the attacker to
# each zombie, then each zombie to the victim, with t_cmd < t_hit per
# zombie.
#   vertices: 0 = attacker, 1 = zombie, 2 = zombie, 3 = victim
#   edges:    0 (atk-z1), 1 (z1-vic), 2 (atk-z2), 3 (z2-vic)
#   order:    0 < 1,  2 < 3
# ----------------------------------------------------------------------
query = TemporalQuery(
    labels=[ATTACKER, ZOMBIE1, ZOMBIE2, VICTIM],
    edges=[(0, 1), (1, 3), (0, 2), (2, 3)],
    order_pairs=[(0, 1), (2, 3)],
)

# Without the order: the same topology, any timing.
query_no_order = TemporalQuery(
    labels=[ATTACKER, ZOMBIE1, ZOMBIE2, VICTIM],
    edges=[(0, 1), (1, 3), (0, 2), (2, 3)],
)

# ----------------------------------------------------------------------
# Synthetic traffic: hosts 0..19.  Host 0 is the attacker, hosts 1-6
# are compromised machines, host 19 is the victim's server.
# ----------------------------------------------------------------------
rng = random.Random(2024)
labels = {0: ATTACKER, 19: VICTIM}
labels.update({h: ZOMBIE1 for h in range(1, 7)})
labels.update({h: "usr" for h in range(7, 19)})

stream = []
t = 0


def emit(u, v):
    global t
    t += 1
    stream.append(Edge.make(u, v, t))


# Benign chatter, including victim-initiated contacts to zombies
# (which form the same topology but the WRONG temporal order).
for _ in range(60):
    u, v = rng.sample(range(7, 19), 2)
    emit(u, v)
    if rng.random() < 0.3:
        emit(19, rng.randrange(1, 7))       # victim -> zombie (benign)

# The attack: commands first, strikes afterwards.
emit(0, 3)          # attacker commands zombie 3
emit(0, 5)          # attacker commands zombie 5
for _ in range(10):  # some unrelated noise in between
    u, v = rng.sample(range(7, 19), 2)
    emit(u, v)
emit(3, 19)         # zombie 3 hits the victim
emit(5, 19)         # zombie 5 hits the victim

# ----------------------------------------------------------------------
# Host both queries on one service over the shared window and stream.
# The ordered query raises live alerts through its subscriber.
# ----------------------------------------------------------------------
delta = 200
service = MatchService(delta)

alerts = []
service.register(query, labels, "tcm", query_id="ddos-ordered",
                 subscriber=lambda n: n.occurred and alerts.append(n))
service.register(query_no_order, labels, "tcm", query_id="ddos-any-time")

# A real deployment feeds batches as packets arrive; replay in chunks.
for lo in range(0, len(stream), 25):
    service.ingest(stream[lo:lo + 25])
service.drain()

print(f"stream: {len(stream)} edges, window {delta}, "
      f"{len(service.registry)} registered queries")

ordered = service.query_stats("ddos-ordered")
unordered = service.query_stats("ddos-any-time")

print(f"\ntime-constrained DDoS pattern: {ordered.occurred} occurrence(s)")
for alert in alerts:
    atk, z1, z2, vic = alert.match.vertex_map
    print(f"  t={alert.event.time}: attacker={atk} zombies=({z1},{z2}) "
          f"victim={vic}")

print(f"\nsame topology without temporal order: "
      f"{unordered.occurred} occurrence(s) "
      f"(includes benign victim-initiated contacts)")

assert alerts, "the attack must raise an alert"
assert ordered.occurred == len(alerts), "every occurrence must alert"
assert ordered.occurred < unordered.occurred, (
    "the temporal order should rule out benign matches")
print("\n=> the temporal order isolates the real command-then-strike "
      "attack.")
