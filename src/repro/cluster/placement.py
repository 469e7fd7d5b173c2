"""Shard placement: which worker hosts which query, and which shards
are live.

One deterministic policy (important for the equivalence tests and for
reproducible benchmarks): least-loaded-first, the lowest shard index
breaking ties, which spreads a dynamically registered/retired query
population evenly.

The placement is the one record of a shard's liveness: live,
quarantined (its worker was lost), retired (drained) or stopped (the
service closed).  Quarantined shards keep their membership records, so
the queries lost with a crashed worker stay enumerable.

The placement is a *live* object, not a registration-time constant:
assignments move (:meth:`ShardPlacement.move`), shards appear
(:meth:`~ShardPlacement.add_shard`) and retire gracefully
(:meth:`~ShardPlacement.retire`, distinct from a crash quarantine),
targets can be chosen without mutating (:meth:`~ShardPlacement.
select_target`), and :meth:`~ShardPlacement.plan_rebalance` turns
per-query load figures into a deterministic list of migrations.  Every
decision breaks ties on the lowest shard index over the *sorted*
live-shard list, so placements — and therefore migration plans — are
reproducible across runs regardless of add/retire churn.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

LIVE, QUARANTINED, RETIRED, STOPPED = (
    "live", "quarantined", "retired", "stopped")

#: A rebalance stops once the heaviest/lightest shard gap is within this
#: fraction of the mean shard load.
REBALANCE_TOLERANCE = 0.1


class ShardPlacement:
    """Tracks query -> shard assignments across ``num_shards`` shards."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        # Ordered membership per shard (dict-as-ordered-set keeps
        # enumeration deterministic).
        self._members: Dict[int, Dict[str, None]] = {
            shard: {} for shard in range(num_shards)}
        self._shard_of: Dict[str, int] = {}
        #: Per shard, LIVE, QUARANTINED, RETIRED or STOPPED.
        self._state: Dict[int, str] = dict.fromkeys(self._members, LIVE)

    @property
    def num_shards(self) -> int:
        return len(self._members)

    def live_shards(self) -> List[int]:
        """Shards still eligible for placement, in ascending index
        order — explicitly sorted, so the lowest-index tie break stays
        deterministic no matter how shards were added, quarantined or
        retired."""
        return sorted(s for s, state in self._state.items() if state == LIVE)

    def is_live(self, shard: int) -> bool:
        """Whether ``shard`` exists and its worker is serving."""
        return self._state.get(shard) == LIVE

    def select_target(self, *, exclude: Iterable[int] = ()) -> int:
        """The least-loaded live shard right now, without recording a
        placement (used to choose migration targets).  ``exclude``
        removes candidate shards (typically the migration source)."""
        banned = set(exclude)
        live = [s for s in self.live_shards() if s not in banned]
        if not live:
            raise RuntimeError("no live shards left to place queries on")
        return min(live, key=lambda s: (len(self._members[s]), s))

    def place(self, query_id: str) -> int:
        """Assign ``query_id`` to the least-loaded live shard."""
        if query_id in self._shard_of:
            raise ValueError(f"query {query_id!r} already placed")
        shard = self.select_target()
        self._members[shard][query_id] = None
        self._shard_of[query_id] = shard
        return shard

    def move(self, query_id: str, target: int) -> int:
        """Reassign ``query_id`` to ``target``; returns the shard it
        left.  Moving *off* a quarantined shard is allowed (that is how
        stranded queries recover); moving *onto* a dead or retired
        shard is not."""
        if target not in self._members:
            raise KeyError(f"no shard {target}")
        if not self.is_live(target):
            raise ValueError(f"shard {target} is not live")
        source = self._shard_of[query_id]
        if source == target:
            return source
        self._members[source].pop(query_id, None)
        self._members[target][query_id] = None
        self._shard_of[query_id] = target
        return source

    def add_shard(self) -> int:
        """Grow the placement by one (empty, live) shard; returns its
        index.  Indices are never reused: retired and quarantined
        shards keep theirs."""
        index = len(self._members)
        self._members[index] = {}
        self._state[index] = LIVE
        return index

    def retire(self, shard: int) -> None:
        """Take an (emptied) shard out of rotation for good — the
        graceful counterpart of :meth:`quarantine`: retiring is planned,
        so it refuses while queries are still assigned."""
        if self._members[shard]:
            raise ValueError(
                f"shard {shard} still hosts "
                f"{len(self._members[shard])} queries; move them first")
        self._state[shard] = RETIRED

    def is_retired(self, shard: int) -> bool:
        return self._state[shard] == RETIRED

    def stop_all(self) -> None:
        """Every live shard stops: the service closed its workers."""
        for shard, state in self._state.items():
            if state == LIVE:
                self._state[shard] = STOPPED

    def plan_rebalance(self, query_load: Dict[str, float]
                       ) -> List[Tuple[str, int, int]]:
        """A deterministic list of ``(query_id, source, target)`` moves
        that evens out per-shard load.

        ``query_load`` maps query ids to a non-negative load figure
        (events processed, busy seconds, ...); a shard's load is the sum
        over its hosted queries.  Moves are planned greedily: take the
        heaviest viable query off the most loaded shard onto the least
        loaded one, where *viable* means the move strictly shrinks the
        gap between them, until the heaviest/lightest gap is within
        :data:`REBALANCE_TOLERANCE` of the mean shard load.  Planning
        only — the caller performs the migrations.
        """
        live = self.live_shards()
        if len(live) < 2:
            return []
        members = {s: list(self._members[s]) for s in live}
        loads = {s: float(sum(query_load.get(q, 0.0) for q in members[s]))
                 for s in live}
        mean = sum(loads.values()) / len(live)
        if mean <= 0.0:
            return []
        moves: List[Tuple[str, int, int]] = []
        while True:
            source = max(live, key=lambda s: (loads[s], -s))
            target = min(live, key=lambda s: (loads[s], s))
            gap = loads[source] - loads[target]
            if gap <= REBALANCE_TOLERANCE * mean:
                break
            viable = [(query_load.get(q, 0.0), q) for q in members[source]
                      if 0.0 < query_load.get(q, 0.0) < gap]
            if not viable:
                break
            load, query_id = max(viable)
            moves.append((query_id, source, target))
            members[source].remove(query_id)
            members[target].append(query_id)
            loads[source] -= load
            loads[target] += load
        return moves

    def remove(self, query_id: str) -> int:
        """Drop ``query_id``; returns the shard that hosted it."""
        shard = self._shard_of.pop(query_id)
        self._members[shard].pop(query_id, None)
        return shard

    def shard_of(self, query_id: str) -> int:
        """The shard hosting ``query_id``; raises ``KeyError`` if absent."""
        return self._shard_of[query_id]

    def members(self, shard: int) -> List[str]:
        """Query ids on ``shard``, in placement order."""
        return list(self._members[shard])

    def quarantine(self, shard: int) -> List[str]:
        """Mark ``shard`` dead; returns the queries stranded on it.

        Membership is kept so the stranded queries remain enumerable
        (their entries survive coordinator-side with errored status).
        """
        self._state[shard] = QUARANTINED
        return list(self._members[shard])

    def is_quarantined(self, shard: int) -> bool:
        return self._state[shard] == QUARANTINED

    def loads(self) -> Dict[int, int]:
        """Current per-shard query counts (all shards, dead included)."""
        return {shard: len(members)
                for shard, members in self._members.items()}
