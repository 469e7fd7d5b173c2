"""repro - reproduction of "Time-Constrained Continuous Subgraph Matching
Using Temporal Information for Filtering and Backtracking" (ICDE 2024).

Public API
----------
The typical workflow:

>>> from repro import TemporalQuery, TCMEngine, StreamDriver, Edge
>>> query = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
>>> labels = {0: "A", 1: "B"}
>>> engine = TCMEngine(query, labels)
>>> driver = StreamDriver(engine)
>>> result = driver.run_edges([Edge.make(0, 1, 5)], delta=10)
>>> result.num_occurred
1
"""

from repro.graph import Edge, TemporalGraph
from repro.query import PartialOrder, PartialOrderError, TemporalQuery
from repro.streaming import (
    Event, EventKind, Match, MatchBlock, MatchEngine, StreamDriver,
    StreamResult,
    build_event_list,
)
from repro.core import QueryDag, TCMEngine, build_best_dag, build_dag
from repro.oracle import OracleEngine, enumerate_embeddings
from repro.service import (
    MatchNotification, MatchService, Notifications, QueryRegistry,
    load_checkpoint, save_checkpoint,
)
from repro.cluster import ShardedMatchService

__version__ = "1.0.0"

__all__ = [
    "Edge", "TemporalGraph",
    "PartialOrder", "PartialOrderError", "TemporalQuery",
    "Event", "EventKind", "Match", "MatchBlock", "MatchEngine",
    "StreamDriver", "StreamResult", "build_event_list",
    "QueryDag", "TCMEngine", "build_best_dag", "build_dag",
    "OracleEngine", "enumerate_embeddings",
    "MatchNotification", "MatchService", "Notifications", "QueryRegistry",
    "ShardedMatchService",
    "load_checkpoint", "save_checkpoint",
    "__version__",
]
