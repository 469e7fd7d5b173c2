"""Single-query runner and the engine registry used by the benchmarks.

The paper measures, per (algorithm, dataset, query, window): the elapsed
continuous-matching time with a hard time limit (queries hitting the
limit count as *unsolved* and are charged the full limit), and the peak
memory.  ``run_query`` reproduces that protocol on one engine; the
experiment sweeps in :mod:`repro.bench.experiments` aggregate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines import RapidFlowEngine, SymBiEngine, TimingEngine
from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery
from repro.streaming import StreamDriver
from repro.streaming.engine import MatchEngine

#: Engine registry: name -> factory(query, labels).  The two TCM
#: variants implement the paper's ablation (Section VI-B).
ENGINE_FACTORIES: Dict[str, Callable[..., MatchEngine]] = {
    "tcm": lambda q, lb, elf=None: TCMEngine(q, lb, edge_label_fn=elf),
    "tcm-pruning": lambda q, lb, elf=None: TCMEngine(
        q, lb, use_pruning=False, edge_label_fn=elf),
    "symbi": lambda q, lb, elf=None: SymBiEngine(q, lb, edge_label_fn=elf),
    "rapidflow": lambda q, lb, elf=None: RapidFlowEngine(
        q, lb, edge_label_fn=elf),
    "timing": lambda q, lb, elf=None: TimingEngine(q, lb, edge_label_fn=elf),
}


def engine_names() -> List[str]:
    """All registered engine names (paper order)."""
    return ["tcm", "tcm-pruning", "symbi", "rapidflow", "timing"]


def make_engine(name: str, query: TemporalQuery,
                labels: Dict[int, object],
                edge_label_fn=None) -> MatchEngine:
    """Instantiate a registered engine by name."""
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; "
                         f"known: {sorted(ENGINE_FACTORIES)}") from None
    return factory(query, labels, edge_label_fn)


@dataclass
class QueryResult:
    """Outcome of one engine over one full query stream."""

    engine: str
    elapsed_seconds: float
    solved: bool
    matches: int
    peak_structure_entries: int
    backtrack_nodes: int
    extra: Dict[str, float]


def run_query(engine_name: str, query: TemporalQuery,
              labels: Dict[int, object], edges: List[Edge], delta: int,
              time_limit: Optional[float] = None,
              edge_label_fn=None) -> QueryResult:
    """Drive one engine over one stream, with the paper's time-limit
    convention: an unsolved query is charged the full limit."""
    engine = make_engine(engine_name, query, labels, edge_label_fn)
    driver = StreamDriver(engine, time_limit=time_limit)
    result = driver.run_edges(edges, delta)
    elapsed = result.elapsed_seconds
    if result.timed_out and time_limit is not None:
        elapsed = time_limit
    return QueryResult(
        engine=engine_name,
        elapsed_seconds=elapsed,
        solved=not result.timed_out,
        matches=result.num_occurred + result.num_expired,
        peak_structure_entries=engine.stats.peak_structure_entries,
        backtrack_nodes=engine.stats.backtrack_nodes,
        extra=dict(engine.stats.extra),
    )
