"""Experiment sweeps regenerating every figure and table of Section VI.

Each function mirrors one paper artifact at a configurable laptop
scale:

* :func:`query_size_sweep`   - Figure 7 (elapsed time / #solved vs size)
* :func:`density_sweep`      - Figure 8 (vs temporal-order density)
* :func:`window_sweep`       - Figure 9 (vs window size)
* :func:`memory_sweep`       - Figure 10 (peak memory vs query size)
* :func:`ablation_sweep`     - Figure 11 (SymBi vs TCM-Pruning vs TCM)
* :func:`filtering_power_table` - Table V (DCS edge/vertex ratios)
* :func:`dataset_table`      - Table III (dataset characteristics)

The window is expressed as a fraction of the stream length; the paper's
10k..50k event-tick windows map to fractions of its streams, so the
sweep fractions keep the same relative spread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional, Sequence

from repro.bench.runner import QueryResult, make_engine, run_query
from repro.datasets import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import TemporalGraph
from repro.streaming.events import build_event_list
from repro.workloads import make_query_set


@dataclass
class ExperimentConfig:
    """Scale knobs shared by all sweeps.

    The defaults are sized for a pure-Python run: streams of a few
    thousand edges and a handful of queries per cell.  ``time_limit``
    plays the role of the paper's 1-hour cap.
    """

    datasets: Sequence[str] = ("superuser", "yahoo", "lsbench")
    stream_edges: int = 1500
    queries_per_cell: int = 3
    default_query_size: int = 5
    default_density: float = 0.5
    default_window_fraction: float = 0.3
    time_limit: Optional[float] = 10.0
    seed: int = 0


@dataclass
class CellResult:
    """Aggregated measurements of one (engine, dataset, x-value) cell."""

    engine: str
    dataset: str
    x: float
    avg_elapsed_ms: float
    solved: int
    total: int
    avg_peak_entries: float
    avg_matches: float
    extras: Dict[str, float] = field(default_factory=dict)


def dataset_stream(name: str, stream_edges: int, seed: int):
    """The generated stream of dataset ``name`` plus its full data
    graph (query workloads are random-walked on the latter)."""
    stream = generate_stream(DATASET_SPECS[name], stream_edges, seed=seed)
    graph = TemporalGraph(labels=stream.labels, directed=stream.directed)
    elabels = stream.edge_labels or {}
    for e in stream.edges:
        graph.insert_edge(e, label=elabels.get(e))
    return stream, graph


def _run_cell(engine: str, dataset: str, x: float, queries, stream,
              delta: int, config: ExperimentConfig) -> CellResult:
    results: List[QueryResult] = [
        run_query(engine, qi.query, stream.labels, stream.edges, delta,
                  time_limit=config.time_limit,
                  edge_label_fn=stream.edge_label_fn())
        for qi in queries
    ]
    extras: Dict[str, float] = {}
    for key in ("dcs_edges_sum", "dcs_vertices_sum", "events",
                "partials_sum"):
        vals = [r.extra[key] for r in results if key in r.extra]
        if vals:
            extras[key] = mean(vals)
    return CellResult(
        engine=engine,
        dataset=dataset,
        x=x,
        avg_elapsed_ms=mean(r.elapsed_seconds for r in results) * 1000.0,
        solved=sum(r.solved for r in results),
        total=len(results),
        avg_peak_entries=mean(r.peak_structure_entries for r in results),
        avg_matches=mean(r.matches for r in results),
        extras=extras,
    )


def _sweep(engines: Sequence[str], config: ExperimentConfig,
           x_values: Sequence[float], cell_queries, cell_delta
           ) -> List[CellResult]:
    """Common sweep scaffold: for each dataset and x-value, run every
    engine on the same query set."""
    cells: List[CellResult] = []
    for dataset in config.datasets:
        stream, graph = dataset_stream(dataset, config.stream_edges,
                                       config.seed)
        for x in x_values:
            queries = cell_queries(graph, x, config)
            if not queries:
                continue
            delta = cell_delta(x, config)
            for engine in engines:
                cells.append(_run_cell(engine, dataset, x, queries,
                                       stream, delta, config))
    return cells


# ----------------------------------------------------------------------
# Figure 7: varying the query size
# ----------------------------------------------------------------------
def query_size_sweep(engines: Sequence[str],
                     config: Optional[ExperimentConfig] = None,
                     sizes: Sequence[int] = (3, 4, 5, 6)
                     ) -> List[CellResult]:
    """Figure 7: elapsed time and #solved vs query size (density 0.5,
    default window)."""
    config = config or ExperimentConfig()

    def queries(graph, x, cfg):
        return make_query_set(graph, size=int(x),
                              count=cfg.queries_per_cell,
                              density=cfg.default_density, seed=cfg.seed)

    def delta(x, cfg):
        return max(2, int(cfg.stream_edges * cfg.default_window_fraction))

    return _sweep(engines, config, sizes, queries, delta)


# ----------------------------------------------------------------------
# Figure 8: varying the temporal-order density
# ----------------------------------------------------------------------
def density_sweep(engines: Sequence[str],
                  config: Optional[ExperimentConfig] = None,
                  densities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)
                  ) -> List[CellResult]:
    """Figure 8: elapsed time and #solved vs density (default size and
    window)."""
    config = config or ExperimentConfig()

    def queries(graph, x, cfg):
        return make_query_set(graph, size=cfg.default_query_size,
                              count=cfg.queries_per_cell, density=x,
                              seed=cfg.seed)

    def delta(x, cfg):
        return max(2, int(cfg.stream_edges * cfg.default_window_fraction))

    return _sweep(engines, config, densities, queries, delta)


# ----------------------------------------------------------------------
# Figure 9: varying the window size
# ----------------------------------------------------------------------
def window_sweep(engines: Sequence[str],
                 config: Optional[ExperimentConfig] = None,
                 fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5)
                 ) -> List[CellResult]:
    """Figure 9: elapsed time and #solved vs window size (expressed as a
    fraction of the stream; the paper's 10k..50k ticks)."""
    config = config or ExperimentConfig()

    def queries(graph, x, cfg):
        return make_query_set(graph, size=cfg.default_query_size,
                              count=cfg.queries_per_cell,
                              density=cfg.default_density, seed=cfg.seed)

    def delta(x, cfg):
        return max(2, int(cfg.stream_edges * x))

    return _sweep(engines, config, fractions, queries, delta)


# ----------------------------------------------------------------------
# Figure 10: peak memory vs query size (TCM vs Timing)
# ----------------------------------------------------------------------
def memory_sweep(engines: Sequence[str] = ("tcm", "timing"),
                 config: Optional[ExperimentConfig] = None,
                 sizes: Sequence[int] = (3, 4, 5, 6)) -> List[CellResult]:
    """Figure 10: average peak structure entries vs query size.

    The paper reports `ps` peak memory; structure entries are the
    platform-independent proxy (README.md, "Synthetic datasets"): TCM counts
    max-min + DCS entries, Timing counts materialized partial-match
    entries.
    """
    return query_size_sweep(engines, config, sizes)


# ----------------------------------------------------------------------
# Figure 11: ablation (SymBi vs TCM-Pruning vs TCM)
# ----------------------------------------------------------------------
def ablation_sweep(config: Optional[ExperimentConfig] = None,
                   sizes: Sequence[int] = (3, 4, 5, 6)) -> List[CellResult]:
    """Figure 11: the effectiveness of each technique."""
    return query_size_sweep(("symbi", "tcm-pruning", "tcm"), config, sizes)


# ----------------------------------------------------------------------
# Table V: filtering power of the TC-matchable edge
# ----------------------------------------------------------------------
def filtering_power_table(config: Optional[ExperimentConfig] = None,
                          sizes: Sequence[int] = (3, 4, 5, 6)
                          ) -> List[Dict[str, float]]:
    """Table V: per dataset and query size, the ratio of (a) DCS edges
    and (b) DCS vertices remaining after filtering, with vs without the
    TC-matchable edge (TCM vs SymBi, Figure 7's cells).  The two engines
    take each event in turn, so a run the time limit cuts leaves both
    sums over the same prefix of the stream."""
    config = config or ExperimentConfig()
    delta = max(2, int(config.stream_edges * config.default_window_fraction))
    rows: List[Dict[str, float]] = []
    for dataset in config.datasets:
        stream, graph = dataset_stream(dataset, config.stream_edges,
                                       config.seed)
        events = build_event_list(stream.edges, delta)
        for size in sizes:
            queries = make_query_set(graph, size=size,
                                     count=config.queries_per_cell,
                                     density=config.default_density,
                                     seed=config.seed)
            if not queries:
                continue
            runs = [_filter_sums(qi.query, stream, events, config.time_limit)
                    for qi in queries]
            row: Dict[str, float] = {"dataset": dataset, "size": size}
            for key, name in (("dcs_edges_sum", "edge_ratio"),
                              ("dcs_vertices_sum", "vertex_ratio")):
                with_tc = mean(tcm[key] for tcm, _ in runs)
                without = mean(symbi[key] for _, symbi in runs)
                row[name] = with_tc / without if without else float("nan")
            rows.append(row)
    return rows


def _filter_sums(query, stream, events, time_limit: Optional[float]):
    """TCM's and SymBi's ``stats.extra`` after the events both processed
    one at a time, in lockstep, until ``time_limit`` seconds passed."""
    engines = [make_engine(name, query, stream.labels,
                           stream.edge_label_fn())
               for name in ("tcm", "symbi")]
    start = time.perf_counter()
    for event in events:
        if time_limit is not None and time.perf_counter() - start > time_limit:
            break
        for engine in engines:
            if event.is_arrival:
                engine.on_edge_insert(event.edge)
            else:
                engine.on_edge_expire(event.edge)
    return [engine.stats.extra for engine in engines]


# ----------------------------------------------------------------------
# Table III: dataset characteristics
# ----------------------------------------------------------------------
def dataset_table(stream_edges: int = 2000,
                  seed: int = 0) -> List[Dict[str, float]]:
    """Table III: measured characteristics of the generated stand-ins."""
    rows = []
    for name in DATASET_SPECS:
        stream, graph = dataset_stream(name, stream_edges, seed)
        pairs = sum(graph.neighbor_count(v) for v in graph.vertices()) / 2
        num_elabels = (len(set(stream.edge_labels.values()))
                       if stream.edge_labels else 0)
        rows.append({
            "dataset": name,
            "num_vertices": graph.num_vertices(),
            "num_edges": graph.num_edges(),
            "num_labels": len(set(stream.labels.values())),
            "num_edge_labels": num_elabels,
            "avg_degree": 2 * graph.num_edges() / graph.num_vertices(),
            "avg_multiplicity": graph.num_edges() / pairs if pairs else 0.0,
        })
    return rows
