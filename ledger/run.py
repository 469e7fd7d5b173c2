"""The ledger's runner.

Two ways in:

* ``python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of
  standard output, one JSON object ``{correct, attempted, failed,
  metrics}`` — the end-to-end metrics with ``--trace 0``, the per-layer
  metrics with ``--trace 1``.  This is what ``BENCHMARK.json`` names.
* ``PYTHONPATH=src python -m ledger.run --seed 0`` (no ``--workload``)
  runs every workload that way, each in a fresh subprocess, untraced and
  traced, prints every metric by name with its unit, checks the outputs
  across workloads and writes one JSON result to ``--out`` (a temporary
  directory unless given: nothing is written inside the repository).

Protocol of one run: closed loop, one client, one driving thread.
Generate the inputs from the seed, run pass 0 (warm-up, not reported),
then repeat {set up, timed region} on the same inputs until ``--seconds``
of timed region have been measured (at least 3 times), then drain and
check the outputs untimed.  Every end-to-end value is the median over the
repeats; latency percentiles are taken over the batches pooled from all
repeats.  The timings are divided by the pass's host factor
(:class:`HostProbe`); the raw values stay in the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

try:
    import repro  # noqa: F401 - fail early, before any result is printed
except ImportError as exc:  # the program under test is not in this tree
    print(f"ledger: cannot import the program under test from "
          f"{ROOT / 'src'}: {exc}", file=sys.stderr)
    raise SystemExit(2)

from repro.obs import MetricsRegistry, host_metadata  # noqa: E402

from ledger import checks  # noqa: E402
from ledger.trace import Tracer  # noqa: E402
from ledger.workloads import (  # noqa: E402
    CONFIGS, WORKLOAD_NAMES, Note, Workload, build_instance,
    oracle_instance,
)

with open(ROOT / "BENCHMARK.json") as _handle:
    SPEC = json.load(_handle)
#: (name, unit) of the metrics, in report order: ``BENCHMARK.json`` is
#: the one list of names; ``layer_metrics`` below must produce them all.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

#: scale -> (size factor, least number of measured passes).  "tiny" is
#: what the smoke test runs: every code path, no meaningful timing.
SCALES = {"full": (1.0, 3), "tiny": (0.02, 1)}

#: Seconds after which a run stops and counts its remaining operations
#: as failed.
WALL_CAP_S = 120.0


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return (sorted_values[low]
            + (sorted_values[high] - sorted_values[low]) * (position - low))


class HostProbe:
    """The host's speed, sampled between the timed operations.

    This VM's speed swings by a factor of two for seconds at a time
    (neighbours on the same machine; CPU time moves with the wall, so it
    is not descheduling), which spread identical runs by 15-30 % between
    their quartiles.  A sample is the time of a fixed pure-Python
    dict/array loop, taken around a pass's set-ups and between its
    operations.  The loop feels the neighbours about twice as much as the
    five workloads do (in logarithms), so a pass's *host factor* is the
    square root of (mean sample / ``REFERENCE_S``).  The runner divides
    the pass's times by that factor, so the end-to-end timings estimate
    what the pass would have taken on a host that runs the loop in
    ``REFERENCE_S``; the un-normalised values stay in the result as
    ``end_to_end_raw``.  ``ledger/README.md`` has the measurements
    behind the exponent.

    Each sample runs the loop twice and times the second round, so that
    what the program left in the caches does not show in it.
    """

    #: Seconds per sample on this host in a quiet phase.
    REFERENCE_S = 0.001
    #: A workload's slow-down is the probe's to this power.
    SENSITIVITY = 0.5
    ROUNDS = 3000
    #: Between timed operations the runner samples at most this often
    #: (a sample takes as long as a small batch).
    EVERY_S = 0.02

    def __init__(self) -> None:
        self.table = {i: i for i in range(1 << 16)}
        self.cells = array("q", [0]) * 4096

    def sample(self) -> float:
        table, cells = self.table, self.cells
        for _ in range(2):
            start = time.perf_counter()
            for i in range(self.ROUNDS):
                key = (i * 2654435761) & 0xFFFF
                table[key] = table.get(key, 0) + i
                cells[key & 4095] += key
        return time.perf_counter() - start


PROBE = HostProbe()


def host_block() -> Dict[str, object]:
    block = dict(host_metadata())
    block["nproc"] = os.cpu_count()
    try:
        block["loadavg"] = list(os.getloadavg())
    except OSError:
        block["loadavg"] = None
    return block


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped
    child (the shard workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
class RepeatResult:
    """What one pass {set up, timed region, drain} measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.probe_s: List[float] = []     # HostProbe samples of the pass
        self.batch_s: List[float] = []
        self.control_s: Dict[str, List[float]] = {}
        self.edges = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest: Dict[str, object] = {}
        self.tightest = None                      # with locate: (span, seq)
        self.notes: Optional[List[Note]] = None   # with keep_notes
        self.batch_notes = 0
        self.counters: Dict[str, float] = {}
        self.layers: Dict[str, Dict[str, float]] = {}

    @property
    def timed_s(self) -> float:
        return sum(self.batch_s) + sum(
            sum(v) for v in self.control_s.values())

    @property
    def host_factor(self) -> float:
        """How much slower than on the reference host this pass ran."""
        return (statistics.mean(self.probe_s)
                / HostProbe.REFERENCE_S) ** HostProbe.SENSITIVITY


def _counters(segment) -> Dict[str, float]:
    """Counters of a segment, read outside the timed calls.  All are
    cumulative (the runner reports after - before) except ``peak``, a
    high-water mark the runner reads after the region only."""
    out: Dict[str, float] = {}
    nodes = pruned = matches = events = dcs_sum = peak = 0
    for engine in segment.engines():
        stats = engine.stats
        nodes += stats.backtrack_nodes
        pruned += stats.candidates_pruned
        matches += stats.matches_emitted
        peak += stats.peak_structure_entries
        events += stats.extra.get("events", 0)
        dcs_sum += stats.extra.get("dcs_edges_sum", 0)
    out.update(nodes=nodes, pruned=pruned, matches=matches,
               engine_events=events, dcs_edges_sum=dcs_sum, peak=peak)
    service = segment.service()
    if service is None:
        return out
    out["routed"] = service.stats.events_routed
    out["skipped"] = service.stats.events_skipped
    out["unshipped"] = getattr(service, "events_unshipped", 0)
    out["snapshot_bytes"] = segment.snapshot_bytes
    registry = service.metrics
    if registry is not None and segment.sharded:
        for key in ("ingest", "route", "exchange", "merge"):
            out[key + "_s"] = registry.histogram(
                f"cluster_{key}_seconds").sum
        for shard in range(service.num_workers):
            label = str(shard)
            out[f"busy_s.{shard}"] = registry.histogram(
                "cluster_worker_busy_seconds", shard=label).sum
            out["tx_bytes"] = out.get("tx_bytes", 0) + registry.counter(
                "cluster_tx_bytes_total", shard=label).value
            out["rx_bytes"] = out.get("rx_bytes", 0) + registry.counter(
                "cluster_rx_bytes_total", shard=label).value
    return out


def run_repeat(workload: Workload, *, deadline: float,
               tracer: Optional[Tracer] = None, locate: bool = False,
               keep_notes: bool = False) -> RepeatResult:
    """One pass over the workload's segments."""
    result = RepeatResult()
    digest = checks.Digest(locate=locate, keep=keep_notes)
    metrics = MetricsRegistry() if tracer is not None else None
    mark = tracer.mark() if tracer is not None else 0
    changed = sum(tracer.result_len.values()) if tracer is not None else 0
    batch_number = 0
    for segment in workload.segments(metrics):
        try:
            gc.collect()
            result.probe_s.append(PROBE.sample())
            probed_at = start = time.perf_counter()
            filled = segment.setup()
            result.setup_s += time.perf_counter() - start
            for returned in filled:
                digest.add(segment.notes(returned))
            before = _counters(segment)
            before["peak"] = 0
            ops = list(segment.ops())
            result.attempted += len(ops)
            if tracer is not None:
                tracer.enabled = True
            for position, op in enumerate(ops):
                if time.perf_counter() > deadline:
                    result.failed += len(ops) - position
                    result.errors.append("wall cap reached")
                    break
                if time.perf_counter() - probed_at > HostProbe.EVERY_S:
                    result.probe_s.append(PROBE.sample())
                    probed_at = time.perf_counter()
                span = (tracer.root("bench." + op.kind, batch_number)
                        if tracer is not None else -1)
                start = time.perf_counter()
                try:
                    returned = op.call()
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    returned = []
                    result.failed += 1
                    result.errors.append(f"{op.kind}: {exc!r}")
                spent = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(span)
                notes = segment.notes(returned)
                if op.kind == "batch":
                    batch_number += 1
                    result.batch_s.append(spent)
                    result.edges += op.edges
                    result.batch_notes += len(notes)
                else:
                    result.control_s.setdefault(op.kind, []).append(spent)
                digest.add(notes)
            result.probe_s.append(PROBE.sample())
            if tracer is not None:
                tracer.enabled = False
            after = _counters(segment)
            for key, value in after.items():
                result.counters[key] = (result.counters.get(key, 0)
                                        + value - before.get(key, 0))
            digest.add(segment.finish())
        finally:
            if tracer is not None:
                tracer.enabled = False
            segment.close()
    result.digest = digest.result()
    result.tightest = digest.tightest
    result.notes = digest.kept
    if tracer is not None:
        result.layers = tracer.summary(mark)
        result.counters["maxmin_changed"] = (
            sum(tracer.result_len.values()) - changed)
    return result


# ----------------------------------------------------------------------
# Per-layer metrics of one traced repeat
# ----------------------------------------------------------------------
def layer_metrics(rep: RepeatResult) -> Dict[str, float]:
    spans = rep.layers
    c = rep.counters

    def self_s(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(*names: str) -> float:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def layer_self(layer: str) -> float:
        return sum(row["self_s"] for name, row in spans.items()
                   if name.startswith(layer + "."))

    def layer_calls(layer: str) -> float:
        return sum(row["calls"] for name, row in spans.items()
                   if name.startswith(layer + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    edges = rep.edges
    busy = [v for k, v in c.items() if k.startswith("busy_s.")]
    busy_max = max(busy, default=0.0)
    exchange = c.get("exchange_s", 0.0)
    control = {k: sum(v) for k, v in rep.control_s.items()}
    out = {
        "graph.busy_s": layer_self("graph"),
        "graph.ops": layer_calls("graph"),
        "graph.inserts_per_edge": ratio(
            calls("graph.insert_edge"), edges),
        "maxmin.busy_s": layer_self("maxmin"),
        "maxmin.calls": layer_calls("maxmin"),
        "maxmin.changed_per_call": ratio(
            c.get("maxmin_changed", 0),
            calls("maxmin.on_graph_change", "maxmin.on_graph_changes")),
        "dcs.busy_s": layer_self("dcs"),
        "dcs.ops": layer_calls("dcs"),
        "dcs.edges_mean": ratio(c.get("dcs_edges_sum", 0),
                                c.get("engine_events", 0)),
        "backtrack.busy_s": layer_self("backtrack"),
        "backtrack.calls": layer_calls("backtrack"),
        "backtrack.nodes": c.get("nodes", 0),
        "backtrack.pruned": c.get("pruned", 0),
        "backtrack.nodes_per_match": ratio(c.get("nodes", 0),
                                           c.get("matches", 0)),
        "tcm.self_s": layer_self("tcm"),
        "tcm.peak_structure_entries": c.get("peak", 0),
        "driver.self_s": layer_self("driver"),
        "interest.busy_s": layer_self("interest"),
        "interest.lookups": layer_calls("interest"),
        "interest.hit_ratio": ratio(
            c.get("routed", 0), c.get("routed", 0) + c.get("skipped", 0)),
        "service.self_s": layer_self("service"),
        "service.notifications": rep.batch_notes,
        "wire.encode_s": self_s("wire.encode_ingest", "wire.encode_routed"),
        "wire.decode_s": self_s("wire.decode_reply"),
        "wire.tx_bytes": c.get("tx_bytes", 0),
        "wire.rx_bytes": c.get("rx_bytes", 0),
        "wire.bytes_per_edge": ratio(
            c.get("tx_bytes", 0) + c.get("rx_bytes", 0), edges),
        "coordinator.route_s": c.get("route_s", 0.0),
        "coordinator.exchange_s": exchange,
        "coordinator.merge_s": c.get("merge_s", 0.0),
        "coordinator.self_s": max(0.0, c.get("ingest_s", 0.0)
                                  - c.get("route_s", 0.0) - exchange
                                  - c.get("merge_s", 0.0)),
        "coordinator.events_unshipped": c.get("unshipped", 0),
        "worker.busy_s_max": busy_max,
        "worker.busy_skew": ratio(busy_max * len(busy), sum(busy)),
        "worker.exchange_wait_s": max(0.0, exchange - busy_max),
        "migration.migrate_s": control.get("migrate", 0.0),
        "migration.count": len(rep.control_s.get("migrate", ())),
        "registry.register_s": control.get("register", 0.0),
        "registry.unregister_s": control.get("unregister", 0.0),
        "checkpoint.snapshot_s": control.get("snapshot", 0.0),
        "checkpoint.bytes": c.get("snapshot_bytes", 0),
    }
    return out


# ----------------------------------------------------------------------
# One run = one workload in this process
# ----------------------------------------------------------------------
def load_expected() -> Dict[str, Dict[str, object]]:
    path = LEDGER_DIR / "expected.json"
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def save_expected(expected: Dict[str, Dict[str, object]]) -> None:
    with open(LEDGER_DIR / "expected.json", "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def expected_key(name: str, scale: str) -> str:
    return f"{name}/{scale}"


def check_outputs(workload: Workload, every: List[RepeatResult], args):
    """The untimed output checks of one run: the problems found, and a
    record of what was compared."""
    inst = workload.inst
    deadline = time.perf_counter() + WALL_CAP_S
    problems: List[str] = []
    for rep in every:
        problems.extend(rep.errors)
    orders = {rep.digest["order"] for rep in every}
    if len(orders) > 1:
        problems.append(f"digest differs between passes: {sorted(orders)}")
    record: Dict[str, object] = {"reference_digest": None, "oracle": None}
    reference = workload.reference()
    if reference is not None:
        digest = run_repeat(reference, deadline=deadline).digest["order"]
        record["reference_digest"] = digest
        if digest not in orders:
            problems.append("merged output differs from the in-process "
                            "reference run")
    if every[0].tightest is None:
        problems.append("no match reported: nothing for the oracle to check")
    else:
        short = Workload(oracle_instance(inst, *every[0].tightest))
        replay = run_repeat(short, deadline=deadline, keep_notes=True)
        mismatches, record["oracle"] = checks.oracle_replay(
            short.inst, replay.notes)
        problems.extend(replay.errors + mismatches)
    found = every[0].digest
    # Every seed is the same instance under other ids: the number of
    # notes holds for all of them, the digest for seed 0.
    expected = load_expected().get(
        expected_key(inst.config.name, args.scale))
    if expected is not None and (
            expected["notes"] != found["notes"]
            or (args.seed == 0 and expected["order"] != found["order"])):
        problems.append(f"digest {found} is not the expected {expected}")
    record["expected_checked"] = expected is not None
    return problems, record


def run_one(args) -> int:
    started = time.perf_counter()
    deadline = started + WALL_CAP_S
    factor, min_repeats = SCALES[args.scale]
    config = CONFIGS[args.workload].scaled(factor)
    inst = build_instance(config, args.seed)
    workload = Workload(inst)
    traced = bool(args.trace)

    repeats: List[RepeatResult] = []
    traced_repeats: List[RepeatResult] = []
    tracer: Optional[Tracer] = None

    # Pass 0 is not reported: it pays for first-touch memory and cold
    # caches (40 % slower than the passes after it here) and produces
    # the outputs the checks below look at.
    warmup = run_repeat(workload, deadline=deadline, locate=True)

    def measure(target: List[RepeatResult], budget: float,
                minimum: int) -> None:
        measured = 0.0
        while ((len(target) < minimum or measured < budget)
               and time.perf_counter() < deadline):
            rep = run_repeat(workload, deadline=deadline,
                             tracer=tracer if target is traced_repeats
                             else None)
            target.append(rep)
            measured += rep.timed_s

    if traced:
        # Untraced repeats first, with nothing wrapped, so the overhead
        # ratio compares against the program as it normally runs.
        measure(repeats, 0.0, max(1, min_repeats - 1))
        tracer = Tracer()
        tracer.install(engine_layers=config.kind in ("single", "service"))
        try:
            measure(traced_repeats, args.seconds / 2.0,
                    max(1, min_repeats - 1))
        finally:
            tracer.uninstall()
    else:
        measure(repeats, args.seconds, min_repeats)
    rss = peak_rss_mib()

    every = [warmup] + repeats + traced_repeats
    problems, checked = check_outputs(workload, every, args)
    if not repeats or (traced and not traced_repeats):
        # The wall cap fell inside pass 0: nothing was measured.
        problems.append("wall cap reached before the first measured pass")
        repeats = repeats or [warmup]
        traced_repeats = traced_repeats or [warmup]

    attempted = sum(rep.attempted for rep in every)
    failed = sum(rep.failed for rep in every)
    correct = not problems
    if not correct:
        failed = attempted

    # ---- metrics -----------------------------------------------------
    def end_to_end_metrics(normalised: bool) -> Dict[str, float]:
        factors = [rep.host_factor if normalised else 1.0
                   for rep in repeats]
        pooled = sorted(1000.0 * s / f for rep, f in zip(repeats, factors)
                        for s in rep.batch_s)
        return {
            "edges_per_s": statistics.median(
                rep.edges * f / rep.timed_s if rep.timed_s else 0.0
                for rep, f in zip(repeats, factors)),
            "batch_ms_p50": percentile(pooled, 0.50),
            "batch_ms_p95": percentile(pooled, 0.95),
            "setup_s": statistics.median(
                rep.setup_s / f for rep, f in zip(repeats, factors)),
            "peak_rss_mb": rss,
        }

    end_to_end = end_to_end_metrics(True)
    calib_s = statistics.median(
        s for rep in repeats + traced_repeats for s in rep.probe_s)
    metrics: Dict[str, Dict[str, object]] = {}
    if traced:
        per_repeat = [layer_metrics(rep) for rep in traced_repeats]
        layer = {name: statistics.median(r[name] for r in per_repeat)
                 for name in per_repeat[0]}
        untraced_s = statistics.median(
            r.timed_s / r.host_factor for r in repeats)
        layer["obs.trace_overhead"] = (
            statistics.median(r.timed_s / r.host_factor
                              for r in traced_repeats)
            / untraced_s if untraced_s else 0.0)
        layer["host.calib_s"] = calib_s
        layer["bench.generate_s"] = inst.generate_s
        layer["bench.calibrate_s"] = inst.calibrate_s
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": end_to_end[name], "unit": unit}

    detail = {
        "workload": config.name, "seed": args.seed, "scale": args.scale,
        "trace": int(traced), "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "repeats": len(repeats), "traced_repeats": len(traced_repeats),
        "batch_samples": sum(len(rep.batch_s) for rep in repeats),
        "timed_edges_per_repeat": repeats[0].edges,
        "timed_s_per_repeat": [rep.timed_s for rep in repeats],
        "setup_s_per_repeat": [rep.setup_s for rep in repeats],
        "host_factor_per_repeat": [rep.host_factor for rep in repeats],
        "end_to_end": end_to_end,
        "end_to_end_raw": end_to_end_metrics(False),
        "digest": every[0].digest,
        **checked,
        "calibration": [vars(c) for c in inst.calibration],
        "host": host_block(), "host_calib_s": calib_s,
        "generate_s": inst.generate_s, "calibrate_s": inst.calibrate_s,
        "wall_s": time.perf_counter() - started,
        "metrics": metrics,
    }
    if traced:
        # Time of the timed batches that no wrapped layer accounts for:
        # the self time of the runner's own spans around them.  (The
        # spans around control operations are the migration, registry
        # and checkpoint layers.)
        detail["traced_wall_s"] = [r.timed_s for r in traced_repeats]
        detail["traced_uncovered_s"] = [
            r.layers.get("bench.batch", {}).get("self_s", 0.0)
            for r in traced_repeats]
        detail["spans"] = len(tracer.name_of) if tracer else 0
        if args.trace_out and tracer:
            tracer.write(args.trace_out,
                         {k: v["value"] for k, v in metrics.items()})
    if args.detail_out:
        with open(args.detail_out, "w") as handle:
            json.dump(detail, handle, indent=1)
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The suite: every workload, fresh subprocess each
# ----------------------------------------------------------------------
def run_suite(args) -> int:
    out_dir = Path(args.out or tempfile.mkdtemp(prefix="ledger-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    cores = os.cpu_count() or 1
    suite = {"schema": "ledger/1", "host": host_block(),
             "args": {"seed": args.seed, "runs": args.runs,
                      "seconds": args.seconds, "scale": args.scale},
             "workloads": {}}
    status = 0

    def child(name: str, seed: int, trace: int) -> Dict[str, object]:
        nonlocal status
        detail_path = out_dir / f"{name}.s{seed}.t{trace}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale,
                   "--detail-out", str(detail_path)]
        if trace and args.trace_out:
            command += ["--trace-out",
                        str(out_dir / f"{name}.s{seed}.trace.json")]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=WALL_CAP_S + 60)
        if done.returncode != 0:
            status = 1
        if not detail_path.exists():
            return {"workload": name, "seed": seed, "correct": False,
                    "problems": [f"exit code {done.returncode}"]}
        with open(detail_path) as handle:
            return json.load(handle)

    if args.write_expected:
        # Forget this scale's entries first, or the runs that are to
        # replace them would fail the comparison with them.
        save_expected({key: value for key, value in load_expected().items()
                       if not key.endswith("/" + args.scale)})

    for name in WORKLOAD_NAMES:
        runs = [child(name, args.seed + k, 0) for k in range(args.runs)]
        traced = child(name, args.seed, 1)
        suite["workloads"][name] = {"runs": runs, "traced": traced}

    # Cross-workload check: the cluster must merge to exactly the stream
    # the in-process service emits on the same inputs.
    by = suite["workloads"]
    for a, b in zip(by["service_16q"]["runs"], by["cluster_2w"]["runs"]):
        if a.get("digest") != b.get("digest"):
            status = 1
            print(f"check failed: cluster_2w digest differs from "
                  f"service_16q at seed {a.get('seed')}", file=sys.stderr)

    if args.write_expected:
        expected = load_expected()
        for name, entry in by.items():
            first = entry["runs"][0]
            if first.get("correct") and first["seed"] == 0:
                expected[expected_key(name, args.scale)] = first["digest"]
        save_expected(expected)

    print_suite(suite, cores)
    result_path = out_dir / "ledger.json"
    with open(result_path, "w") as handle:
        json.dump(suite, handle, indent=1)
    print(f"\nresult: {result_path}")
    return status


def print_suite(suite: Dict[str, object], cores: int) -> None:
    host = suite["host"]
    print(f"host: {host['platform']} python {host['python_version']} "
          f"nproc={host['nproc']} loadavg={host['loadavg']}")
    for name, entry in suite["workloads"].items():
        runs = entry["runs"]
        good = [r for r in runs if "end_to_end" in r]
        print(f"\n== {name}  ({len(runs)} run(s), seeds "
              f"{[r.get('seed') for r in runs]})")
        if not good:
            print("   no result:", runs[0].get("problems"))
            continue
        wall_clock_ok = cores >= 2 or CONFIGS[name].kind in (
            "single", "service")
        first = good[0]
        print(f"   repeats={first['repeats']} "
              f"batch_samples={first['batch_samples']} "
              f"timed_edges/repeat={first['timed_edges_per_repeat']} "
              f"host.calib_s={first['host_calib_s']:.4f} "
              f"run_wall_s={first['wall_s']:.1f}")
        for metric, unit in END_TO_END:
            values = [r["end_to_end"][metric] for r in good]
            note = ""
            if not wall_clock_ok and metric != "peak_rss_mb":
                note = "  unresolved (fewer than 2 cores)"
            raw = statistics.median(
                r["end_to_end_raw"][metric] for r in good)
            if raw != statistics.median(values):
                note = f"  (raw {raw:.4f}){note}"
            print(f"   {metric:<28}{statistics.median(values):>14.4f} "
                  f"{unit}{note}")
        attempted = sum(r["attempted"] for r in runs if "attempted" in r)
        failed = sum(r["failed"] for r in runs if "attempted" in r)
        share = failed / attempted if attempted else 1.0
        print(f"   {'failed_share':<28}{share:>14.4f} ratio "
              f"({failed}/{attempted})")
        print(f"   digest {first['digest']['order'][:16]} "
              f"notes={first['digest']['notes']} "
              f"correct={all(r.get('correct') for r in runs)}")
        traced = entry.get("traced")
        if traced and traced.get("metrics"):
            for metric, unit in PER_LAYER:
                cell = traced["metrics"].get(metric)
                if cell is None:
                    continue
                if (not wall_clock_ok and unit == "s"
                        and not metric.startswith(("host.", "bench."))):
                    continue
                print(f"   {metric:<28}{cell['value']:>14.4f} {unit}")


# ----------------------------------------------------------------------
def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="performance ledger: end-to-end metrics and a "
                    "per-layer budget on one protocol")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this workload in-process and print the "
                             "result line; omit to run the whole suite")
    parser.add_argument("--seed", type=int, default=0,
                        help="which isomorphic copy of the inputs (vertex "
                             "ids, label alphabet, time origin)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed-region seconds to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--detail-out",
                        help="single run: write the full record here")
    parser.add_argument("--trace-out", nargs="?", const="1",
                        help="write every span (single run: to this "
                             "path; suite: next to the result)")
    parser.add_argument("--out", help="suite: result directory "
                                      "(default: a temporary directory)")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: runs per workload, seeds seed..")
    parser.add_argument("--write-expected", action="store_true",
                        help="suite, seed 0: record this run's digests in "
                             "ledger/expected.json")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
