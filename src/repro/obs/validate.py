"""Schema validation for metrics artifacts (used by the CI smoke gate).

``python -m repro.obs.validate metrics.json [metrics.prom]
[--require NAME ...]`` checks that

* ``metrics.json`` has the ``{"host": {...}, "metrics": {...}}`` shape
  the CLI writes, with every metric passing :func:`validate_snapshot`
  (kind/series structure, monotone cumulative buckets, consistent
  histogram summaries);
* the optional ``.prom`` exposition parses cleanly and its sample set
  is consistent with the snapshot (every snapshot metric appears);
* every ``--require`` name is present — CI pins the pipeline stages
  (service/cluster/engine) that must be covered.

Exit status 0 on success, 1 with one problem per line on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

_VALID_KINDS = ("counter", "gauge", "histogram")
_SUMMARY_FIELDS = ("count", "sum", "avg", "p50", "p95", "p99")


def validate_snapshot(snapshot: object) -> List[str]:
    """Structural problems of a registry snapshot (empty = valid)."""
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return [f"snapshot must be a dict, got {type(snapshot).__name__}"]
    for name, metric in snapshot.items():
        prefix = f"metric {name!r}"
        if not isinstance(metric, dict):
            problems.append(f"{prefix}: not a dict")
            continue
        kind = metric.get("kind")
        if kind not in _VALID_KINDS:
            problems.append(f"{prefix}: invalid kind {kind!r}")
            continue
        series_list = metric.get("series")
        if not isinstance(series_list, list) or not series_list:
            problems.append(f"{prefix}: missing series")
            continue
        for index, series in enumerate(series_list):
            where = f"{prefix} series[{index}]"
            if not isinstance(series.get("labels"), dict):
                problems.append(f"{where}: missing labels dict")
                continue
            if kind == "histogram":
                problems.extend(_check_histogram(where, series))
            elif not isinstance(series.get("value"), (int, float)):
                problems.append(f"{where}: missing numeric value")
    return problems


def _check_histogram(where: str, series: Dict[str, object]) -> List[str]:
    problems = []
    for field in _SUMMARY_FIELDS:
        if not isinstance(series.get(field), (int, float)):
            problems.append(f"{where}: missing summary field {field!r}")
    buckets = series.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        return problems + [f"{where}: missing buckets"]
    previous = -1
    for pair in buckets:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not isinstance(pair[1], int)):
            return problems + [f"{where}: malformed bucket {pair!r}"]
        if pair[1] < previous:
            problems.append(f"{where}: cumulative buckets not monotone")
        previous = pair[1]
    if buckets[-1][0] != "+Inf":
        problems.append(f"{where}: last bucket bound must be +Inf")
    elif isinstance(series.get("count"), int) \
            and buckets[-1][1] != series["count"]:
        problems.append(f"{where}: +Inf bucket != count")
    return problems


def validate_metrics_file(path: str,
                          require: Sequence[str] = ()) -> List[str]:
    """Problems of one ``metrics.json`` artifact (empty = valid)."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    if not isinstance(document, dict):
        return [f"{path}: top level must be a dict"]
    problems = []
    host = document.get("host")
    if not isinstance(host, dict) or "python_version" not in host:
        problems.append(f"{path}: missing host metadata")
    snapshot = document.get("metrics")
    if snapshot is None:
        return problems + [f"{path}: missing 'metrics' snapshot"]
    problems.extend(f"{path}: {p}" for p in validate_snapshot(snapshot))
    for name in require:
        if name not in snapshot:
            problems.append(f"{path}: required metric {name!r} absent")
    return problems


def validate_promtext_file(path: str,
                           snapshot: Optional[Dict] = None) -> List[str]:
    """Problems of one ``.prom`` exposition (empty = valid)."""
    from repro.obs.promtext import parse_prometheus
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    try:
        samples, types = parse_prometheus(text)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    problems = []
    if not samples:
        problems.append(f"{path}: no samples")
    if snapshot:
        for name in snapshot:
            if name not in types:
                problems.append(
                    f"{path}: metric {name!r} from the snapshot is "
                    f"missing a TYPE line")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate metrics.json / metrics.prom artifacts.")
    parser.add_argument("metrics_json", help="path to metrics.json")
    parser.add_argument("promtext", nargs="?", default=None,
                        help="optional path to the .prom exposition")
    parser.add_argument("--require", nargs="+", default=(),
                        metavar="NAME",
                        help="metric names that must be present")
    args = parser.parse_args(argv)
    problems = validate_metrics_file(args.metrics_json, args.require)
    if args.promtext is not None:
        snapshot = None
        try:
            with open(args.metrics_json) as handle:
                snapshot = json.load(handle).get("metrics")
        except (OSError, ValueError):
            pass  # already reported above
        problems.extend(validate_promtext_file(args.promtext, snapshot))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    with open(args.metrics_json) as handle:
        snapshot = json.load(handle)["metrics"]
    series = sum(len(m["series"]) for m in snapshot.values())
    print(f"{args.metrics_json} OK ({len(snapshot)} metrics, "
          f"{series} series)")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
