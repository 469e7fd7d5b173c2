"""Compare two ledger results: ``python3 ledger/compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate; both are ``ledger.json`` files
written by ``ledger/run.py`` (a set of runs per workload, one per seed).
One row per workload x end-to-end metric: each side's median and
quartiles over its runs, the ratio of the medians with its base, the
metric's bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the distance between a side's own quartiles, as a
  share of its median, is wider than the bound: the runs cannot tell;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Exit code 1 when any row is ``worse``, 0 otherwise.  Two sets of runs of
one commit "agree" when every row is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(result: Dict[str, object], workload: str,
                  metric: str) -> List[float]:
    runs = result["workloads"].get(workload, {}).get("runs", [])
    return [run["end_to_end"][metric] for run in runs
            if "end_to_end" in run]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, ratio of medians B/A)``."""
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    ratio = b2 / a2 if a2 else float("inf")
    if (a3 - a1) / a2 > bound or (b3 - b1) / b2 > bound:
        return "unresolved", ratio
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    return ("worse" if worse_by > bound else "ok"), ratio


def compare(base: Dict[str, object], cand: Dict[str, object],
            spec: Dict[str, object]) -> Tuple[List[str], bool]:
    lines = [f"{'workload':<15}{'metric':<14}{'A median [q1, q3]':>34}"
             f"{'B median [q1, q3]':>34}{'B/A':>8}{'bound':>7}  verdict"]
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = metric_values(base, workload, name)
            b = metric_values(cand, workload, name)
            if not a or not b:
                lines.append(f"{workload:<15}{name:<14}  missing on "
                             f"{'A' if not a else 'B'}")
                continue
            word, ratio = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= word == "worse"
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            lines.append(
                f"{workload:<15}{name:<14}"
                f"{a2:>12.4f} [{a1:>9.4f},{a3:>9.4f}]"
                f"{b2:>12.4f} [{b1:>9.4f},{b3:>9.4f}]"
                f"{ratio:>7.3f}x{metric['bound']:>7.2f}  {word}"
                f"  ({ratio:.3f} of {a2:.4f} {metric['unit']},"
                f" n={len(a)}/{len(b)})")
    return lines, any_worse


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        cand = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    lines, any_worse = compare(base, cand, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
