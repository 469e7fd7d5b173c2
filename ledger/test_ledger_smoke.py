"""Smoke test of the ledger: a ``--scale tiny`` run of all five workloads,
untraced and traced, through the same command a full run uses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from ledger import compare

ROOT = Path(__file__).resolve().parent.parent
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree():
    """Every file under the repository with its size and mtime."""
    out = {}
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for name in files:
            path = Path(folder) / name
            stat = path.stat()
            out[str(path.relative_to(ROOT))] = (stat.st_size,
                                                stat.st_mtime_ns)
    return out


def test_tiny_suite_reports_every_metric_and_writes_outside_the_repo(
        tmp_path):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    before = _tree()
    done = subprocess.run(
        [sys.executable, str(ROOT / "ledger" / "run.py"),
         "--scale", "tiny", "--seconds", "0",
         "--seed", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert _tree() == before, "the run wrote inside the repository"

    with open(tmp_path / "ledger.json") as handle:
        result = json.load(handle)
    assert result["host"]["nproc"] >= 1
    workloads = result["workloads"]
    assert list(workloads) == [w["name"] for w in spec["workloads"]]
    for name, entry in workloads.items():
        run = entry["runs"][0]
        assert run["correct"], (name, run["problems"])
        assert run["failed"] == 0 and run["failed_share"] == 0.0
        assert run["expected_checked"], name
        assert run["oracle"]["occurred"] and run["oracle"]["expired"], name
        assert run["host_calib_s"] > 0
        for metric in spec["end_to_end"]:
            cell = run["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert cell["value"] > 0, (name, metric["name"])
            assert metric["name"] in done.stdout
        traced = entry["traced"]
        assert traced["correct"], (name, traced["problems"])
        assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
                == [(k, v["unit"]) for k, v in traced["metrics"].items()])
        # The wrapped layers account for the timed batches: what is left
        # to the runner's own span around them is under 5 % of the wall.
        for wall, uncovered in zip(traced["traced_wall_s"],
                                   traced["traced_uncovered_s"]):
            assert 0 <= uncovered <= 0.05 * wall, name
        assert traced["digest"]["order"] == run["digest"]["order"]

    # One stream, one query set: the cluster merges to the service's
    # output; the churn run to its in-process script.
    orders = {name: entry["runs"][0]["digest"]["order"]
              for name, entry in workloads.items()}
    assert orders["cluster_2w"] == orders["service_16q"]
    churn = workloads["cluster_churn"]["runs"][0]
    assert churn["reference_digest"] == churn["digest"]["order"]

    # Each layer shows up where it runs and nowhere else.
    layer = {name: {k: v["value"]
                    for k, v in entry["traced"]["metrics"].items()}
             for name, entry in workloads.items()}
    for name in ("single_sparse", "single_dense", "service_16q"):
        assert layer[name]["wire.tx_bytes"] == 0
        assert layer[name]["coordinator.exchange_s"] == 0
    assert layer["single_sparse"]["graph.inserts_per_edge"] == 1
    assert layer["service_16q"]["graph.inserts_per_edge"] > 1
    assert layer["cluster_2w"]["wire.rx_bytes"] > 0
    assert layer["cluster_churn"]["migration.count"] > 0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.1)[0] == "ok"
    slower = [v * 0.8 for v in steady]
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "worse"
    assert compare.verdict(steady, slower, "lower", 0.1)[0] == "ok"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, "higher", 0.1)[0] == "unresolved"
