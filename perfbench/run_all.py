#!/usr/bin/env python3
"""Run every workload in both modes and check each result.

Run from the repository root::

    python3 perfbench/run_all.py                 # smoke test: 1 s per run
    python3 perfbench/run_all.py --seconds 30    # full size

Each run must exit 0 and end with the result object carrying every metric
BENCHMARK.json declares for its mode, each with its declared unit and a
finite numeric value (positive for end-to-end metrics), and ``correct``
true.  The metrics are printed by name with their units.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def check(workload: str, trace: int, seed: int, seconds: float, declared: dict) -> None:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        raise AssertionError(f"{label}: exit {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and result["failed"] >= 0, label
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted], label
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], (label, entry["name"])
        assert isinstance(metric["value"], (int, float)), (label, entry["name"])
        assert math.isfinite(metric["value"]), (label, entry["name"])
        if not trace:
            assert metric["value"] > 0, (label, entry["name"])
    print(
        f"ok  {label}: attempted={result['attempted']} failed={result['failed']}",
        flush=True,
    )
    for name, metric in result["metrics"].items():
        print(f"      {name:<34} {metric['value']:>16.6g} {metric['unit']}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    for workload in (entry["name"] for entry in declared["workloads"]):
        for trace in (0, 1):
            check(workload, trace, args.seed, args.seconds, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
