#!/usr/bin/env python3
"""Benchmark of the Micro Blossom reproduction: one workload per call.

Run from the repository root::

    python3 perfbench/run.py --workload mc-sparse --seed 1 --seconds 36 --trace 0

``perfbench/run_all.py`` runs every workload in both modes.

Workloads (see ``perfbench/README.md`` for why each exists):

* ``mc-sparse`` — Monte-Carlo decoding, d=9, circuit-level p=0.001;
* ``mc-dense``  — Monte-Carlo decoding, d=7, circuit-level p=0.005;
* ``net-serve`` — the TCP decode service, bulk and open-loop phases.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a separate, traced pass yields the per-layer metrics.  Earlier
lines are a human-readable report.  Spans and the full result are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("mc-sparse", "mc-dense", "net-serve")

#: Per-layer metric prefixes of layers a workload never runs in this process;
#: they read 0 there.  Any other missing metric is an error.
NOT_EXERCISED = {
    "mc-sparse": ("net.", "service.", "load."),
    "mc-dense": ("net.", "service.", "load."),
    "net-serve": ("core.", "graphs.", "api."),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in declared}


def complete(workload: str, metrics: dict, declared: dict[str, str]) -> dict:
    """``metrics`` in declared order; unexercised layers filled with 0."""
    extra = set(metrics) - set(declared)
    if extra:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    result = {}
    for name, unit in declared.items():
        if name in metrics:
            value, emitted_unit = metrics[name]
            if emitted_unit != unit:
                raise RuntimeError(f"{name}: unit {emitted_unit!r}, declared {unit!r}")
            result[name] = (value, unit)
        elif name.startswith(NOT_EXERCISED[workload]):
            result[name] = (0, unit)
        else:
            raise RuntimeError(f"{workload} did not measure {name}")
    return result


def say(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    OUT.mkdir(exist_ok=True)

    if args.workload == "net-serve":
        import net as workload_module
    else:
        import mc as workload_module

    result = workload_module.run(args.workload, args.seed, args.seconds, bool(args.trace), say)
    metrics = dict(result["per_layer"] if args.trace else result["end_to_end"])
    if args.trace:
        metrics["failed_ratio"] = (result["failed_ratio"], "ratio")
    metrics = complete(args.workload, metrics, declared_metrics(bool(args.trace)))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result["tracer"] is not None:
        result["tracer"].dump(OUT / f"{stem}-spans.jsonl")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "metrics": {name: value for name, (value, _unit) in metrics.items()},
                "details": result["details"],
            },
            handle,
            indent=1,
            sort_keys=True,
            default=str,
        )

    for name, (value, unit) in metrics.items():
        say(f"  {name:<34} {value:>16.6g} {unit}")
    say(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
