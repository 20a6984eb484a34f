"""``BENCH_sweep.json`` — the machine-readable performance trajectory.

CI's ``perf-trajectory`` job runs the pinned smoke sweep on every push and
publishes one JSON document per commit: logical error rate ± SE per point
(zero-failure points as rule-of-three upper bounds), decode throughput in
shots/sec, and latency-histogram summaries.  Consecutive artifacts form the
repo's performance trajectory — a regression on a hot path shows up as a
drop in ``shots_per_second`` (or a shift in ``latency.p99_us``) between two
commits at identical, seed-pinned work.

:func:`validate_bench` is the schema gate; the CLI's ``sweep export-bench``
validates before writing and CI fails on any violation.
"""

from __future__ import annotations

from pathlib import Path

from ..evaluation.benchdoc import (
    FRACTION,
    LATENCY,
    NON_NEGATIVE,
    array,
    at_most,
    boolean,
    keys,
    latency_entry,
    mapping,
    nullable,
    number,
    obj,
    present,
    require,
    stamp,
    stamp_fields,
    string,
    validate,
    write_document,
)
from ..evaluation.scaling import fit_logical_error_scaling
from .fits import scaling_points
from .runner import SweepRunResult
from .store import PointResult

#: Version of the BENCH document layout; bump on breaking changes.
#: v2: points gained a required ``streaming`` flag (stream reaction-latency
#: points live next to batch decode-latency points).
#: v3: points gained a required ``lut`` block (null for base decoders):
#: table hit/miss/zero-defect counts, the hit rate, and the measured
#: speedup of ``lut+X`` over the matching ``X`` point of the same sweep
#: (null when the sweep ran no matching fallback point).
BENCH_SCHEMA_VERSION = 3


class BenchSchemaError(ValueError):
    """Raised when a BENCH document violates the published schema."""


def _fallback_throughputs(results: list[PointResult]) -> dict[tuple, float]:
    """Index base-decoder points by their (cell, decoder) for speedup pairing."""
    index: dict[tuple, float] = {}
    for result in results:
        point = result.point
        if point.decoder.startswith("lut+"):
            continue
        cell = (
            point.distance,
            point.noise,
            point.physical_error_rate,
            point.streaming,
            point.decoder,
        )
        index[cell] = result.shots_per_second
    return index


def _lut_entry(result: PointResult, fallback_sps: dict[tuple, float]) -> dict | None:
    """The per-point ``lut`` block: hit stats + measured speedup-vs-fallback.

    ``speedup_vs_fallback`` compares the lut point's shots/sec against the
    same sweep's matching base-decoder point (same distance, noise, error
    rate, streaming flag) — null when the sweep ran no such point or either
    throughput is unusable.  The two points decode different seed-derived
    syndromes (the decoder name joins the seed derivation), which is exactly
    right for a throughput ratio: same workload distribution, not same shots.
    """
    if result.lut is None:
        return None
    point = result.point
    cell = (
        point.distance,
        point.noise,
        point.physical_error_rate,
        point.streaming,
        point.decoder[len("lut+"):],
    )
    base_sps = fallback_sps.get(cell, 0.0)
    speedup = None
    if base_sps > 0.0 and result.shots_per_second > 0.0:
        speedup = result.shots_per_second / base_sps
    return {
        **result.lut.to_dict(),
        "hit_rate": result.lut.hit_rate,
        "speedup_vs_fallback": speedup,
    }


def _point_entry(result: PointResult, fallback_sps: dict[tuple, float]) -> dict:
    point = result.point
    latency = None
    if result.latency is not None:
        summary = result.latency
        latency = latency_entry(
            summary.count,
            summary.mean_seconds,
            summary.p50_seconds,
            summary.p99_seconds,
            summary.min_seconds,
            summary.max_seconds,
        )
    return {
        "distance": point.distance,
        "noise": point.noise,
        "physical_error_rate": point.physical_error_rate,
        "decoder": point.decoder,
        # Streaming points report reaction-latency percentiles (time left
        # after the final measurement round) instead of decode latency.
        "streaming": point.streaming,
        "seed": point.seed,
        "shots": result.shots,
        "errors": result.errors,
        "logical_error_rate": result.rate,
        "standard_error": result.standard_error,
        "error_rate_upper_bound": result.upper_bound,
        "zero_failures": result.zero_failures,
        "stopped_early": result.stopped_early,
        "shots_per_second": result.shots_per_second,
        "elapsed_seconds": result.elapsed_seconds,
        "latency": latency,
        "lut": _lut_entry(result, fallback_sps),
    }


def bench_document(
    run: SweepRunResult,
    *,
    commit: str | None = None,
    timestamp: str | None = None,
) -> dict:
    """Build the BENCH document for one sweep run (validated by the caller)."""
    spec = run.spec
    fallback_sps = _fallback_throughputs(run.results)
    fits: dict[str, dict | None] = {}
    for noise in spec.noise_models:
        for decoder in spec.decoders:
            slice_key = f"{noise}/{decoder}"
            usable = scaling_points(run.results, noise=noise, decoder=decoder)
            try:
                scaling = fit_logical_error_scaling(usable)
                fits[slice_key] = {
                    "amplitude": scaling.amplitude,
                    "threshold": scaling.threshold,
                    "points_used": len(usable),
                }
            except ValueError:
                fits[slice_key] = None
    return {
        **stamp(BENCH_SCHEMA_VERSION, commit, timestamp),
        "spec": {"hash": run.spec_hash, **spec.to_dict()},
        "points": [_point_entry(result, fallback_sps) for result in run.results],
        "fits": fits,
    }


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------
def _zero_failures(point: dict, path: str) -> None:
    require(
        point["zero_failures"] == (point["errors"] == 0),
        f"{path}.zero_failures inconsistent with errors",
    )
    require(
        not point["zero_failures"] or point["error_rate_upper_bound"] > 0,
        f"{path}: zero-failure point must carry a positive upper bound",
    )


def _lut_placement(point: dict, path: str) -> None:
    """A ``lut`` block appears on every batch ``lut+`` point and on no base point."""
    is_lut = point["decoder"].startswith("lut+")
    if point["lut"] is not None:
        require(is_lut, f"{path}: lut block on a non-lut decoder")
    elif is_lut:
        require(point["streaming"], f"{path}: batch lut+ point must carry a lut block")


_LUT = obj(
    {
        **keys("hits misses zero_defect_hits", NON_NEGATIVE),
        "hit_rate": FRACTION,
        "speedup_vs_fallback": nullable(NON_NEGATIVE),
    }
)
_POINT = obj(
    {
        "distance": number(low=3),
        **keys("noise decoder", string),
        **keys("streaming zero_failures stopped_early", boolean),
        **keys("physical_error_rate logical_error_rate error_rate_upper_bound", FRACTION),
        "shots": number(low=1),
        **keys("seed errors standard_error shots_per_second elapsed_seconds", NON_NEGATIVE),
        "latency": nullable(LATENCY),
        "lut": nullable(_LUT),
    },
    at_most("errors", "shots"),
    _zero_failures,
    _lut_placement,
)
_FIT = obj({"amplitude": NON_NEGATIVE, "threshold": FRACTION, "points_used": number(low=2)})
_SCHEMA = obj(
    {
        **stamp_fields(BENCH_SCHEMA_VERSION),
        "spec": obj(keys("hash name distances physical_error_rates decoders shots", present)),
        "points": array(_POINT),
        "fits": mapping(nullable(_FIT)),
    }
)


def validate_bench(document: dict) -> None:
    """Validate a BENCH document; raises :class:`BenchSchemaError` on violation.

    >>> validate_bench({"schema_version": 3})
    Traceback (most recent call last):
        ...
    repro.sweeps.bench.BenchSchemaError: missing top-level key 'commit'
    """
    validate(document, _SCHEMA, BenchSchemaError)


def write_bench(document: dict, path: str | Path) -> Path:
    """Validate and write the BENCH document (atomic via temp + rename)."""
    return write_document(document, path, validate_bench)
