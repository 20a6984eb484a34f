"""``BENCH_service.json`` — the service-layer performance trajectory.

CI's ``perf-trajectory`` job replays the pinned smoke trace
(:data:`repro.service.SMOKE_TRACE`) through the decode service on every push
and publishes one JSON document per commit: request throughput, queue-delay
and end-to-end latency percentiles, the realised micro-batch size histogram,
session-cache and outcome-cache effectiveness (:mod:`repro.lut`), the
fault/overload ledger and the bit-identity verdict against direct decodes.
Optional blocks (``null`` when not run) carry the outcome cache off/on
comparison, the hostile trace families of
:data:`repro.service.HOSTILE_SMOKE_TRACES` replayed under
:data:`repro.service.HOSTILE_SMOKE_PLAN`, the closed-loop saturation ladder
with the network path's process-scaling series, and the network wire
statistics with the binary-v2 vs JSON-v1 codec comparison;
:data:`SERVICE_BENCH_SCHEMA_VERSION` records when each arrived.  Consecutive
artifacts form the service trajectory, the front-end counterpart of
``BENCH_sweep.json`` (:mod:`repro.sweeps.bench`): a scheduling or batching
regression shows up as a latency/throughput shift at identical, seed-pinned
work.

:func:`validate_service_bench` is the schema gate; the CLI's ``serve-bench``
validates before writing and CI fails on any violation (or on a non-zero
identity mismatch count).
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
    counts,
    keys,
    latency_entry,
    nullable,
    number,
    obj,
    one_of,
    present,
    require,
    stamp,
    stamp_fields,
    string,
    validate,
    where,
    write_document,
)
from ..evaluation.engine import LatencyHistogram

#: Version of the BENCH_service document layout; bump on breaking changes.
#: v2 added the outcome-cache counters and ``cache_comparison``, v3 the
#: fault/overload ledger, v4 the ``saturation`` block, v5 the ``wire`` block
#: (docs/service.md describes each change).
SERVICE_BENCH_SCHEMA_VERSION = 5


class ServiceBenchSchemaError(ValueError):
    """Raised when a BENCH_service document violates the published schema."""


def _histogram_entry(histogram: LatencyHistogram) -> dict:
    low = 0.0 if histogram.count == 0 else histogram.min_seconds
    p50, p99 = histogram.percentile(50), histogram.percentile(99)
    return latency_entry(histogram.count, histogram.mean, p50, p99, low, histogram.max_seconds)


def cache_comparison_entry(off_result, on_result) -> dict:
    """The ``cache_comparison`` block: one trace replayed cache-off then -on.

    Both arguments are :class:`repro.evaluation.ServiceLoadResult` runs of the
    *same* trace; ``throughput_ratio`` is on/off (>1 ⇒ the cache helped).
    """

    def _side(result) -> dict:
        return {
            "completed": result.completed,
            "cache_hits": result.cache_hits,
            "throughput_rps": result.throughput_rps,
            "latency_p99_us": result.latency.percentile(99) * 1e6,
        }

    ratio = (
        on_result.throughput_rps / off_result.throughput_rps
        if off_result.throughput_rps > 0
        else 0.0
    )
    return {"off": _side(off_result), "on": _side(on_result), "throughput_ratio": ratio}


def fairness_entry(result) -> dict:
    """The ``fairness`` block: per-scenario healthy completion ratios.

    Each scenario's ratio is ``completed / (offered - poisoned)`` — poisoned
    requests are the fault plan's, not the scheduler's, so they are excluded
    from the denominator.  ``min``/``max`` summarise the spread: a scheduler
    that starves one session key under Zipf skew shows up as a low ``min``.
    """
    return {
        "per_scenario": [dict(row) for row in result.per_scenario],
        "min_completion_ratio": result.min_completion_ratio,
        "max_completion_ratio": result.max_completion_ratio,
    }


def hostile_mix_entry(family: str, trace, plan, result) -> dict:
    """One ``hostile_mix`` series entry: a hostile family replayed faulted.

    ``family`` names the traffic shape (one of
    :data:`repro.service.HOSTILE_FAMILIES`), ``trace`` / ``plan`` the pinned
    :class:`~repro.service.trace.TraceSpec` and
    :class:`~repro.service.faults.FaultPlan` replayed, and ``result`` the
    :class:`repro.evaluation.ServiceLoadResult`.  ``isolated`` is the
    series' pass/fail verdict: every poisoned request resolved as an error,
    no healthy request was lost to one, and identity held.
    """
    isolated = (
        result.poisoned_errored == result.poisoned
        and result.error_responses == result.poisoned
        and result.identity_mismatches == 0
        and result.stream_mismatches == 0
    )
    return {
        "family": family,
        "trace_hash": trace.trace_hash(),
        "plan_hash": plan.plan_hash(),
        "requests": result.requests,
        "completed": result.completed,
        "shed": result.shed,
        "error_responses": result.error_responses,
        "poisoned": result.poisoned,
        "poisoned_errored": result.poisoned_errored,
        "retries": result.retries,
        "streams": result.streams,
        "stream_mismatches": result.stream_mismatches,
        "shed_rate": result.shed_rate,
        "min_completion_ratio": result.min_completion_ratio,
        "max_completion_ratio": result.max_completion_ratio,
        "throughput_rps": result.throughput_rps,
        "latency_p99_us": result.latency.percentile(99) * 1e6,
        "identity_checked": result.identity_checked,
        "identity_mismatches": result.identity_mismatches,
        "healthy_digest": result.healthy_digest,
        "isolated": isolated,
    }


def saturation_entry(saturation, scaling: dict | None = None) -> dict:
    """The ``saturation`` block: the offered-load ladder plus its knee.

    ``saturation`` is a :class:`repro.evaluation.SaturationResult` from
    :meth:`repro.evaluation.ServiceLoadEngine.saturate`; ``scaling`` is the
    (optional) network-path process-scaling series from
    :func:`repro.service.net.bench.scaling_entry`.
    """
    return {
        "mode": "closed-loop",
        "client_ladder": [point.clients for point in saturation.points],
        "points": [point.to_dict() for point in saturation.points],
        "knee": {
            "clients": saturation.knee_clients,
            "throughput_rps": saturation.knee_throughput_rps,
        },
        "peak_throughput_rps": saturation.peak_throughput_rps,
        "digest_match": saturation.digest_match,
        "scaling": scaling,
    }


def wire_entry(stats: dict | None = None, comparison: dict | None = None) -> dict:
    """The ``wire`` block: network wire statistics plus the codec comparison.

    ``stats`` is :meth:`repro.service.net.client.NetClient.wire_stats` from a
    network replay (``None`` when the primary run was in-process);
    ``comparison`` is :func:`repro.service.net.bench.wire_comparison`'s
    v2-vs-v1 block (``None`` when not run).
    """
    return {"stats": stats, "comparison": comparison}


def service_bench_document(
    trace,
    result,
    *,
    commit: str | None = None,
    timestamp: str | None = None,
    cache_comparison: dict | None = None,
    fault_plan=None,
    hostile_mix: list | None = None,
    saturation: dict | None = None,
    wire: dict | None = None,
) -> dict:
    """Build the BENCH_service document for one load-engine run.

    ``trace`` is the :class:`~repro.service.trace.TraceSpec` the
    :class:`repro.evaluation.ServiceLoadEngine` replayed, ``result`` the
    :class:`repro.evaluation.ServiceLoadResult` it returned; the document
    embeds the trace (with its content hash) next to the measurements.
    ``cache_comparison`` is an optional :func:`cache_comparison_entry` block,
    ``fault_plan`` the :class:`~repro.service.faults.FaultPlan` the primary
    run injected, ``hostile_mix`` an optional list of
    :func:`hostile_mix_entry` blocks, ``saturation`` an optional
    :func:`saturation_entry` block, and ``wire`` an optional
    :func:`wire_entry` block — all ``None`` when not run (the keys are
    always present).
    """
    return {
        **stamp(SERVICE_BENCH_SCHEMA_VERSION, commit, timestamp),
        "trace": {"hash": trace.trace_hash(), **trace.to_dict()},
        "requests": result.requests,
        "completed": result.completed,
        "shed": result.shed,
        "evaluated": result.evaluated,
        "errors": result.errors,
        "logical_error_rate": result.logical_error_rate,
        "elapsed_seconds": result.elapsed_seconds,
        "throughput_rps": result.throughput_rps,
        "queue_delay": _histogram_entry(result.queue_delay),
        "latency": _histogram_entry(result.latency),
        "batches": result.batches,
        "mean_batch_size": result.mean_batch_size,
        "batch_size_histogram": {
            str(size): count for size, count in sorted(result.batch_sizes.items())
        },
        "sessions": dict(result.session_stats),
        "cache_hits": result.cache_hits,
        "outcome_cache": dict(result.outcome_cache),
        "cache_comparison": cache_comparison,
        "error_responses": result.error_responses,
        "retries": result.retries,
        "shed_rate": result.shed_rate,
        "fairness": fairness_entry(result),
        "fault_plan": None if fault_plan is None else fault_plan.to_dict(),
        "hostile_mix": hostile_mix,
        "saturation": saturation,
        "wire": wire,
        "identity": {
            "checked": result.identity_checked,
            "mismatches": result.identity_mismatches,
        },
        "outcome_digest": result.outcome_digest,
        "healthy_digest": result.healthy_digest,
    }


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------
def _ledger(entry: dict, path: str) -> None:
    require(
        entry["completed"] + entry["shed"] + entry["error_responses"] == entry["requests"],
        f"{where(path)}completed + shed + error_responses must equal requests",
    )


def _batch_accounting(document: dict, path: str) -> None:
    batched = sum(int(size) * n for size, n in document["batch_size_histogram"].items())
    require(
        batched + document["cache_hits"] == document["completed"] + document["error_responses"],
        "batched requests + cache_hits must account for every completed or "
        "errored request (failed requests occupy batch slots too)",
    )


def _offered(row: dict, path: str) -> None:
    # Poisoned, completed and shed are disjoint request sets; errors may
    # overlap poisoned (a poisoned request resolving as an error).
    require(
        row["poisoned"] + row["completed"] + row["shed"] <= row["offered"],
        f"{path}: ledger exceeds offered requests",
    )


def _cache_off(comparison: dict, path: str) -> None:
    hits = comparison["off"]["cache_hits"]
    require(hits == 0, f"{path}.off must have run without the cache (cache_hits == 0)")


def _ladder(saturation: dict, path: str) -> None:
    ladder = saturation["client_ladder"]
    require(ladder == sorted(set(ladder)), f"{path}.client_ladder must be strictly increasing")
    clients = [point["clients"] for point in saturation["points"]]
    require(clients == ladder, f"{path}.points must match client_ladder")
    require(saturation["knee"]["clients"] in ladder, f"{path}.knee.clients must be a ladder rung")


def _process_order(scaling: dict, path: str) -> None:
    processes = [row["processes"] for row in scaling["series"]]
    require(processes == scaling["process_counts"], f"{path}.series must match process_counts")


def _v1_on_json(comparison: dict, path: str) -> None:
    require(comparison["v1"]["codec"] == 1, f"{path}.v1 must have run on codec 1")


#: The request ledger every replay summary (the document, a hostile entry) carries.
_LEDGER = {
    "requests": number(low=1),
    **keys("completed shed error_responses retries throughput_rps", NON_NEGATIVE),
    "shed_rate": FRACTION,
    "healthy_digest": string,
}
_RATIOS = keys("min_completion_ratio max_completion_ratio", FRACTION)
_RATIO_ORDER = at_most("min_completion_ratio", "max_completion_ratio")
_CACHE_SIDE = obj(keys("completed cache_hits throughput_rps latency_p99_us", NON_NEGATIVE))
_HOSTILE = obj(
    {
        **keys("family trace_hash plan_hash", string),
        **_LEDGER,
        **keys(
            "poisoned poisoned_errored streams stream_mismatches latency_p99_us "
            "identity_checked identity_mismatches",
            NON_NEGATIVE,
        ),
        **_RATIOS,
        "isolated": boolean,
    },
    _ledger,
    at_most("poisoned_errored", "poisoned"),
    _RATIO_ORDER,
)
_SCALING_ROW = obj(
    {
        **keys("processes completed throughput_rps latency_p99_us efficiency", NON_NEGATIVE),
        "healthy_digest": string,
    }
)
_SCALING = obj(
    {
        "cpu_count": number(low=1),
        "process_counts": array(number(low=1)),
        "series": array(_SCALING_ROW),
        "digest_match": boolean,
    },
    _process_order,
)
_RUNG = obj(
    {
        **keys(
            "clients requests completed elapsed_seconds throughput_rps "
            "latency_p50_us latency_p99_us",
            NON_NEGATIVE,
        ),
        "healthy_digest": string,
    }
)
_SATURATION = obj(
    {
        "mode": one_of("closed-loop"),
        "client_ladder": array(NON_NEGATIVE),
        "points": array(_RUNG),
        "knee": obj(keys("clients throughput_rps", NON_NEGATIVE)),
        "peak_throughput_rps": NON_NEGATIVE,
        "digest_match": boolean,
        "scaling": nullable(_SCALING),
    },
    _ladder,
)
#: What :meth:`repro.service.net.client.NetClient.wire_stats` reports.
_WIRE_STATS = {
    "codec": one_of(1, 2),
    **keys("frames_sent bytes_sent frames_received bytes_received", NON_NEGATIVE),
    "batch_histogram": counts,
}
_WIRE_SIDE = obj({**_WIRE_STATS, "throughput_rps": NON_NEGATIVE, "healthy_digest": string})
_WIRE_COMPARISON = obj(
    {
        **keys("processes requests", number(low=1)),
        **keys("v2 v1", _WIRE_SIDE),
        "speedup": NON_NEGATIVE,
        "digest_match": boolean,
    },
    _v1_on_json,
)
_SCENARIO = obj(
    {
        **keys("scenario offered poisoned completed shed errors", NON_NEGATIVE),
        "completion_ratio": FRACTION,
    },
    _offered,
)
_FAULT_PLAN = obj(
    {
        **keys(
            "name seed straggler_workers straggler_delay_seconds session_crash_attempts", present
        ),
        **keys("session_crash_rate poison_rate", FRACTION),
    }
)
#: A disabled outcome cache reports only ``enabled``; an enabled one, its counters too.
_OUTCOME_CACHE = obj(
    {"enabled": boolean},
    when=(
        "enabled",
        {
            **keys("hits misses evictions entries bytes_resident max_bytes", NON_NEGATIVE),
            "hit_rate": FRACTION,
        },
    ),
)
_SCHEMA = obj(
    {
        **stamp_fields(SERVICE_BENCH_SCHEMA_VERSION),
        "trace": obj(
            {**keys("hash name requests seed arrival", present), "scenarios": array(present)}
        ),
        **_LEDGER,
        **keys("evaluated errors elapsed_seconds batches mean_batch_size", NON_NEGATIVE),
        "logical_error_rate": FRACTION,
        **keys("queue_delay latency", LATENCY),
        "batch_size_histogram": counts,
        "sessions": obj(keys("hits misses evictions", NON_NEGATIVE)),
        "cache_hits": NON_NEGATIVE,
        "outcome_cache": _OUTCOME_CACHE,
        "cache_comparison": nullable(
            obj({**keys("off on", _CACHE_SIDE), "throughput_ratio": NON_NEGATIVE}, _cache_off)
        ),
        "fairness": obj({"per_scenario": array(_SCENARIO), **_RATIOS}, _RATIO_ORDER),
        "fault_plan": nullable(_FAULT_PLAN),
        "hostile_mix": nullable(array(_HOSTILE)),
        "saturation": nullable(_SATURATION),
        "wire": nullable(
            obj({"stats": nullable(obj(_WIRE_STATS)), "comparison": nullable(_WIRE_COMPARISON)})
        ),
        "identity": obj(keys("checked mismatches", NON_NEGATIVE), at_most("mismatches", "checked")),
        "outcome_digest": string,
    },
    _ledger,
    at_most("evaluated", "completed"),
    at_most("errors", "evaluated"),
    at_most("cache_hits", "completed"),
    _batch_accounting,
)


def validate_service_bench(document: dict) -> None:
    """Validate a BENCH_service document; raises on any schema violation.

    >>> validate_service_bench({})
    Traceback (most recent call last):
        ...
    repro.service.bench.ServiceBenchSchemaError: missing top-level key 'schema_version'
    """
    validate(document, _SCHEMA, ServiceBenchSchemaError)


def write_service_bench(document: dict, path: str | Path) -> Path:
    """Validate and write the document (atomic via temp + rename)."""
    return write_document(document, path, validate_service_bench)
