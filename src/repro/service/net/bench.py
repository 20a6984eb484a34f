"""Network-path benchmarking: digest-identical replay and process scaling.

Two measurements live here:

* :func:`replay_network` replays a seed-stable
  :class:`~repro.service.TraceSpec` through a real
  :class:`~repro.service.net.server.NetServer` over loopback TCP and
  evaluates the responses through the *same*
  :func:`repro.evaluation.service_load.evaluate_outcomes` the in-process
  :class:`~repro.evaluation.ServiceLoadEngine` uses — so
  ``healthy_digest`` equality between the two paths compares identical
  record constructions.  The network layer is required to be a pure
  transport: any digest difference is a bug, not noise.
* :func:`scaling_bench` runs that replay at several worker-process counts
  and reports throughput, per-process scaling efficiency
  (``throughput[p] / (p × throughput[1])``), whether every count produced
  the same healthy digest, and the machine's CPU count — scaling numbers
  from a 1-core container are honest only with the core count attached.
* :func:`wire_comparison` replays the same trace twice against one server —
  once with the negotiated binary codec and batched ``decode_many`` frames,
  once with a client forced to the JSON-v1 per-request wire format — and
  reports both sides' throughput and wire statistics, the end-to-end
  speedup, and whether the two paths' healthy digests agree.  Both passes
  run against a warm worker-side outcome cache so the comparison measures
  the wire, not the decoders.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from ...evaluation.engine import LatencyHistogram
from ...evaluation.service_load import LOAD_CONFIG_DEFAULTS, ServiceLoadResult, evaluate_outcomes
from ..config import ServiceConfig
from ..trace import TraceSpec, generate_trace
from .client import NetClient
from .protocol import CODEC_JSON, SUPPORTED_CODECS
from .server import NetServer

#: Worker-process counts the scaling series sweeps by default.
DEFAULT_PROCESS_COUNTS = (1, 2, 4)


def _net_config(config: ServiceConfig | None) -> ServiceConfig:
    # The in-process engine's sizing, so the two paths compare like for like.
    if config is None:
        return ServiceConfig(**LOAD_CONFIG_DEFAULTS)
    if not isinstance(config, ServiceConfig):
        raise TypeError(f"config must be a ServiceConfig, got {type(config).__name__}")
    return config


def prewarm_specs(spec: TraceSpec):
    """The distinct :class:`~repro.service.CodeSpec`s of a trace's scenarios
    (what the server packs into shared memory before forking workers)."""
    seen: dict[str, object] = {}
    for scenario in spec.scenarios:
        code = scenario.code()
        seen.setdefault(code.key(), code)
    return tuple(seen.values())


def replay_network(
    spec: TraceSpec,
    *,
    processes: int = 2,
    config: ServiceConfig | None = None,
    repeats: int = 1,
    server: NetServer | None = None,
) -> ServiceLoadResult:
    """Replay ``spec`` through a network server; returns a load result.

    Requests are pipelined over one client connection in trace order, one
    full pass at a time (pass boundaries drain, exactly like the in-process
    engine, so repeats exercise worker-side outcome caches the same way).
    Pass ``server=`` to replay against an already-running server (its config
    then governs); otherwise a fresh server is started and stopped around
    the replay.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    config = _net_config(config if server is None else server.config)
    trace = generate_trace(spec, fault_plan=config.fault_plan)
    own_server = server is None
    if own_server:
        server = NetServer(config, processes=processes, prewarm=prewarm_specs(spec))
        host, port = server.start()
    else:
        host, port = server.host, server.port
    try:
        return _replay_passes(host, port, trace, repeats)
    finally:
        if own_server:
            server.stop()


def _replay_passes(host, port, trace, repeats: int, codecs=SUPPORTED_CODECS) -> ServiceLoadResult:
    """Replay ``trace`` ``repeats`` times over one client connection.

    Each pass pipelines the whole trace through ``decode_many`` and drains
    before the next; the responses are evaluated by the in-process engine's
    :func:`~repro.evaluation.service_load.evaluate_outcomes`.
    """
    requests = [traced.request for traced in trace.requests]
    responses = []
    started = time.perf_counter()
    with NetClient(host, port, codecs=codecs) as client:
        for _ in range(repeats):
            responses.extend(client.decode_many(requests))
        elapsed = time.perf_counter() - started
        wire = client.wire_stats()
    sequence = list(trace.requests) * repeats
    queue_delay = LatencyHistogram()
    latency = LatencyHistogram()
    batch_sizes: Counter = Counter()
    for response in responses:
        queue_delay.add(response.queue_delay_seconds)
        latency.add(response.latency_seconds)
        if response.ok and not response.cached:
            batch_sizes[response.batch_size] += 1
    result = ServiceLoadResult(
        requests=len(sequence),
        completed=sum(1 for r in responses if r.ok),
        shed=sum(1 for r in responses if r.status == "shed"),
        errors=0,
        evaluated=0,
        elapsed_seconds=elapsed,
        queue_delay=queue_delay,
        latency=latency,
        batch_sizes=batch_sizes,
        error_responses=sum(1 for r in responses if r.status == "error"),
        cache_hits=sum(1 for r in responses if r.cached),
        wire=wire,
    )
    evaluate_outcomes(trace, sequence, responses, result)
    return result


def _wire_side(result: ServiceLoadResult) -> dict:
    stats = dict(result.wire or {})
    stats["throughput_rps"] = result.throughput_rps
    stats["healthy_digest"] = result.healthy_digest
    return stats


def wire_comparison(
    spec: TraceSpec,
    *,
    processes: int = 2,
    config: ServiceConfig | None = None,
    repeats: int = 2,
) -> dict:
    """Binary-batched (codec 2) vs per-request JSON (codec 1) wire replay.

    One server serves both passes.  The worker-side outcome cache is forced
    on and warmed with an untimed pass first, so the measured passes spend
    their time on the wire and the front end — the thing this comparison is
    about — instead of re-decoding; decode cost is identical on both sides
    either way.  Returns the schema-v5 ``wire.comparison`` block::

        {"processes", "requests",
         "v2": {codec, bytes/frames, throughput_rps, healthy_digest, ...},
         "v1": {...},
         "speedup": v2.throughput / v1.throughput,
         "digest_match": both passes produced one healthy digest}
    """
    config = _net_config(config)
    if not config.outcome_cache_bytes:
        config = config.replace(outcome_cache_bytes=8 << 20)
    trace = generate_trace(spec, fault_plan=config.fault_plan)
    server = NetServer(config, processes=processes, prewarm=prewarm_specs(spec))
    host, port = server.start()
    try:
        with NetClient(host, port) as warm:
            warm.decode_many([traced.request for traced in trace.requests])
        sides = {
            label: _replay_passes(host, port, trace, repeats, codecs)
            for label, codecs in (("v2", SUPPORTED_CODECS), ("v1", (CODEC_JSON,)))
        }
    finally:
        server.stop()
    v1_rps = sides["v1"].throughput_rps
    return {
        "processes": processes,
        "requests": len(trace.requests) * repeats,
        "v2": _wire_side(sides["v2"]),
        "v1": _wire_side(sides["v1"]),
        "speedup": sides["v2"].throughput_rps / v1_rps if v1_rps > 0 else 0.0,
        "digest_match": sides["v2"].healthy_digest == sides["v1"].healthy_digest,
    }


def scaling_entry(process_counts, results: dict[int, ServiceLoadResult]) -> dict:
    """The ``saturation.scaling`` block from per-process-count replays."""
    counts = list(process_counts)
    base = results[counts[0]].throughput_rps
    digests = {results[count].healthy_digest for count in counts}
    return {
        "cpu_count": os.cpu_count() or 1,
        "process_counts": counts,
        "series": [
            {
                "processes": count,
                "completed": results[count].completed,
                "throughput_rps": results[count].throughput_rps,
                "latency_p99_us": results[count].latency.percentile(99) * 1e6,
                "healthy_digest": results[count].healthy_digest,
                "efficiency": (
                    results[count].throughput_rps / (count / counts[0] * base)
                    if base > 0
                    else 0.0
                ),
            }
            for count in counts
        ],
        "digest_match": len(digests) == 1,
    }


def scaling_bench(
    spec: TraceSpec,
    *,
    process_counts=DEFAULT_PROCESS_COUNTS,
    config: ServiceConfig | None = None,
    repeats: int = 1,
) -> tuple[dict, dict[int, ServiceLoadResult]]:
    """Replay ``spec`` at each worker-process count; returns (entry, results).

    ``entry`` is the JSON-shaped ``saturation.scaling`` block
    (:func:`scaling_entry`); ``results`` maps process count to its full
    :class:`~repro.evaluation.ServiceLoadResult` for further gating (the CI
    smoke asserts every ``healthy_digest`` equals the in-process one).
    """
    counts = [int(count) for count in process_counts]
    if not counts or any(count < 1 for count in counts):
        raise ValueError("process_counts must be a non-empty list of ints >= 1")
    results: dict[int, ServiceLoadResult] = {}
    for count in counts:
        results[count] = replay_network(
            spec, processes=count, config=config, repeats=repeats
        )
    return scaling_entry(counts, results), results
