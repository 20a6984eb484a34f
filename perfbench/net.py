"""The TCP decode-service workload (``net-serve``).

The server runs in its own process (``python -m repro serve-net --serve``
with one worker process and the ``serve-net`` default sizing: batch 16,
wait 1 ms, outcome cache off).  This process is the load generator: one
thread on one :class:`repro.service.net.NetClient` connection.

* Phase ``bulk``: back-to-back pipelined ``decode_many`` calls, at least
  :data:`BULK_MIN_PASSES` times over the pool; throughput and server latency
  are taken at each chunk's and request's fastest pass.
* Phase ``open``: open-loop Poisson arrivals at :data:`OPEN_RATE`; each
  request is timed from its due time, so a stall also charges the requests
  queued behind it.

As on ``mc-*``, times are scaled to the reference speed by speed probes,
here :func:`metrics.machine_probe_seconds`, which visits every CPU because
the three processes of the service run on any of them.  Probes run between
bulk chunks, while the open-loop generator waits, and around each server
start.

Requests cycle through a seeded pool of distinct syndromes.  After the run
every pool entry is decoded directly through a
:class:`repro.api.DecoderSession` and every response is compared with it.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from metrics import (
    PROBE_REFERENCE_S,
    calmest_window_percentile,
    hw_counter_metrics,
    machine_probe_seconds,
    median,
    percentile,
    tail_mean,
)
from tracer import Tracer

import repro.service.net.client as client_module
from repro.api import DecoderSession, content_hash
from repro.evaluation import MonteCarloEngine, modelled_latency_fn
from repro.graphs import Syndrome, SyndromeSampler
from repro.service import CodeSpec, DecodeRequest, SessionKey
from repro.service.net import NetClient, protocol

ROOT = Path(__file__).resolve().parent.parent

#: ``(code, decoder)`` of each request family; equal shares in the pool.
SCENARIOS = (
    (CodeSpec(3, physical_error_rate=0.001), "micro-blossom"),
    (CodeSpec(5, physical_error_rate=0.001), "micro-blossom"),
    (CodeSpec(5, physical_error_rate=0.005), "union-find"),
)
POOL_PER_SCENARIO = 1024
#: Open-loop arrival rate: 5-10% of the bulk capacity measured on a 2-vCPU
#: machine (1.2k-2.3k req/s as measured).  At 400-800 req/s a slow spell of
#: the shared machine pushed the queue towards saturation and latency ran
#: away; at 200 req/s the open-loop p50 still doubled in some slow runs.
OPEN_RATE = 100.0
#: Share of ``--seconds`` spent in the bulk phase; the open phase gets the
#: rest.  Half each: the bulk phase's fastest-pass figures need many passes.
BULK_SHARE = 0.5
BULK_CHUNK = 256
#: Bulk-phase passes over the pool at least.  The pool is a whole number of
#: chunks, so chunk ``i`` of every pass carries the same requests; each chunk
#: is charged its fastest pass, and each request its fastest server latency.
BULK_MIN_PASSES = 2
#: The open-loop generator runs a speed probe while it waits for a due time
#: at least this far off.
PROBE_GAP_S = 0.002
#: Server starts per run; ``setup_s`` is their median.
SERVER_STARTS = 3
#: The open phase's ``decode_p50_ms`` is taken in the calmest of this many
#: consecutive windows.
OPEN_WINDOWS = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
RESULT_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def build_pool(seed: int) -> list[DecodeRequest]:
    """Seeded request pool: every scenario's syndromes, shuffled together."""
    requests = []
    for number, (code, decoder) in enumerate(SCENARIOS):
        key = SessionKey(code, decoder)
        graph = code.build_graph()
        sampler = SyndromeSampler(graph, seed=MonteCarloEngine.shard_seed(seed, number))
        for syndrome in sampler.sample_batch(POOL_PER_SCENARIO):
            requests.append((key, Syndrome(syndrome.defects)))
    order = np.random.default_rng([seed, len(SCENARIOS)]).permutation(len(requests))
    return [
        DecodeRequest(requests[i][0], requests[i][1], request_id=position)
        for position, i in enumerate(order)
    ]


def arrival_offsets(seed: int, seconds: float) -> list[float]:
    """Poisson arrival times (seconds from the phase start) at OPEN_RATE."""
    rng = np.random.default_rng([seed, 1 + len(SCENARIOS)])
    count = int(OPEN_RATE * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=count))
    return [float(t) for t in offsets if t < seconds]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``repro serve-net --serve`` in a child process."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        distances = sorted({code.distance for code, _ in SCENARIOS})
        rates = sorted({code.physical_error_rate for code, _ in SCENARIOS})
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve-net",
                "--serve",
                "--processes",
                "1",
                "--prewarm-distances",
                ",".join(map(str, distances)),
                "--prewarm-error-rates",
                ",".join(map(str, rates)),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split()[2]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        """Graceful drain (SIGTERM); killed if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def start_server() -> tuple[Server, float]:
    """Start a server; return it and the seconds until every session answered."""
    started = time.perf_counter()
    server = Server()
    try:
        with NetClient(server.host, server.port) as client:
            warm = [
                DecodeRequest(SessionKey(code, decoder), Syndrome(()))
                for code, decoder in SCENARIOS
            ]
            for response in client.decode_many(warm, timeout=RESULT_TIMEOUT_S):
                if not response.ok:
                    raise RuntimeError(f"warm-up request failed: {response.error}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------
def cycle(pool: list[DecodeRequest], start: int, count: int) -> list[DecodeRequest]:
    return [pool[(start + i) % len(pool)] for i in range(count)]


def bulk_phase(client, pool, *, seconds=None, total=None) -> dict:
    """Back-to-back ``decode_many`` until ``total`` answered, or until
    ``seconds`` pass and the pool was sent :data:`BULK_MIN_PASSES` times.

    Timed by ``seconds``, a speed probe runs between chunks and each chunk
    gets the factor ``PROBE_REFERENCE_S / probe`` of the faster probe beside
    it; counted by ``total`` (the traced replay), no probes run.
    """
    clock = time.perf_counter
    probe = machine_probe_seconds if total is None else lambda: PROBE_REFERENCE_S
    responses, chunk_s, factors = [], [], []
    started = clock()
    before = probe()
    while True:
        count = BULK_CHUNK if total is None else min(BULK_CHUNK, total - len(responses))
        chunk_started = clock()
        responses.extend(
            client.decode_many(cycle(pool, len(responses), count), timeout=RESULT_TIMEOUT_S)
        )
        chunk_s.append(clock() - chunk_started)
        after = probe()
        factors.append(PROBE_REFERENCE_S / min(before, after))
        before = after
        if total is not None and len(responses) >= total:
            break
        if (
            seconds is not None
            and clock() - started >= seconds
            and len(responses) >= BULK_MIN_PASSES * len(pool)
        ):
            break
    return {
        "responses": responses,
        "elapsed": clock() - started,
        "chunk_s": chunk_s,
        "factors": factors,
    }


def open_phase(client, pool, offsets: list[float], first: int) -> dict:
    """Submit at each due time; record due, send and completion times."""
    count = len(offsets)
    done = [0.0] * count
    clock = time.perf_counter

    def finished(index):
        def callback(_future):
            done[index] = clock()

        return callback

    futures, due, sent, probes = [], [], [], []
    start = clock() + 0.01
    for index, offset in enumerate(offsets):
        due_at = start + offset
        if due_at - clock() > PROBE_GAP_S:
            probes.append((clock(), machine_probe_seconds()))
        wait = due_at - clock()
        if wait > 0:
            time.sleep(wait)
        sent.append(clock())
        due.append(due_at)
        future = client.submit(pool[(first + index) % len(pool)])
        future.add_done_callback(finished(index))
        futures.append(future)
    responses = [future.result(RESULT_TIMEOUT_S) for future in futures]
    return {
        "responses": responses,
        "due": due,
        "sent": sent,
        "done": done,
        "factors": speed_factors(sent, probes),
        "elapsed": clock() - start,
    }


def speed_factors(sent: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """Per request: ``PROBE_REFERENCE_S`` over the faster of the probes just
    before and just after it was sent."""
    times = [at for at, _seconds in probes]
    factors = []
    for moment in sent:
        after = bisect.bisect_left(times, moment)
        around = [seconds for _at, seconds in probes[max(after - 1, 0) : after + 1]]
        factors.append(PROBE_REFERENCE_S / min(around))
    return factors


def best_pass_seconds(bulk: dict, pool_size: int) -> float:
    """Seconds of one bulk pass over the pool at the reference speed, each
    chunk at its fastest pass."""
    scaled = [seconds * factor for seconds, factor in zip(bulk["chunk_s"], bulk["factors"])]
    chunks = pool_size // BULK_CHUNK
    return sum(min(scaled[position::chunks]) for position in range(chunks))


def best_server_latency_ms(bulk: dict) -> list[float]:
    """Per pool entry answered OK: its fastest server-reported latency at the
    reference speed."""
    best: dict[int, float] = {}
    for position, response in enumerate(bulk["responses"]):
        if response.ok:
            entry = response.request.request_id
            latency_ms = response.latency_seconds * 1e3 * bulk["factors"][position // BULK_CHUNK]
            best[entry] = min(best.get(entry, math.inf), latency_ms)
    return list(best.values())


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def direct_outcomes(pool: list[DecodeRequest]) -> list[dict]:
    """Decode every pool entry directly; ``{"outcome"|"error", "latency_us"}``."""
    sessions, latency_fns = {}, {}
    for code, decoder in SCENARIOS:
        key = SessionKey(code, decoder)
        graph = code.build_graph()
        sessions[key] = DecoderSession(graph, decoder, key.config)
        latency_fns[key] = modelled_latency_fn(decoder, graph)
    expected = []
    for request in pool:
        key = request.session
        try:
            outcome = sessions[key].decode_detailed(request.syndrome)
        except Exception as error:  # a defect of the decoder: recorded, never fatal
            expected.append({"error": f"{type(error).__name__}: {error}"})
            continue
        expected.append(
            {
                "outcome": outcome,
                "wire": outcome.to_dict(),
                "latency_us": latency_fns[key](outcome) * 1e6,
            }
        )
    return expected


def check_responses(responses, expected) -> dict:
    """Count responses that are OK-and-equal, failed, or wrong."""
    ok = failed = wrong = 0
    first_wrong = None
    for response in responses:
        want = expected[response.request.request_id]
        if not response.ok:
            failed += 1
            continue
        if "error" in want or response.outcome.to_dict() != want["wire"]:
            wrong += 1
            if first_wrong is None:
                first_wrong = response.request.request_id
            continue
        ok += 1
    return {"ok": ok, "failed": failed, "wrong": wrong, "first_wrong": first_wrong}


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the client-side layers of the network path."""
    tracer.wrap(NetClient, "decode_many", "net.client.decode_many")
    tracer.wrap(NetClient, "submit", "net.client.submit")
    tracer.wrap(NetClient, "_send_batch", "net.client.send_batch")
    tracer.wrap(NetClient, "_send_frame", "net.socket.send")
    tracer.wrap(NetClient, "_resolve_response", "net.client.resolve")
    tracer.wrap(protocol, "encode_frame", "net.wire.encode")
    tracer.wrap(client_module, "decode_payload", "net.wire.decode")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, say) -> dict:
    pool = build_pool(seed)
    assert len(pool) % BULK_CHUNK == 0, "bulk chunks must tile the pool"
    bulk_seconds = seconds * BULK_SHARE
    offsets = arrival_offsets(seed, seconds - bulk_seconds)

    setup_times = []
    server = None
    try:
        for attempt in range(SERVER_STARTS):
            before = machine_probe_seconds()
            server, elapsed = start_server()
            speed = PROBE_REFERENCE_S / min(before, machine_probe_seconds())
            setup_times.append(elapsed * speed)
            if attempt < SERVER_STARTS - 1:
                server.stop()
                server = None
        tracer = Tracer()
        # The load generator keeps every response for the check; with the
        # collector on, its full collections over them stall the generator
        # for tens of milliseconds and charge that to the server.
        gc.collect()
        gc.disable()
        with NetClient(server.host, server.port) as client:
            bulk = bulk_phase(client, pool, seconds=bulk_seconds)
            traced_bulk = None
            if trace:
                install_layer_wrappers(tracer)
                try:
                    window_start = time.perf_counter_ns()
                    traced_bulk = bulk_phase(client, pool, total=len(bulk["responses"]))
                    bulk_window = (window_start, time.perf_counter_ns())
                    opened = open_phase(client, pool, offsets, len(bulk["responses"]))
                finally:
                    tracer.uninstall()
            else:
                opened = open_phase(client, pool, offsets, len(bulk["responses"]))
            wire = client.wire_stats()
    finally:
        gc.enable()
        if server is not None:
            server.stop()

    # Correctness: outside every timed region.
    expected = direct_outcomes(pool)
    phases = {"bulk": bulk, "open": opened}
    if traced_bulk is not None:
        phases["bulk-traced"] = traced_bulk
    checks = {label: check_responses(p["responses"], expected) for label, p in phases.items()}
    attempted = sum(len(p["responses"]) for p in phases.values())
    failed = sum(c["failed"] for c in checks.values())
    wrong = sum(c["wrong"] for c in checks.values())

    ok_open = [i for i, response in enumerate(opened["responses"]) if response.ok]
    latency_ms = [(opened["done"][i] - opened["due"][i]) * 1e3 for i in ok_open]
    scaled_latency_ms = [latency_ms[k] * opened["factors"][i] for k, i in enumerate(ok_open)]
    late_ms = [(s - d) * 1e3 for s, d in zip(opened["sent"], opened["due"])]
    hw_us = [entry["latency_us"] for entry in expected if "outcome" in entry]
    counters: Counter = Counter()
    for entry in expected:
        if "outcome" in entry:
            counters.update(entry["outcome"].counters)
    digest = content_hash({"counters": dict(sorted(counters.items()))})

    for label, phase in phases.items():
        check = checks[label]
        say(
            f"net-serve {label}: sent={len(phase['responses'])} ok={check['ok']} "
            f"failed={check['failed']} wrong={check['wrong']} "
            f"elapsed={phase['elapsed']:.3f}s"
        )
    for label, check in checks.items():
        if check["wrong"]:
            say(f"{label}: first wrong response for pool entry {check['first_wrong']}")
    say(f"hw_digest {digest} over {len(hw_us)} pool decodes")
    say(f"open phase: rate={OPEN_RATE:g}/s generator late p99={percentile(late_ms, 99):.3f} ms")
    say(
        f"machine speed={median(bulk['factors'] + opened['factors']):.3f} of reference; "
        f"as measured: bulk {len(bulk['responses']) / bulk['elapsed']:.1f} req/s, "
        f"open p50 {percentile(latency_ms, 50):.3f} ms"
    )

    end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "shots_per_s": (len(pool) / best_pass_seconds(bulk, len(pool)), "1/s"),
        "decode_p50_ms": (calmest_window_percentile(scaled_latency_ms, 50, OPEN_WINDOWS), "ms"),
        "decode_p99_ms": (percentile(best_server_latency_ms(bulk), 99), "ms"),
        "hw_latency_mean_us": (sum(hw_us) / len(hw_us), "us"),
        "hw_latency_tail_us": (tail_mean(hw_us), "us"),
    }
    per_layer = {}
    if trace:
        per_layer = layer_metrics(tracer, bulk, traced_bulk, bulk_window, opened, wire)
        per_layer.update(hw_counter_metrics(counters))
        per_layer["load.gen_late_p99_ms"] = (percentile(late_ms, 99), "ms")
        per_layer["load.open_p50_ms"] = (percentile(latency_ms, 50), "ms")
        per_layer["load.open_p99_ms"] = (percentile(latency_ms, 99), "ms")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "tracer": tracer if trace else None,
        "details": {
            "checks": checks,
            "hw_digest": digest,
            "hw_counters": dict(sorted(counters.items())),
            "setup_times": setup_times,
            "bulk_chunk_s": bulk["chunk_s"],
            "machine_speed": median(bulk["factors"] + opened["factors"]),
            "open_latency_ms": latency_ms,
            "wire": wire,
        },
    }


def layer_metrics(tracer, bulk, traced_bulk, bulk_window, opened, wire) -> dict:
    main = "MainThread"
    submit = tracer.summary(main).get("net.client.submit", {"calls": 0, "self_s": 0.0})
    bulk_table = tracer.summary(main, bulk_window)
    accounted = sum(row["self_s"] for row in bulk_table.values())
    frames = sum(wire["batch_histogram"].values())
    requests = sum(int(size) * count for size, count in wire["batch_histogram"].items())
    responses = opened["responses"]
    ok = [i for i, response in enumerate(responses) if response.ok]
    transport_ms = [
        ((opened["done"][i] - opened["sent"][i]) - responses[i].latency_seconds) * 1e3 for i in ok
    ]
    queue_ms = [responses[i].queue_delay_seconds * 1e3 for i in ok]
    busy_ms = [(responses[i].latency_seconds - responses[i].queue_delay_seconds) * 1e3 for i in ok]
    batch = [responses[i].batch_size for i in ok if not responses[i].cached]
    return {
        "net.client.submit.mean_us": (
            submit["self_s"] / submit["calls"] * 1e6 if submit["calls"] else 0.0,
            "us",
        ),
        "net.wire.bytes_per_request": (wire["bytes_sent"] / requests, "B"),
        "net.wire.requests_per_frame": (requests / frames, "count"),
        "net.transport_p50_ms": (percentile(transport_ms, 50), "ms"),
        "net.transport_p99_ms": (percentile(transport_ms, 99), "ms"),
        "service.queue_wait_p50_ms": (percentile(queue_ms, 50), "ms"),
        "service.queue_wait_p99_ms": (percentile(queue_ms, 99), "ms"),
        "service.busy_p50_ms": (percentile(busy_ms, 50), "ms"),
        "service.batch_size_mean": (sum(batch) / len(batch), "count"),
        "unaccounted_s": (traced_bulk["elapsed"] - accounted, "s"),
        "trace.overhead_ratio": (bulk["elapsed"] / traced_bulk["elapsed"], "ratio"),
    }
