"""Monte-Carlo decoding workloads (``mc-sparse``, ``mc-dense``).

Shots are drawn with the Monte-Carlo engine's shard seeding (shard ``i`` of a
run seeded ``s`` samples from ``SeedSequence([s, i])``) and decoded one at a
time through a :class:`repro.api.DecoderSession`.  The engine itself is not
used because it stops at the first decoder exception; here every exception
is one failed shot and the run goes on.

A run's shots form a pool fixed by the seed: the first
:attr:`McWorkload.pool_shards` shards.  The pool is decoded in whole passes,
at least :data:`MIN_PASSES` of them, for ``--seconds``.  The first pass's
outcomes are checked and feed the hardware model.  Each timed step (a
shard's sampling, a shot's decode and logical check) is scaled to the
reference speed by the speed probes run around it (:class:`SpeedScale`),
and the timing metrics charge each step its fastest pass.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from metrics import (
    PROBE_REFERENCE_S,
    hw_counter_metrics,
    median,
    percentile,
    probe_seconds,
    tail_mean,
)
from tracer import Tracer

from repro.api import DecoderSession, MicroBlossomConfig, content_hash
from repro.api.erasure import ErasureAwareDecoder
from repro.api.outcome import DecodeOutcome
from repro.core.accelerator import MicroBlossomAccelerator
from repro.core.decoder import MicroBlossomDecoder
from repro.core.primal import PrimalModule
from repro.evaluation import MonteCarloEngine, modelled_latency_fn
from repro.evaluation.engine import DEFAULT_SHARD_SIZE
from repro.graphs import (
    DecodingGraph,
    Syndrome,
    SyndromeSampler,
    circuit_level_noise,
    surface_code_decoding_graph,
)

#: Graph + session builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Instruction methods of the accelerator (the CPU <-> accelerator boundary).
DUAL_METHODS = (
    "load",
    "set_direction",
    "grow",
    "find_obstacle",
    "create_blossom",
    "expand_blossom",
    "reset",
)

#: Dual instructions reported under their own names; the rest sum into
#: ``core.dual.other``.
DUAL_NAMED = ("find_obstacle", "load")


@dataclass(frozen=True)
class McWorkload:
    distance: int
    error_rate: float
    #: Shards of :data:`DEFAULT_SHARD_SIZE` shots in a run's shot pool.  The
    #: pool depends only on the seed, so the checked shots (``attempted``,
    #: ``failed``) and the hardware-model figures are the same on every run of
    #: a seed, however fast the machine or the simulator is.
    pool_shards: int


WORKLOADS = {
    "mc-sparse": McWorkload(distance=9, error_rate=0.001, pool_shards=3),
    "mc-dense": McWorkload(distance=7, error_rate=0.005, pool_shards=3),
}

#: Timed passes over the pool at least; more while ``--seconds`` lasts.  Each
#: step of the loop is charged its fastest pass, so a probe that misjudged
#: the machine's speed must do so for the same shot in every pass to show.
MIN_PASSES = 3


@dataclass
class Shot:
    """One pool shot: what the first pass returned, and every pass's time."""

    shard: int
    index: int
    syndrome: Syndrome
    outcome: DecodeOutcome | None = None
    error: str | None = None
    #: Per pass: seconds of decode + logical check, at the reference speed.
    step_s: list = field(default_factory=list)
    #: Per pass: seconds of ``decode_detailed`` alone (non-trivial shots), at
    #: the reference speed.
    decode_s: list = field(default_factory=list)


@dataclass
class PoolLog:
    """What the timed passes record; checked and summarised after them."""

    shots: list = field(default_factory=list)
    #: Per shard: seconds of ``sample_batch`` in each pass, at the reference speed.
    sample_s: list = field(default_factory=list)
    #: Wall seconds of each complete pass, as measured.
    pass_s: list = field(default_factory=list)
    #: Every speed probe's wall seconds.
    probe_s: list = field(default_factory=list)
    elapsed: float = 0.0
    logical_errors: int = 0

    def decoded(self) -> list[Shot]:
        """Non-trivial shots, in pool order."""
        return [shot for shot in self.shots if shot.syndrome.defects]

    def best_loop_s(self) -> float:
        """Sample + decode + check time of the pool, each step at its fastest pass."""
        return sum(min(times) for times in self.sample_s) + sum(
            min(shot.step_s) for shot in self.shots
        )


def build(workload: McWorkload) -> tuple[DecodingGraph, DecoderSession]:
    """Graph and session, warmed by one empty shot so lazy engines exist."""
    graph = surface_code_decoding_graph(workload.distance, circuit_level_noise(workload.error_rate))
    session = DecoderSession(graph, "micro-blossom", MicroBlossomConfig())
    session.decode_detailed(Syndrome(()))
    return graph, session


def run_pool(
    graph: DecodingGraph,
    session: DecoderSession,
    seed: int,
    shards: int,
    *,
    seconds: float = 0.0,
    min_passes: int = 1,
    tracer: Tracer | None = None,
) -> PoolLog:
    """The timed sample + decode + logical-check loop over the seed's pool.

    Shard ``i`` samples from the engine's shard seed ``SeedSequence([seed,
    i])``.  Runs ``min_passes`` whole passes, then goes on until ``seconds``
    have passed, stopping at a shard boundary.  The first pass records each
    outcome; every pass records each step's time.
    """
    log = PoolLog(sample_s=[[] for _ in range(shards)])
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    passes = 0
    while passes < min_passes or clock() < deadline:
        if run_pass(graph, session, seed, shards, log, passes, min_passes, deadline, tracer):
            passes += 1
    log.elapsed = clock() - started
    return log


class SpeedScale:
    """Scales step times to the reference speed with the probes around them.

    A probe runs after every step; a step is scaled by the faster of the
    probes just before and just after it.  Traced passes are not scaled, so
    that the probes add no unaccounted time to the trace.
    """

    def __init__(self, log: PoolLog, enabled: bool) -> None:
        self.log = log
        self.enabled = enabled
        self.last = self.probe()

    def probe(self) -> float:
        if not self.enabled:
            return PROBE_REFERENCE_S
        seconds = probe_seconds()
        self.log.probe_s.append(seconds)
        return seconds

    def __call__(self, *seconds: float) -> list[float]:
        """``seconds`` of the step just ended, at the reference speed."""
        after = self.probe()
        factor = PROBE_REFERENCE_S / min(self.last, after)
        self.last = after
        return [value * factor for value in seconds]


def run_pass(graph, session, seed, shards, log, number, min_passes, deadline, tracer) -> bool:
    """Pass ``number`` over the pool; False if cut short at the deadline."""
    clock = time.perf_counter
    first = number == 0
    scale = SpeedScale(log, enabled=tracer is None)
    pass_started = clock()
    for shard in range(shards):
        sample_started = clock()
        sampler = SyndromeSampler(graph, seed=MonteCarloEngine.shard_seed(seed, shard))
        batch = sampler.sample_batch(DEFAULT_SHARD_SIZE)
        log.sample_s[shard].extend(scale(clock() - sample_started))
        for index, syndrome in enumerate(batch):
            if first:
                log.shots.append(Shot(shard, index, syndrome))
            shot = log.shots[shard * DEFAULT_SHARD_SIZE + index]
            if tracer is not None:
                tracer.request = shard * DEFAULT_SHARD_SIZE + index
            step_started = clock()
            if syndrome.defects:
                outcome = error = None
                try:
                    outcome = session.decode_detailed(syndrome)
                except Exception as exc:  # one failed shot; the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                decode_s = clock() - step_started
                flip = (
                    graph.crosses_observable(outcome.correction_edges(graph))
                    if outcome is not None
                    else syndrome.logical_flip
                )
                step_s = clock() - step_started
                if first:
                    shot.outcome, shot.error = outcome, error
                decode_s, step_s = scale(decode_s, step_s)
                shot.decode_s.append(decode_s)
            else:
                flip = False
                (step_s,) = scale(clock() - step_started)
            shot.step_s.append(step_s)
            if first:
                log.logical_errors += flip != syndrome.logical_flip
        if number >= min_passes and shard + 1 < shards and clock() >= deadline:
            return False
    log.pass_s.append(clock() - pass_started)
    return True


def check_against_reference(graph: DecodingGraph, log: PoolLog) -> list[dict]:
    """Weight of every successful decode vs the reference MWPM decoder.

    Returns one record per mismatch; a mismatch is a failed decode.
    """
    reference = DecoderSession(graph, "reference")
    mismatches = []
    for shot in log.decoded():
        if shot.outcome is None:
            continue
        expected = reference.decode_detailed(shot.syndrome).weight
        if shot.outcome.weight != expected:
            mismatches.append(
                {
                    "shard": shot.shard,
                    "index": shot.index,
                    "defects": list(shot.syndrome.defects),
                    "weight": shot.outcome.weight,
                    "reference_weight": expected,
                }
            )
    return mismatches


def hardware_figures(graph: DecodingGraph, log: PoolLog) -> dict:
    """Modelled latency and summed counters over every successful pool decode."""
    latency = modelled_latency_fn("micro-blossom", graph)
    outcomes = [shot.outcome for shot in log.decoded() if shot.outcome is not None]
    counters: Counter = Counter()
    for outcome in outcomes:
        counters.update(outcome.counters)
    latencies_us = [latency(outcome) * 1e6 for outcome in outcomes]
    return {
        "decodes": len(outcomes),
        "latency_mean_us": sum(latencies_us) / len(latencies_us),
        "latency_tail_us": tail_mean(latencies_us),
        "counters": counters,
        "digest": content_hash({"counters": dict(sorted(counters.items()))}),
    }


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public methods of every layer a Monte-Carlo shot crosses."""
    tracer.wrap(SyndromeSampler, "__init__", "graphs.sampler_init")
    tracer.wrap(SyndromeSampler, "sample_batch", "graphs.sample_batch")
    tracer.wrap(DecodeOutcome, "correction_edges", "graphs.logical_check")
    tracer.wrap(DecodingGraph, "crosses_observable", "graphs.logical_check")
    tracer.wrap(DecoderSession, "decode_detailed", "api.session")
    tracer.wrap(ErasureAwareDecoder, "decode_detailed", "api.session")
    tracer.wrap(MicroBlossomDecoder, "decode_detailed", "core.decoder.decode")
    for method in ("begin", "push_round", "finalize"):
        tracer.wrap(MicroBlossomDecoder, method, f"core.decoder.{method}")
    for method in DUAL_METHODS:
        tracer.wrap(MicroBlossomAccelerator, method, f"core.dual.{method}")
    for method in ("run", "break_boundary_matches", "collect_matching"):
        tracer.wrap(PrimalModule, method, f"core.primal.{method}")


def _report_failures(failures: list[Shot], mismatches: list[dict], seed: int, say) -> None:
    if failures:
        first = failures[0]
        say(
            f"first decode exception: seed={seed} shard={first.shard} "
            f"index={first.index} defects={tuple(first.syndrome.defects)} {first.error}"
        )
    if mismatches:
        first = mismatches[0]
        say(
            f"first weight mismatch: seed={seed} shard={first['shard']} "
            f"index={first['index']} defects={tuple(first['defects'])} "
            f"weight={first['weight']} reference={first['reference_weight']}"
        )


def run(name: str, seed: int, seconds: float, trace: bool, say) -> dict:
    """Run one Monte-Carlo workload; returns the result record for run.py."""
    workload = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = probe_seconds()
        started = time.perf_counter()
        graph, session = build(workload)
        elapsed = time.perf_counter() - started
        setup_times.append(elapsed * PROBE_REFERENCE_S / min(before, probe_seconds()))

    shards = workload.pool_shards
    log = run_pool(graph, session, seed, shards, seconds=seconds, min_passes=MIN_PASSES)
    traced = None
    tracer = Tracer()
    if trace:
        install_layer_wrappers(tracer)
        try:
            traced = run_pool(graph, session, seed, shards, tracer=tracer)
        finally:
            tracer.uninstall()

    # Correctness and hardware figures: outside every timed region.
    mismatches = check_against_reference(graph, log)
    decoded = log.decoded()
    failures = [shot for shot in decoded if shot.error is not None]
    attempted = len(decoded)
    failed = len(failures) + len(mismatches)
    hw = hardware_figures(graph, log)
    decode_ms = [min(shot.decode_s) * 1e3 for shot in decoded if shot.outcome is not None]
    speed = median([PROBE_REFERENCE_S / seconds for seconds in log.probe_s])

    say(
        f"{name}: d={workload.distance} p={workload.error_rate} seed={seed} "
        f"shots={len(log.shots)} decoded={attempted} failed={failed} "
        f"(exceptions={len(failures)} weight_mismatches={len(mismatches)}) "
        f"logical_errors={log.logical_errors} "
        f"passes={len(log.pass_s)} ({', '.join(f'{s:.2f}' for s in log.pass_s)} s wall) "
        f"machine speed={speed:.3f} of reference"
    )
    say(f"hw_digest {hw['digest']} over {hw['decodes']} decodes")
    _report_failures(failures, mismatches, seed, say)

    end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "shots_per_s": (len(log.shots) / log.best_loop_s(), "1/s"),
        "decode_p50_ms": (percentile(decode_ms, 50), "ms"),
        "decode_p99_ms": (percentile(decode_ms, 99), "ms"),
        "hw_latency_mean_us": (hw["latency_mean_us"], "us"),
        "hw_latency_tail_us": (hw["latency_tail_us"], "us"),
    }
    per_layer = {}
    if trace:
        per_layer = layer_metrics(tracer, traced, min(log.pass_s), hw)
    return {
        # Every weight mismatch and exception is counted in ``failed``.
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "tracer": tracer if trace else None,
        "details": {
            "failures": [
                {
                    "seed": seed,
                    "shard": shot.shard,
                    "index": shot.index,
                    "defects": list(shot.syndrome.defects),
                    "error": shot.error,
                }
                for shot in failures
            ],
            "weight_mismatches": mismatches,
            "hw_digest": hw["digest"],
            "hw_counters": dict(sorted(hw["counters"].items())),
            "setup_times": setup_times,
            "pass_s": log.pass_s,
            "machine_speed": speed,
            "decode_ms": decode_ms,
        },
    }


def layer_metrics(tracer: Tracer, traced: PoolLog, untraced_pass_s: float, hw: dict) -> dict:
    """Per-layer metrics of the traced pass plus the exact hardware counts."""
    table = tracer.summary()

    def row(span: str) -> dict:
        return table.get(span, {"calls": 0, "self_s": 0.0})

    find = row("core.dual.find_obstacle")
    other_dual = sum(
        row(f"core.dual.{method}")["self_s"] for method in DUAL_METHODS if method not in DUAL_NAMED
    )
    accounted = sum(entry["self_s"] for entry in table.values())
    metrics = {
        "core.dual.find_obstacle.calls": (find["calls"], "count"),
        "core.dual.find_obstacle.self_s": (find["self_s"], "s"),
        "core.dual.find_obstacle.mean_us": (
            find["self_s"] / find["calls"] * 1e6 if find["calls"] else 0.0,
            "us",
        ),
        "core.dual.load.self_s": (row("core.dual.load")["self_s"], "s"),
        "core.dual.grow.calls": (row("core.dual.grow")["calls"], "count"),
        "core.dual.other.self_s": (other_dual, "s"),
        "core.decoder.push_round.calls": (row("core.decoder.push_round")["calls"], "count"),
        "core.decoder.push_round.self_s": (row("core.decoder.push_round")["self_s"], "s"),
        "core.decoder.finalize.self_s": (row("core.decoder.finalize")["self_s"], "s"),
        "core.primal.run.calls": (row("core.primal.run")["calls"], "count"),
        "core.primal.run.self_s": (row("core.primal.run")["self_s"], "s"),
        "graphs.sample_batch.self_s": (row("graphs.sample_batch")["self_s"], "s"),
        "api.session.self_s": (row("api.session")["self_s"], "s"),
        "unaccounted_s": (traced.elapsed - accounted, "s"),
        "trace.overhead_ratio": (untraced_pass_s / traced.elapsed, "ratio"),
    }
    metrics.update(hw_counter_metrics(hw["counters"]))
    return metrics
