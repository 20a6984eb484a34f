"""Micro Blossom decoder front-end: CPU + accelerator co-simulation.

``MicroBlossomDecoder`` combines the software primal module with the
behavioural accelerator model and supports the three configurations evaluated
in the paper (Figure 10a):

* ``parallel dual phase`` only — pre-matching and streaming disabled;
* ``+ parallel primal phase`` — pre-matching of isolated Conflicts enabled;
* ``+ round-wise fusion`` — streaming, one measurement round at a time.

Every decode returns a :class:`MicroBlossomOutcome` carrying the matching
itself and all the operation counts needed by the latency model (§8.2):
accelerator instructions, blocking response reads, conflicts escalated to the
CPU, and — for stream decoding — the share of the work that happens after the
final measurement round arrived (which is what determines the decoding
latency).

The decoder keeps its accelerator model and primal module alive across
decodes (``reuse_engines=True``, the default): each shot takes a baseline
counter snapshot, ``reset()``s both engines and reports per-shot counter
deltas, so the results and statistics are identical to a freshly-built
decoder while the per-shot construction cost disappears from the Monte-Carlo
hot path.  Further snapshots are taken only where they are read: every
public ``push_round`` returns its exact cost, while ``decode_detailed`` in
stream mode snapshots only at the start of the final round, the origin of
``post_final_round_counters``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..api.outcome import DecodeOutcome as DecodeOutcomeBase
from ..api.outcome import counter_delta
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import (
    BOUNDARY,
    MatchingResult,
    Syndrome,
    correction_edges,
    matching_weight,
)
from .accelerator import MicroBlossomAccelerator, PreMatch
from .dual import DEFAULT_DUAL_SCALE
from .interface import IntegralityError
from .primal import PrimalModule

#: Maximum internal dual-scale doublings attempted before giving up.
MAX_SCALE_RETRIES = 4


def _snapshot(accelerator: MicroBlossomAccelerator, primal: PrimalModule) -> Counter:
    """Absolute counters of an accelerator/primal pair."""
    snapshot = Counter(accelerator.counters)
    snapshot.update(primal.counters)
    return snapshot


@dataclass
class MicroBlossomOutcome(DecodeOutcomeBase):
    """Full record of one Micro Blossom decoding run."""

    post_final_round_counters: Counter = field(default_factory=Counter)
    hardware_report: dict = field(default_factory=dict)
    prematched_pairs: int = 0
    stream: bool = False
    prematching: bool = True


#: Backwards-compatible alias (the outcome class used to carry this name).
DecodeOutcome = MicroBlossomOutcome


@dataclass
class _StreamState:
    """State of one in-flight incremental stream (``begin`` … ``finalize``)."""

    accelerator: MicroBlossomAccelerator
    primal: PrimalModule
    baseline: Counter
    scale: int
    #: Defects of every round pushed so far (replayed on a scale retry).
    rounds: list[tuple[int, ...]] = field(default_factory=list)
    #: Absolute counter snapshot taken at the start of the latest round
    #: (from round ``snapshot_from`` on) — the work recorded after it is what
    #: remains once the final round arrived (paper §8.2).
    last_snapshot: Counter = field(default_factory=Counter)
    #: First round whose start is snapshotted: 0 for the public protocol,
    #: whose every push reports its cost; the final round when
    #: ``decode_detailed`` drives the stream and only the outcome is read.
    snapshot_from: int = 0
    retries: int = 0
    any_defects: bool = False


class MicroBlossomDecoder:
    """Exact MWPM decoder with the Micro Blossom heterogeneous architecture.

    Besides the batch :class:`~repro.api.protocol.Decoder` surface, the class
    natively implements the incremental
    :class:`~repro.api.protocol.StreamingDecoder` protocol
    (``begin`` / ``push_round`` / ``finalize``): each pushed round is loaded
    and fused immediately, so only the residual work remains when the final
    round arrives.  ``decode_detailed`` with ``stream=True`` is simply the
    protocol driven from a fully-materialised syndrome.
    """

    name = "micro-blossom"

    def __init__(
        self,
        graph: DecodingGraph,
        enable_prematching: bool = True,
        stream: bool = False,
        scale: int = DEFAULT_DUAL_SCALE,
        reuse_engines: bool = True,
    ) -> None:
        self.graph = graph
        self.enable_prematching = enable_prematching
        self.stream = stream
        self.scale = scale
        self.reuse_engines = reuse_engines
        self._engines: dict[int, tuple[MicroBlossomAccelerator, PrimalModule]] = {}
        self._stream_state: _StreamState | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def decode(self, syndrome: Syndrome) -> MatchingResult:
        """Decode a syndrome and return the defect-level matching."""
        return self.decode_detailed(syndrome).result

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        """Decode a syndrome and return the correction edge set."""
        return correction_edges(self.graph, self.decode(syndrome))

    def decode_detailed(self, syndrome: Syndrome) -> MicroBlossomOutcome:
        """Decode a syndrome and return the matching plus all statistics.

        Every decode starts from ``self.scale``; when an
        :class:`IntegralityError` forces a retry at a doubled scale, the
        doubled scale is confined to that retry (and its cached engine) and
        never leaks into subsequent decodes of the same decoder or session.
        In stream mode the syndrome is replayed through the incremental
        round-push protocol, one measurement round at a time.
        """
        if self.stream:
            rounds = syndrome.defects_by_layer(self.graph)
            state = self._open_stream(snapshot_from=len(rounds) - 1)
            for round_defects in rounds:
                self._push(state, round_defects)
            return self.finalize()
        scale = self.scale
        last_error: IntegralityError | None = None
        for retry in range(MAX_SCALE_RETRIES + 1):
            try:
                outcome = self._decode_once(syndrome, scale)
                outcome.scale_retries = retry
                return outcome
            except IntegralityError as error:
                last_error = error
                scale *= 2
        raise IntegralityError(
            f"decoding failed even at dual scale {scale}: {last_error}"
        )

    def reset(self) -> None:
        """Drop all cached engines; the next decode rebuilds them."""
        self._engines = {}
        self._stream_state = None

    # ------------------------------------------------------------------
    # incremental streaming (StreamingDecoder protocol, paper §6)
    # ------------------------------------------------------------------
    def begin(
        self,
        graph: DecodingGraph | None = None,
        rounds_hint: int | None = None,
        erasures: Iterable[int] = (),
    ) -> None:
        """Open a new stream; any stream still in flight is discarded."""
        if graph is not None and graph is not self.graph:
            raise ValueError("streaming decoder was built for a different graph")
        if tuple(erasures):
            raise ValueError(
                "micro-blossom streams on fixed edge weights; heralded "
                "erasures need the erasure-aware registry wrapper "
                "(repro.api.erasure)"
            )
        if rounds_hint is not None and rounds_hint > self.graph.num_layers:
            raise ValueError(
                f"rounds_hint {rounds_hint} exceeds the graph's "
                f"{self.graph.num_layers} measurement rounds"
            )
        state = self._open_stream(snapshot_from=0)
        state.last_snapshot = _snapshot(state.accelerator, state.primal)

    def _open_stream(self, snapshot_from: int) -> _StreamState:
        """Acquire reset engines and make them the in-flight stream."""
        accelerator, primal, baseline = self._acquire(self.scale)
        self._stream_state = _StreamState(
            accelerator=accelerator,
            primal=primal,
            baseline=baseline,
            scale=self.scale,
            snapshot_from=snapshot_from,
        )
        return self._stream_state

    def push_round(self, defects: Iterable[int]) -> Counter:
        """Fuse the next measurement round; return the work it cost.

        The round is decoded *now*: its defects are loaded, matchings to the
        receding fusion boundary are broken, and the primal module runs to
        quiescence.  The returned counter delta is the complete cost of the
        round.  An :class:`IntegralityError` is resolved by replaying every
        pushed round at a doubled internal scale, exactly like the batch
        path's retry — so streamed outcomes match batch outcomes even on
        retry-triggering instances.
        """
        state = self._stream_state
        if state is None:
            raise RuntimeError("push_round before begin(); open a stream first")
        origin = self._push(state, defects)
        return counter_delta(origin, state.accelerator.counters, state.primal.counters)

    def _push(self, state: _StreamState, defects: Iterable[int]) -> Counter:
        """Fuse the next round, replaying at a doubled scale when needed.

        Returns the snapshot this push's work is measured from: the start of
        the round, or the start of the replay after a retry.
        """
        layer = len(state.rounds)
        if layer >= self.graph.num_layers:
            raise ValueError(
                f"stream already received all {self.graph.num_layers} rounds"
            )
        defects = tuple(defects)
        for defect in defects:
            if self.graph.vertices[defect].layer != layer:
                raise ValueError(
                    f"defect {defect} belongs to round "
                    f"{self.graph.vertices[defect].layer}, not round {layer}"
                )
        state.rounds.append(defects)
        try:
            self._stream_step(state, layer, defects)
            return state.last_snapshot
        except IntegralityError as error:
            last_error = error
        while state.retries < MAX_SCALE_RETRIES:
            state.retries += 1
            state.scale *= 2
            try:
                return self._stream_replay(state)
            except IntegralityError as error:
                last_error = error
        raise IntegralityError(
            f"stream decoding failed even at dual scale {state.scale}: {last_error}"
        )

    def finalize(self) -> MicroBlossomOutcome:
        """Close the stream and return the outcome of the whole instance.

        Rounds never pushed keep acting as the fusion boundary, so a stream
        closed early decodes the instance "as seen so far".  The outcome's
        ``post_final_round_counters`` cover everything recorded since the
        final pushed round arrived — the quantity that determines decoding
        latency (paper §8.2).
        """
        state = self._stream_state
        if state is None:
            raise RuntimeError("finalize before begin(); open a stream first")
        accelerator, primal = state.accelerator, state.primal
        post_final = counter_delta(
            state.last_snapshot, accelerator.counters, primal.counters
        )
        defects = tuple(sorted(d for round_defects in state.rounds for d in round_defects))
        prematches = accelerator.prematched_pairs()
        result = self._collect_result(Syndrome(defects=defects), primal, prematches)
        counters = counter_delta(state.baseline, accelerator.counters, primal.counters)
        outcome = MicroBlossomOutcome(
            result=result,
            defect_count=len(defects),
            counters=counters,
            post_final_round_counters=post_final,
            hardware_report=MicroBlossomAccelerator.hardware_report_from(counters),
            prematched_pairs=len(prematches),
            stream=True,
            prematching=self.enable_prematching,
        )
        outcome.scale_retries = state.retries
        self._stream_state = None
        return outcome

    def _stream_step(self, state: _StreamState, layer: int, defects: tuple[int, ...]) -> None:
        """Fuse one round into the running solution."""
        accelerator, primal = state.accelerator, state.primal
        if layer >= state.snapshot_from:
            state.last_snapshot = _snapshot(accelerator, primal)
        accelerator.load(defects, layers=(layer,))
        if defects or state.any_defects:
            # Zero-defect fast path: with no defect loaded so far there is no
            # node to re-examine, so an empty round is just a layer load.
            state.any_defects = state.any_defects or bool(defects)
            primal.break_boundary_matches(self.graph.real_vertices_in_layer(layer))
            primal.run()

    def _stream_replay(self, state: _StreamState) -> Counter:
        """Re-run every pushed round at ``state.scale`` on fresh engines.

        Returns the snapshot taken at the start of the replay: the push that
        triggered the retry is charged for all the re-done work, since the
        deltas earlier pushes reported belong to the abandoned engine.
        """
        accelerator, primal, baseline = self._acquire(state.scale)
        state.accelerator = accelerator
        state.primal = primal
        state.baseline = baseline
        state.any_defects = False
        origin = state.last_snapshot = _snapshot(accelerator, primal)
        for layer, defects in enumerate(state.rounds):
            self._stream_step(state, layer, defects)
        return origin

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _acquire(
        self, scale: int
    ) -> tuple[MicroBlossomAccelerator, PrimalModule, Counter]:
        """Return an accelerator/primal pair ready for one decode.

        Engines are cached per dual scale.  For a reused pair the returned
        baseline holds the counters accumulated by previous shots (snapshotted
        *before* the reset, so the reset instruction is accounted to the new
        shot exactly as construction-time reset is for a fresh pair).
        """
        if self.reuse_engines:
            cached = self._engines.get(scale)
            if cached is not None:
                accelerator, primal = cached
                baseline = _snapshot(accelerator, primal)
                accelerator.reset()
                primal.reset()
                return accelerator, primal, baseline
        accelerator = MicroBlossomAccelerator(
            self.graph, scale=scale, enable_prematching=self.enable_prematching
        )
        primal = PrimalModule(self.graph, accelerator)
        if self.reuse_engines:
            self._engines[scale] = (accelerator, primal)
        return accelerator, primal, Counter()

    def _decode_once(self, syndrome: Syndrome, scale: int) -> MicroBlossomOutcome:
        accelerator, primal, baseline = self._acquire(scale)
        accelerator.load(syndrome.defects)
        primal.run()
        post_final = counter_delta(baseline, accelerator.counters, primal.counters)
        prematches = accelerator.prematched_pairs()
        result = self._collect_result(syndrome, primal, prematches)
        counters = counter_delta(baseline, accelerator.counters, primal.counters)
        return MicroBlossomOutcome(
            result=result,
            defect_count=syndrome.defect_count,
            counters=counters,
            post_final_round_counters=post_final,
            hardware_report=MicroBlossomAccelerator.hardware_report_from(counters),
            prematched_pairs=len(prematches),
            stream=False,
            prematching=self.enable_prematching,
        )

    def _collect_result(
        self, syndrome: Syndrome, primal: PrimalModule, prematches: list[PreMatch]
    ) -> MatchingResult:
        result = primal.collect_matching()
        for prematch in prematches:
            if prematch.peer_is_boundary:
                result.pairs.append((prematch.defect, BOUNDARY))
                result.boundary_vertices[prematch.defect] = prematch.peer
            else:
                result.pairs.append((prematch.defect, prematch.peer))
        result.weight = matching_weight(self.graph, result)
        result.validate_perfect(syndrome.defects)
        return result
