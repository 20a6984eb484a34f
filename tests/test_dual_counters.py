"""Pinned per-shot hardware counters of the cover-based dual phase.

The timing models read the dual phase's operation counters
(``edges_scanned``, ``cover_cells_updated``, bus words, …), and Parity
Blossom's ``serial_dual_work`` is built from them.  Any change to how the
simulator evaluates the vPU/ePU rules must leave every count of every shot
bit-identical, together with the matching itself.  Each digest below hashes,
for a fixed seeded pool, every shot's counters, pairs and weight (or the
error a known-defective streamed decode raises).
"""

from __future__ import annotations

import pytest

from repro.api import content_hash
from repro.core import MicroBlossomDecoder
from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
from repro.parity import ParityBlossomDecoder


def _shot_record(decoder, syndrome) -> dict:
    try:
        outcome = decoder.decode_detailed(syndrome)
    except Exception as error:  # a known streamed-decoder defect, pinned as is
        return {"defects": list(syndrome.defects), "error": type(error).__name__}
    record = {
        "defects": list(syndrome.defects),
        "counters": dict(sorted(outcome.counters.items())),
        "pairs": [list(pair) for pair in outcome.result.pairs],
        "weight": outcome.result.weight,
    }
    post_final = getattr(outcome, "post_final_round_counters", None)
    if post_final is not None:
        record["post_final"] = dict(sorted(post_final.items()))
    return record


def _pool_digest(decoder, graph, seed: int, shots: int) -> str:
    pool = SyndromeSampler(graph, seed=seed).sample_batch(shots)
    return content_hash([_shot_record(decoder, syndrome) for syndrome in pool])


_DECODERS = {
    "stream": lambda graph: MicroBlossomDecoder(graph, stream=True),
    "batch": MicroBlossomDecoder,
    "batch-no-prematch": lambda graph: MicroBlossomDecoder(graph, enable_prematching=False),
    "parity": ParityBlossomDecoder,
}

#: name -> (distance, p, decoder, shots, pinned digest).
_POOLS = {
    "micro-blossom-stream-d7": (7, 0.005, "stream", 150, "9a4928e9c912876a"),
    "micro-blossom-stream-d9": (9, 0.001, "stream", 150, "eef53605d6cf9db2"),
    "micro-blossom-batch-prematch-d5": (5, 0.005, "batch", 300, "535ab74aa556de70"),
    "micro-blossom-batch-noprematch-d5": (5, 0.005, "batch-no-prematch", 300, "f0bec347b23cfce6"),
    "parity-blossom-d5": (5, 0.005, "parity", 300, "809137de1380d278"),
}


@pytest.mark.parametrize("name", sorted(_POOLS))
def test_per_shot_counters_are_pinned(name):
    distance, p, decoder, shots, pinned = _POOLS[name]
    graph = surface_code_decoding_graph(distance, circuit_level_noise(p))
    assert _pool_digest(_DECODERS[decoder](graph), graph, seed=2024, shots=shots) == pinned
