"""Differential tests: the frontier-evaluated dual phase against the oracle.

Every instruction the primal module issues runs on both the production dual
phase and the whole-graph oracle of :mod:`dual_oracle`; responses, counter
deltas and pre-matches must agree after each one.  Syndromes come from
seeded samplers (sparse, realistic) and from seeded uniform defect sets
(dense: many conflicts, blossoms, shrinking and expansions).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from dual_oracle import (
    FullScanAccelerator,
    FullScanSerialDual,
    Lockstep,
    full_covers,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MicroBlossomAccelerator, PrimalModule
from repro.core.interface import DualPhaseError
from repro.graphs import (
    Syndrome,
    SyndromeSampler,
    circuit_level_noise,
    erasure_noise,
    surface_code_decoding_graph,
)
from repro.parity import SerialDualPhase

_D3 = surface_code_decoding_graph(3, circuit_level_noise(0.02))
_D5 = surface_code_decoding_graph(5, circuit_level_noise(0.01))


def _syndromes(graph, seed: int, sampled: int, dense: int) -> list[Syndrome]:
    """Sampled shots plus uniform random defect sets of 2..12 real vertices."""
    pool = [s for s in SyndromeSampler(graph, seed=seed).sample_batch(sampled) if s.defects]
    real = [v for v in range(graph.num_vertices) if not graph.is_virtual(v)]
    rng = random.Random(seed)
    for _ in range(dense):
        pool.append(Syndrome(tuple(sorted(rng.sample(real, rng.randint(2, 12))))))
    return pool


def _decode(graph, dual, primal, syndrome, layered: bool, serial: bool = False) -> bool:
    """One decode through ``dual``; False if it raised a dual-phase error."""
    dual.reset()
    primal.reset()
    try:
        if not layered:
            dual.load(syndrome.defects)
            if serial:
                for defect in syndrome.defects:
                    primal.register_defect(defect)
            primal.run()
        else:
            any_defects = False
            for layer, defects in enumerate(syndrome.defects_by_layer(graph)):
                dual.load(defects, layers={layer})
                if defects or any_defects:
                    any_defects = True
                    real = {v for v in graph.vertices_in_layer(layer) if not graph.is_virtual(v)}
                    primal.break_boundary_matches(real)
                    primal.run()
        if not serial:
            dual.prematched_pairs()
    except DualPhaseError:
        return False
    return True


def _lockstep_pool(graph, syndromes, *, prematching=True, layered=False, probe=False):
    dual = MicroBlossomAccelerator(graph, enable_prematching=prematching)
    oracle = FullScanAccelerator(graph, enable_prematching=prematching)
    lockstep = Lockstep(dual, oracle, probe_prematches=probe)
    primal = PrimalModule(graph, lockstep)
    completed = sum(_decode(graph, lockstep, primal, s, layered) for s in syndromes)
    return dual.counters, completed


@pytest.mark.parametrize(
    "prematching, layered, probe",
    [(True, False, False), (False, False, False), (True, True, False), (True, True, True)],
    ids=["batch", "batch-no-prematch", "layers", "layers-probe-every-instruction"],
)
def test_accelerator_agrees_with_oracle_after_every_instruction(prematching, layered, probe):
    syndromes = _syndromes(_D5, seed=13, sampled=60, dense=25)
    counters, completed = _lockstep_pool(
        _D5, syndromes, prematching=prematching, layered=layered, probe=probe
    )
    assert completed >= len(syndromes) - 3
    # The pool must exercise the rules being compared.
    assert counters["conflicts_reported"] > 100
    assert counters["instr_set_cover"] > 0
    assert (counters["prematched_defects"] > 0) == prematching


def test_serial_dual_phase_agrees_with_oracle():
    graph = _D5
    dual, oracle = SerialDualPhase(graph), FullScanSerialDual(graph)
    lockstep = Lockstep(dual, oracle)
    primal = PrimalModule(graph, lockstep)
    syndromes = _syndromes(graph, seed=29, sampled=40, dense=20)
    for syndrome in syndromes:
        assert _decode(graph, lockstep, primal, syndrome, layered=False, serial=True)
    assert dual.counters["serial_dual_work"] > 0
    assert dual.counters["instr_set_cover"] > 0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    defects=st.sets(
        st.sampled_from([v for v in range(_D3.num_vertices) if not _D3.is_virtual(v)]),
        min_size=1,
        max_size=10,
    ),
    layered=st.booleans(),
)
def test_random_defect_sets_agree_with_oracle(defects, layered):
    _lockstep_pool(_D3, [Syndrome(tuple(sorted(defects)))], layered=layered)


class _CoverChecked(MicroBlossomAccelerator):
    """Checks the settled Cover contents against a whole-graph sweep."""

    checks = 0

    def _ensure_covers(self):
        stale = self._stale
        before = self.counters["cover_cells_updated"]
        covers = super()._ensure_covers()
        expected, cells = full_covers(self)
        # Dict equality ignores each vertex's cell order, which on zero-weight
        # edges differs from the sweep's by design.
        assert covers == expected
        assert self.counters["cover_cells_updated"] - before == (cells if stale else 0)
        type(self).checks += 1
        return covers


@pytest.mark.parametrize("layered", [False, True], ids=["batch", "layers"])
def test_erasure_variants_settle_the_oracle_cover_contents(layered):
    graph = surface_code_decoding_graph(5, erasure_noise(0.02))
    syndromes = [s for s in SyndromeSampler(graph, seed=3).sample_batch(120) if s.erasures]
    zero_weight_variants = 0
    _CoverChecked.checks = 0
    for syndrome in syndromes[:40]:
        variant = graph.with_erasures(syndrome.erasures)
        zero_weight_variants += any(edge.weight == 0 for edge in variant.edges)
        dual = _CoverChecked(variant)
        _decode(variant, dual, PrimalModule(variant, dual), syndrome, layered)
    assert zero_weight_variants > 20
    assert _CoverChecked.checks > 100


def test_reset_engine_reports_fresh_engine_counters():
    """A reused (reset) accelerator reports the same per-shot deltas as a
    fresh one, including the ``prematched_defects`` high-water mark."""
    syndromes = _syndromes(_D5, seed=5, sampled=30, dense=10)
    reused = MicroBlossomAccelerator(_D5)
    primal = PrimalModule(_D5, reused)
    for syndrome in syndromes:
        before = Counter(reused.counters)
        _decode(_D5, reused, primal, syndrome, layered=False)
        fresh = MicroBlossomAccelerator(_D5)
        _decode(_D5, fresh, PrimalModule(_D5, fresh), syndrome, layered=False)
        delta = Counter(reused.counters)
        delta.subtract(before)
        expected = Counter(fresh.counters)
        expected.subtract(Counter({"instr_reset": 1, "bus_words": 1}))  # construction reset
        assert +delta == +expected
