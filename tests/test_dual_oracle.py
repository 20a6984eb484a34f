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
from repro.core.interface import DualPhaseError, Finished
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
#: The streamed benchmark regime (paper scale): d=9, p=0.001.
_D9 = surface_code_decoding_graph(9, circuit_level_noise(0.001))


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


def test_layered_accelerator_agrees_with_oracle_at_benchmark_scale():
    dense = 20
    syndromes = _syndromes(_D9, seed=101, sampled=64, dense=dense)
    assert len(syndromes) - dense >= 40  # non-trivial sampled shots
    counters, completed = _lockstep_pool(_D9, syndromes, layered=True)
    assert completed >= len(syndromes) - 3
    assert counters["conflicts_reported"] > 150
    assert counters["instr_set_cover"] > 0
    assert counters["prematched_defects"] > 0


def test_reset_after_a_failed_stream_leaves_no_stale_state():
    """A shot that fails mid-stream leaves Cover-root balls and cleared
    boundary flags behind; after ``reset`` the reused engine must report
    exactly what a fresh one does."""
    reused = MicroBlossomAccelerator(_D9)
    primal = PrimalModule(_D9, reused)
    # A known streamed defect (tests/test_stream_fusion.py): DualPhaseError.
    assert not _decode(_D9, reused, primal, Syndrome((1, 4, 17, 18, 48)), layered=True)
    assert reused._balls
    assert 0 < sum(reused._boundary_live) < _D9.num_vertices
    # A reset engine scans exactly the covered edges of a fresh one.
    oracle = FullScanAccelerator(_D9)
    lockstep = Lockstep(reused, oracle)
    lockstep.reset()
    assert lockstep.find_obstacle() == Finished()
    for syndrome in _syndromes(_D9, seed=7, sampled=24, dense=6):
        before = Counter(reused.counters)
        completed = _decode(_D9, reused, primal, syndrome, layered=True)
        fresh = MicroBlossomAccelerator(_D9)
        assert _decode(_D9, fresh, PrimalModule(_D9, fresh), syndrome, layered=True) == completed
        delta = Counter(reused.counters)
        delta.subtract(before)
        expected = Counter(fresh.counters)
        expected.subtract(Counter({"instr_reset": 1, "bus_words": 1}))  # construction reset
        assert +delta == +expected


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


def _merged_covers(dual) -> list[dict[int, tuple[int, int]]]:
    """Per-vertex view: the Cover-root cells plus the live boundary cells."""
    return [
        {**dual._covers[vertex], **dict(dual._boundary_cells_at(vertex))}
        for vertex in range(dual.graph.num_vertices)
    ]


class _CoverChecked(MicroBlossomAccelerator):
    """Checks the settled Cover contents against a whole-graph sweep."""

    checks = 0

    def _ensure_covers(self):
        stale = self._stale
        before = self.counters["cover_cells_updated"]
        super()._ensure_covers()
        covers = _merged_covers(self)
        expected, cells = full_covers(self)
        # Dict equality ignores each vertex's cell order, which on zero-weight
        # edges differs from the sweep's by design.
        assert covers == expected
        assert self.counters["cover_cells_updated"] - before == (cells if stale else 0)
        assert self._residue == [
            max((value for value, _ in cover.values()), default=0) for cover in expected
        ]
        type(self).checks += 1


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


@pytest.mark.parametrize("layered", [False, True], ids=["batch", "layers"])
def test_dense_shots_settle_the_oracle_cover_contents_and_residues(layered):
    _CoverChecked.checks = 0
    dual = _CoverChecked(_D5)
    primal = PrimalModule(_D5, dual)
    for syndrome in _syndromes(_D5, seed=17, sampled=0, dense=40):
        _decode(_D5, dual, primal, syndrome, layered)
    assert dual.counters["instr_set_cover"] > 0
    assert _CoverChecked.checks > 200


def test_residue_is_recomputed_when_its_maximum_cell_shrinks(path_graph_builder):
    """Residue of a vertex two Covers overlap on follows the larger one down."""
    graph = path_graph_builder()
    dual = _CoverChecked(graph)
    dual.load([1, 2])
    weight = dual._edge_weight[1]
    dual.grow(weight)  # past the Conflict: each Cover reaches the other defect
    dual._ensure_covers()
    assert dual._covers[1] == {1: (weight, 1), 2: (0, 2)}
    dual.set_direction(1, -1)
    dual.set_direction(2, 0)  # only Cover 1 is regrown
    dual.grow(10)
    dual._ensure_covers()
    assert dual._covers[1] == {1: (weight - 10, 1), 2: (0, 2)}
    assert dual._residue[1] == weight - 10


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
