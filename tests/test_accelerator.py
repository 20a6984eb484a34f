"""Tests for the accelerator model: pre-matching, fusion loading, bus counters."""

from __future__ import annotations

import pytest

import repro.core.accelerator as accelerator_module
from repro.core import (
    Conflict,
    Finished,
    GrowLength,
    MicroBlossomAccelerator,
    MicroBlossomDecoder,
    PrimalModule,
)
from repro.core.instructions import Opcode, decode_instruction
from repro.graphs import (
    GraphBuilder,
    SyndromeSampler,
    circuit_level_noise,
    surface_code_decoding_graph,
)


def run_until_finished(accelerator, primal):
    primal.run()
    return primal.collect_matching()


class TestPreMatchingRegularEdge:
    def test_isolated_pair_never_reaches_cpu(self, path_graph_builder):
        """Equation 1: an isolated error produces no CPU interaction at all."""
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=True)
        accelerator.load([2, 3])
        primal = PrimalModule(graph, accelerator)
        primal.run()
        # The defect pair is handled entirely in hardware.
        assert accelerator.counters["conflicts_reported"] == 0
        assert primal.counters["nodes_discovered"] == 0
        pairs = accelerator.prematched_pairs()
        assert len(pairs) == 1
        assert {pairs[0].defect, pairs[0].peer} == {2, 3}
        assert not pairs[0].peer_is_boundary

    def test_prematching_disabled_reports_conflicts(self, path_graph_builder):
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=False)
        accelerator.load([2, 3])
        primal = PrimalModule(graph, accelerator)
        primal.run()
        assert accelerator.counters["conflicts_reported"] >= 1
        assert accelerator.prematched_pairs() == []
        assert primal.counters["nodes_discovered"] == 2

    def test_boundary_prematch(self, path_graph_builder):
        """Equations 2/3: an isolated error next to the boundary."""
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=True)
        accelerator.load([1])
        primal = PrimalModule(graph, accelerator)
        primal.run()
        pairs = accelerator.prematched_pairs()
        assert accelerator.counters["conflicts_reported"] == 0
        assert len(pairs) == 1
        assert pairs[0].defect == 1
        assert pairs[0].peer_is_boundary

    def test_disturbed_prematch_is_escalated_to_cpu(self):
        """A third Cover breaking an isolated Conflict hands it to software."""
        builder = GraphBuilder()
        vertices = [builder.add_vertex(0, 0, i) for i in range(5)]
        virtual = builder.add_vertex(0, 0, 5, is_virtual=True)
        for left, right in zip(vertices, vertices[1:]):
            builder.add_edge(left, right, 0.1, 0.1)
        builder.add_edge(vertices[4], virtual, 0.1, 0.1)
        graph = builder.build()
        # Three defects in a row: the middle pair may pre-match transiently,
        # but the third defect disturbs it, so the CPU must resolve the chain.
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=True)
        accelerator.load([0, 1, 2])
        primal = PrimalModule(graph, accelerator)
        primal.run()
        result = primal.collect_matching()
        for prematch in accelerator.prematched_pairs():
            if prematch.peer_is_boundary:
                result.pairs.append((prematch.defect, -1))
            else:
                result.pairs.append((prematch.defect, prematch.peer))
        result.validate_perfect([0, 1, 2])


class TestEffectiveDirections:
    def test_prematched_nodes_stop_growing(self, path_graph_builder):
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=True)
        accelerator.load([2, 3])
        # Drive the dual phase manually until it reports completion.
        for _ in range(20):
            obstacle = accelerator.find_obstacle()
            if isinstance(obstacle, Finished):
                break
            assert isinstance(obstacle, GrowLength)
            accelerator.grow(obstacle.length)
        else:
            pytest.fail("accelerator never finished")
        radius_2 = accelerator.radius_of(2)
        radius_3 = accelerator.radius_of(3)
        weight = graph.edges[0].weight * accelerator.scale
        assert radius_2 + radius_3 == weight

    def test_no_conflict_between_two_prematched_nodes(self, path_graph_builder):
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=True)
        accelerator.load([2, 3])
        obstacle = accelerator.find_obstacle()
        while isinstance(obstacle, GrowLength):
            accelerator.grow(obstacle.length)
            obstacle = accelerator.find_obstacle()
        assert isinstance(obstacle, Finished)
        assert not isinstance(obstacle, Conflict)


class TestBusAccounting:
    def test_bus_words_counted(self, path_graph_builder):
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph)
        baseline = accelerator.counters["bus_words"]
        accelerator.load([1])
        accelerator.find_obstacle()
        accelerator.grow(3)
        accelerator.set_direction(1, 0)
        assert accelerator.counters["bus_words"] >= baseline + 4

    def test_hardware_report_keys(self, path_graph_builder):
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph)
        accelerator.load([1])
        accelerator.find_obstacle()
        report = accelerator.hardware_report()
        for key in (
            "bus_words",
            "response_reads",
            "grow_instructions",
            "find_obstacle_instructions",
            "conflicts_reported",
            "defects_loaded",
        ):
            assert key in report
        assert report["defects_loaded"] == 1
        assert report["find_obstacle_instructions"] == 1

    def test_create_and_expand_blossom_count_cover_words(self, path_graph_builder):
        graph = path_graph_builder()
        accelerator = MicroBlossomAccelerator(graph)
        accelerator.load([1, 2, 3])
        before = accelerator.counters["bus_words"]
        blossom = graph.num_vertices
        accelerator.create_blossom([1, 2, 3], blossom)
        accelerator.expand_blossom(blossom, {1: 1, 2: 2, 3: 3})
        assert accelerator.counters["bus_words"] == before + 6

    def test_load_words_encode_the_loaded_layer_ids(self, monkeypatch):
        """A streamed decode issues one load word per round, carrying the
        round's layer id; a batch load issues a single word."""
        graph = surface_code_decoding_graph(3, circuit_level_noise(0.02))
        syndrome = next(s for s in SyndromeSampler(graph, seed=2).sample_batch(32) if s.defects)
        words = []
        original = accelerator_module.load_defects_word

        def record(layer):
            words.append(original(layer))
            return words[-1]

        monkeypatch.setattr(accelerator_module, "load_defects_word", record)
        streamed = MicroBlossomDecoder(graph, stream=True).decode_detailed(syndrome)
        instructions = [decode_instruction(word) for word in words]
        assert {instruction.opcode for instruction in instructions} == {Opcode.LOAD_DEFECTS}
        assert [instruction.payload for instruction in instructions] == list(
            range(graph.num_layers)
        )
        assert graph.num_layers > 1
        words.clear()
        batch = MicroBlossomDecoder(graph).decode_detailed(syndrome)
        assert [decode_instruction(word).payload for word in words] == [0]
        # one bus word per load instruction, as before
        assert streamed.counters["instr_load"] == graph.num_layers
        assert batch.counters["instr_load"] == 1
