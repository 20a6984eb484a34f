"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs import (
    GraphBuilder,
    SyndromeSampler,
    circuit_level_noise,
    code_capacity_noise,
    phenomenological_noise,
    repetition_code_decoding_graph,
    surface_code_decoding_graph,
)


@pytest.fixture(scope="session")
def surface_d3_circuit():
    """Distance-3 rotated surface code under circuit-level noise."""
    return surface_code_decoding_graph(3, circuit_level_noise(0.01))


@pytest.fixture(scope="session")
def surface_d5_circuit():
    """Distance-5 rotated surface code under circuit-level noise."""
    return surface_code_decoding_graph(5, circuit_level_noise(0.005))


@pytest.fixture(scope="session")
def surface_d5_code_capacity():
    """Distance-5 rotated surface code under code-capacity noise (2D graph)."""
    return surface_code_decoding_graph(5, code_capacity_noise(0.05))


@pytest.fixture(scope="session")
def repetition_d5_phenomenological():
    """Distance-5 repetition code under phenomenological noise."""
    return repetition_code_decoding_graph(5, phenomenological_noise(0.02))


@pytest.fixture()
def sampler_d3(surface_d3_circuit):
    return SyndromeSampler(surface_d3_circuit, seed=1234)


@pytest.fixture()
def path_graph_builder():
    """A tiny hand-built path graph: virtual - a - b - c - virtual.

    Useful for unit tests of the dual phase where every weight and distance
    must be known exactly.  All edges use probability 0.1 against a reference
    of 0.1, so every quantised weight is the maximum (14) and the internal
    doubled weight is 28.
    """

    def build(weights=None):
        builder = GraphBuilder()
        left = builder.add_vertex(0, 0, -1, is_virtual=True)
        a = builder.add_vertex(0, 0, 0)
        b = builder.add_vertex(0, 0, 1)
        c = builder.add_vertex(0, 0, 2)
        right = builder.add_vertex(0, 0, 3, is_virtual=True)
        builder.add_edge(left, a, 0.1, 0.1, observable=True, kind="boundary")
        builder.add_edge(a, b, 0.1, 0.1, kind="spatial")
        builder.add_edge(b, c, 0.1, 0.1, kind="spatial")
        builder.add_edge(c, right, 0.1, 0.1, kind="boundary")
        return builder.build()

    return build


@pytest.fixture(scope="session")
def filled_service_bench():
    """A valid BENCH_service document with every nullable block filled.

    The primary run is faulted and cached; the document also carries the
    cache off/on comparison, a hostile-mix entry, a saturation ladder with a
    process-scaling series, and the wire block with its codec comparison
    (one single-process loopback server per network measurement).
    """
    from repro.evaluation import ServiceLoadEngine
    from repro.service import (
        FaultPlan,
        Scenario,
        ServiceConfig,
        TraceSpec,
        cache_comparison_entry,
        hostile_mix_entry,
        saturation_entry,
        service_bench_document,
        wire_entry,
    )
    from repro.service.net.bench import replay_network, scaling_entry, wire_comparison

    trace = TraceSpec(
        "filled",
        (
            Scenario(3, physical_error_rate=0.02, decoder="union-find"),
            Scenario(3, physical_error_rate=0.03, decoder="micro-blossom"),
        ),
        requests=16,
        seed=5,
    )
    plan = FaultPlan(name="filled", seed=3, poison_rate=0.2)
    config = ServiceConfig(workers=1, max_wait_seconds=0.001, fault_plan=plan)
    off = ServiceLoadEngine(trace, config=config, repeats=2).run()
    engine = ServiceLoadEngine(trace, config=config.replace(outcome_cache_bytes=1 << 20), repeats=2)
    on = engine.run(verify_identity=True)
    network = replay_network(trace, processes=1)
    scaling = scaling_entry([1], {1: network})
    return service_bench_document(
        trace,
        on,
        commit="abc",
        timestamp="t",
        cache_comparison=cache_comparison_entry(off, on),
        fault_plan=plan,
        hostile_mix=[hostile_mix_entry("filled", trace, plan, on)],
        saturation=saturation_entry(engine.saturate(client_ladder=(1, 2)), scaling=scaling),
        wire=wire_entry(network.wire, wire_comparison(trace, processes=1, repeats=1)),
    )
