"""Whole-graph reference oracle for the frontier-evaluated dual phase.

The dual phase evaluates the vPU/ePU rules only around moving Covers and
charges the hardware work counters arithmetically.  This module keeps the
straightforward whole-graph evaluation those shortcuts must agree with:

* :func:`full_covers` — one multi-source Dijkstra sweep from every Cover source
  (loaded defects, virtual vertices and not-yet-loaded vertices), yielding the
  per-vertex state with each vertex's cells in sweep order;
* :func:`scan_conflicts` — every ePU, then every vPU, in index order;
* :func:`max_grow_length` — every ePU and vPU;
* :func:`compute_prematches` — Equations 1–3 over every tight edge.

:class:`FullScanAccelerator` and :class:`FullScanSerialDual` plug these into
the production instruction set, and :class:`Lockstep` drives a production
dual phase and an oracle with the same instruction stream, asserting after
every instruction that responses, counter deltas and pre-matches agree.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.core import MicroBlossomAccelerator, PreMatch
from repro.core.interface import HOLD, Conflict, DualPhaseError
from repro.parity import SerialDualPhase


def full_covers(dual) -> tuple[list[dict[int, tuple[int, int]]], int]:
    """Per-vertex ``{node: (residual, touch)}`` and the number of cells set."""
    graph = dual.graph
    covers: list[dict[int, tuple[int, int]]] = [{} for _ in range(graph.num_vertices)]
    heap: list[tuple[int, int, int, int]] = []
    for vertex in range(graph.num_vertices):
        if not dual.loaded[vertex] or graph.is_virtual(vertex):
            heap.append((0, vertex, vertex, vertex))
        elif dual.is_defect[vertex]:
            root, radius = dual.defect_root[vertex], dual.defect_radius[vertex]
            heap.append((-radius, vertex, root, vertex))
    heapq.heapify(heap)
    cells = 0
    while heap:
        negative_value, vertex, root, touch = heapq.heappop(heap)
        value = -negative_value
        existing = covers[vertex].get(root)
        if existing is not None and existing[0] >= value:
            continue
        covers[vertex][root] = (value, touch)
        cells += 1
        for edge_index, neighbor in graph.adjacency[vertex]:
            next_value = value - dual._edge_weight[edge_index]
            if next_value < 0:
                continue
            current = covers[neighbor].get(root)
            if current is not None and current[0] >= next_value:
                continue
            heapq.heappush(heap, (-next_value, neighbor, root, touch))
    return covers, cells


def scan_conflicts(dual, covers, directions) -> tuple[Conflict | None, int]:
    """First Conflict in ePU-then-vPU index order, and the edges scanned."""
    scanned = 0
    for edge in dual.graph.edges:
        cover_u, cover_v = covers[edge.u], covers[edge.v]
        if not cover_u or not cover_v:
            continue
        weight = dual._edge_weight[edge.index]
        scanned += 1
        for node_u, (residual_u, touch_u) in cover_u.items():
            direction_u = directions.get(node_u, HOLD)
            for node_v, (residual_v, touch_v) in cover_v.items():
                if node_u == node_v:
                    continue
                if direction_u + directions.get(node_v, HOLD) <= 0:
                    continue
                if residual_u + residual_v >= weight:
                    conflict = dual._make_conflict(node_u, node_v, touch_u, touch_v, edge.u, edge.v)
                    return conflict, scanned
    for vertex, cover in enumerate(covers):
        items = list(cover.items())
        for i, (node_a, (_residual_a, touch_a)) in enumerate(items):
            direction_a = directions.get(node_a, HOLD)
            for node_b, (_residual_b, touch_b) in items[i + 1 :]:
                if direction_a + directions.get(node_b, HOLD) > 0:
                    conflict = dual._make_conflict(node_a, node_b, touch_a, touch_b, vertex, vertex)
                    return conflict, scanned
    return None, scanned


def max_grow_length(dual, covers, directions) -> int | None:
    """Minimum of the Length-to-Grow terms over every ePU and vPU."""
    candidates = []
    for edge in dual.graph.edges:
        weight = dual._edge_weight[edge.index]
        cover_u, cover_v = covers[edge.u], covers[edge.v]
        for node_u, (residual_u, _) in cover_u.items():
            for node_v, (residual_v, _) in cover_v.items():
                rate = directions.get(node_u, HOLD) + directions.get(node_v, HOLD)
                if node_u != node_v and rate > 0:
                    candidates.append((weight - residual_u - residual_v) // rate)
        for cover_here, cover_there in ((cover_u, cover_v), (cover_v, cover_u)):
            for node, (residual, _) in cover_here.items():
                direction = directions.get(node, HOLD)
                if direction > 0 and node not in cover_there:
                    candidates.append((weight - residual) // direction)
    for cover in covers:
        for node, (residual, _) in cover.items():
            if directions.get(node, HOLD) < 0 and residual > 0:
                candidates.append(residual)
    return min(candidates, default=None)


def compute_prematches(acc, covers) -> tuple[dict[int, PreMatch], int]:
    """Equations 1–3 over every tight edge; also the number of claimed defects."""
    graph = acc.graph
    residue = [max((value for value, _ in cover.values()), default=0) for cover in covers]
    tight = [
        residue[edge.u] + residue[edge.v] >= acc._edge_weight[edge.index] for edge in graph.edges
    ]
    tight_count = [0] * graph.num_vertices
    for edge in graph.edges:
        if tight[edge.index]:
            tight_count[edge.u] += 1
            tight_count[edge.v] += 1
    prematches: dict[int, PreMatch] = {}
    claimed: set[int] = set()
    for edge in graph.edges:
        if not tight[edge.index] or edge.u in claimed or edge.v in claimed:
            continue
        u, v = edge.u, edge.v
        if (
            acc._prematch_eligible(u)
            and acc._prematch_eligible(v)
            and tight_count[u] == 1
            and tight_count[v] == 1
        ):
            prematches[u] = prematches[v] = PreMatch(u, v, edge.index, False)
            claimed.update((u, v))
            continue
        for defect, boundary in ((u, v), (v, u)):
            if not acc.is_boundary_node(boundary) or not acc._prematch_eligible(defect):
                continue
            if any(
                tight[other]
                and other != edge.index
                and not acc.is_boundary_node(neighbor)
                and (acc.is_defect[neighbor] or tight_count[neighbor] > 1)
                for other, neighbor in graph.adjacency[defect]
            ):
                continue
            prematches[defect] = PreMatch(defect, boundary, edge.index, True)
            claimed.add(defect)
            break
    return prematches, len(claimed)


class _FullScan:
    """Evaluation hooks of the dual phase replaced by the whole-graph oracle."""

    def _ensure_covers(self):
        if self._stale:
            self._full, cells = full_covers(self)
            self.counters["cover_cells_updated"] += cells
            self._stale = False
        return self._full

    def _scan_conflicts(self, directions):
        conflict, scanned = scan_conflicts(self, self._full, directions)
        self.counters["edges_scanned"] += scanned
        return conflict

    def _max_grow_length(self, directions):
        self.counters["edges_scanned"] += self.graph.num_edges
        return max_grow_length(self, self._full, directions)

    def _compute_prematches(self):
        prematches, claimed = compute_prematches(self, self._ensure_covers())
        if prematches:
            self.counters["prematched_defects"] = max(
                self.counters.get("prematched_defects", 0),
                self._prematched_floor + claimed,
            )
        return prematches


class FullScanAccelerator(_FullScan, MicroBlossomAccelerator):
    """The Micro Blossom accelerator evaluated by whole-graph scans."""


class FullScanSerialDual(_FullScan, SerialDualPhase):
    """Parity Blossom's serial dual phase evaluated by whole-graph scans."""


def _delta(before: Counter, after: Counter) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


class Lockstep:
    """A dual driver that runs every instruction on two dual phases.

    Responses (or raised errors), counter deltas and — with pre-matching —
    ``prematched_pairs()`` are compared after each instruction;
    ``probe_prematches`` compares the pre-matches after every instruction
    rather than only after ``find_obstacle``.
    """

    def __init__(self, dual, oracle, probe_prematches: bool = False) -> None:
        self.dual, self.oracle = dual, oracle
        self.probe_prematches = probe_prematches
        self.instructions = 0

    def __getattr__(self, name):
        return getattr(self.dual, name)

    def _both(self, name, *args):
        self.instructions += 1
        before = [Counter(d.counters) for d in (self.dual, self.oracle)]
        results = []
        for engine in (self.dual, self.oracle):
            try:
                results.append((getattr(engine, name)(*args), None))
            except DualPhaseError as error:
                results.append((None, error))
        (value, error), (oracle_value, oracle_error) = results
        assert (value, repr(error)) == (oracle_value, repr(oracle_error)), name
        assert _delta(before[0], self.dual.counters) == _delta(
            before[1], self.oracle.counters
        ), name
        if isinstance(self.dual, MicroBlossomAccelerator) and (
            self.probe_prematches or name == "find_obstacle"
        ):
            assert self.dual.prematched_pairs() == self.oracle.prematched_pairs(), name
        if error is not None:
            raise error
        return value

    def reset(self):
        return self._both("reset")

    def load(self, defects, layers=None):
        return self._both("load", tuple(defects), None if layers is None else tuple(layers))

    def set_direction(self, node, direction):
        return self._both("set_direction", node, direction)

    def create_blossom(self, children, blossom_id):
        return self._both("create_blossom", list(children), blossom_id)

    def expand_blossom(self, blossom_id, new_roots):
        return self._both("expand_blossom", blossom_id, dict(new_roots))

    def grow(self, length):
        return self._both("grow", length)

    def find_obstacle(self):
        return self._both("find_obstacle")

    def prematched_pairs(self):
        return self._both("prematched_pairs")
