"""Dual-phase engine on the decoding graph (Parity-Blossom style Covers).

This module implements the dual phase of the blossom algorithm exactly in the
form accelerated by Micro Blossom (paper §4): every node ``S`` of the blossom
algorithm owns a *Cover* — the union of balls centred at its defect vertices
with radii equal to the accumulated dual variables — and the dual phase
repeatedly answers one question: *can the Covers keep growing, and if not,
which two nodes collided?*

The paper distributes the Covers over per-vertex state (Residue ``r_v``,
Touches ``T_v``, Nodes ``N_v``, Table 2) so that one processing unit per vertex
and per edge can maintain them with local rules (Table 1).  This class keeps
the same per-vertex state and produces the same responses, but evaluates only
the PUs whose answer can change (see docs/architecture.md, "Simulating the
PUs"): each Cover root caches its own ball and regrows it only when its
sources change, and the Conflict and Length-to-Grow rules run only around
moving (non-HOLD) Covers.  Each vertex's Residue (its largest residual) is
kept up to date where cells are written or removed.  The fusion boundary is
implicit: every vertex owns a fixed boundary ball, and one flag per boundary
root says whether it is live (virtual, or in a round not loaded yet).  The
work counters keep their whole-graph meaning and are charged arithmetically.

Dual variables are tracked per *defect vertex* as the accumulated cover radius
``R(u) = sum of y over the nodes containing u`` — precisely the quantity each
vPU can maintain locally because every ``grow`` instruction changes it by
``l * direction(Root(u))``.

Integer arithmetic: decoding-graph weights are even integers; the blossom
algorithm may nevertheless require half-integral dual updates.  The engine
therefore works in internal units of ``1 / scale`` weight units (``scale = 2``
by default).  In the rare event that an even finer step would be required, an
:class:`IntegralityError` is raised and the decoder retries with a doubled
scale (see :class:`repro.core.decoder.MicroBlossomDecoder`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from ..graphs.decoding_graph import DecodingGraph
from .interface import (
    Conflict,
    DualPhaseError,
    Finished,
    GrowLength,
    GROW,
    HOLD,
    IntegralityError,
    Obstacle,
)

#: Default internal dual scale (half-weight units), sufficient for the
#: half-integral dual updates of the blossom algorithm on integer weights.
DEFAULT_DUAL_SCALE = 2

#: One vertex's Cover cells ``{root: (residual, touch_vertex)}``.
Cover = dict[int, tuple[int, int]]


def _canonical(cells: list[tuple[int, tuple[int, int]]]) -> list[tuple[int, tuple[int, int]]]:
    """Cover cells in the order the PUs report them: ``(-residual, root)``."""
    return sorted(cells, key=lambda item: (-item[1][0], item[0]))


class DualGraphState:
    """Cover-based dual phase of the blossom algorithm on a decoding graph.

    The class exposes the accelerator's instruction-set level interface
    (:class:`repro.core.interface.DualDriver`); the Micro Blossom accelerator
    and the Parity Blossom software baseline both build on it.
    """

    def __init__(self, graph: DecodingGraph, scale: int = DEFAULT_DUAL_SCALE) -> None:
        if scale < 1:
            raise ValueError("dual scale must be >= 1")
        self.graph = graph
        self.scale = scale
        self._edge_weight = [edge.weight * scale for edge in graph.edges]
        self._virtual = [vertex.is_virtual for vertex in graph.vertices]
        self._edge_u = np.array([edge.u for edge in graph.edges], dtype=np.intp)
        self._edge_v = np.array([edge.v for edge in graph.edges], dtype=np.intp)
        n = graph.num_vertices
        # Every vertex is a boundary root of radius 0 until its round is
        # loaded (virtual vertices for ever).  Its ball only reaches along
        # zero-weight (erased) edges, so the balls are a fixed per-graph
        # template, stored per vertex, and every boundary cell has residual 0;
        # ``_boundary_live`` marks the live roots.
        if 0 in self._edge_weight:
            balls = [self._grow_ball([(v, 0)]) for v in range(n)]
            self._boundary_covers: list[Cover] = [{} for _ in range(n)]
            for root, ball in enumerate(balls):
                for vertex, cell in ball.items():
                    self._boundary_covers[vertex][root] = cell
        else:
            # Each ball is its root's own cell, so balls and per-vertex view coincide.
            balls = self._boundary_covers = [{v: (0, v)} for v in range(n)]
        sizes = np.fromiter(map(len, balls), np.intp, n)
        self._template_root = np.repeat(np.arange(n, dtype=np.intp), sizes)
        self._template_vertex = np.fromiter(
            chain.from_iterable(balls), np.intp, len(self._template_root)
        )
        layers = range(graph.num_layers)
        self._layer_vertices = [np.array(graph.vertices_in_layer(i), np.intp) for i in layers]
        self._layer_real = [np.fromiter(graph.real_vertices_in_layer(i), np.intp) for i in layers]
        self._layer_boundary_cells = [int(sizes[real].sum()) for real in self._layer_real]
        self._boundary_live = bytearray(n)
        self._live_view = np.frombuffer(self._boundary_live, dtype=np.bool_)
        self.loaded = bytearray(n)
        self._loaded_view = np.frombuffer(self.loaded, dtype=np.bool_)
        # Cover-root (defect and blossom) state; boundary cells are implicit.
        self._balls: dict[int, Cover] = {}
        self._covers: list[Cover] = [{} for _ in range(n)]
        self._covered = bytearray(n)
        self._covered_view = np.frombuffer(self._covered, dtype=np.bool_)
        self._residue = [0] * n
        self._cells = 0
        self.counters: Counter = Counter()
        self.reset()

    # ------------------------------------------------------------------
    # instruction set
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all PU state (the ``reset`` instruction)."""
        self._drop_balls(list(self._balls))
        self._loaded_view[:] = False
        self._layer_loaded = bytearray(self.graph.num_layers)
        self._live_view[:] = True
        self._boundary_cells = len(self._template_root)
        self._boundary_mask: np.ndarray | None = None
        self.is_defect = [False] * self.graph.num_vertices
        self.defect_radius: dict[int, int] = {}
        self.defect_root: dict[int, int] = {}
        self.node_direction: dict[int, int] = {}
        self._dirty: set[int] = set()
        self._stale = True
        self.counters["instr_reset"] += 1

    def load(
        self, defects: Iterable[int], layers: Iterable[int] | None = None
    ) -> None:
        """Load syndrome data into the vPUs (the ``load defects`` instruction).

        When ``layers`` is None the whole graph is loaded at once (batch
        decoding).  Otherwise only vertices of the given measurement rounds are
        loaded and all other vertices keep acting as virtual boundary vertices
        (round-wise fusion, paper §6.2).
        """
        defects = set(defects)
        graph = self.graph
        fresh = {
            layer
            for layer in (range(graph.num_layers) if layers is None else set(layers))
            if 0 <= layer < graph.num_layers and not self._layer_loaded[layer]
        }
        for layer in fresh:
            self._layer_loaded[layer] = 1
            self._loaded_view[self._layer_vertices[layer]] = True
            # Loaded real vertices stop acting as fusion-boundary roots.
            self._live_view[self._layer_real[layer]] = False
            self._boundary_cells -= self._layer_boundary_cells[layer]
            self._boundary_mask = None
        for vertex in defects:
            if graph.vertices[vertex].layer not in fresh:
                continue
            if self._virtual[vertex]:
                raise DualPhaseError(f"virtual vertex {vertex} cannot be a defect")
            self.is_defect[vertex] = True
            self.defect_radius[vertex] = 0
            self.defect_root[vertex] = vertex
            self._dirty.add(vertex)
            # A freshly loaded defect is an unmatched singleton node and
            # starts growing without any CPU involvement.
            self.node_direction.setdefault(vertex, GROW)
        uncovered = [d for d in defects if not self.loaded[d]]
        if uncovered:
            raise DualPhaseError(f"defects {uncovered} lie outside the loaded measurement rounds")
        self.counters["instr_load"] += 1
        self.counters["defects_loaded"] += len(defects)
        self._stale = True

    def set_direction(self, node: int, direction: int) -> None:
        """Broadcast a node direction (the ``set direction`` instruction)."""
        if direction not in (-1, 0, 1):
            raise ValueError("direction must be -1, 0 or +1")
        self.node_direction[node] = direction
        self.counters["instr_set_direction"] += 1
        # Directions change future growth only; covers themselves are intact.

    def create_blossom(self, children: Iterable[int], blossom_id: int) -> None:
        """Merge the Covers of ``children`` into a new blossom node."""
        children = set(children)
        if blossom_id in self.node_direction:
            raise DualPhaseError(f"node id {blossom_id} already exists")
        for defect, root in self.defect_root.items():
            if root in children:
                self.defect_root[defect] = blossom_id
        self.node_direction[blossom_id] = GROW
        self.counters["instr_set_cover"] += len(children)
        self._dirty.update(children)
        self._dirty.add(blossom_id)
        self._stale = True

    def expand_blossom(self, blossom_id: int, new_roots: Mapping[int, int]) -> None:
        """Split a blossom Cover back into its children's Covers.

        ``new_roots`` maps every defect vertex previously rooted at
        ``blossom_id`` to its new outer node (computed by the primal module,
        which owns the blossom structure, paper §4.3).
        """
        for defect, root in new_roots.items():
            if self.defect_root.get(defect) != blossom_id:
                raise DualPhaseError(f"defect {defect} is not rooted at blossom {blossom_id}")
            self.defect_root[defect] = root
        remaining = [d for d, r in self.defect_root.items() if r == blossom_id]
        if remaining:
            raise DualPhaseError(
                f"blossom {blossom_id} still owns defects {remaining} after expansion"
            )
        self.node_direction.pop(blossom_id, None)
        self.counters["instr_set_cover"] += len(new_roots)
        self._dirty.update(new_roots.values())
        self._dirty.add(blossom_id)
        self._stale = True

    def grow(self, length: int) -> None:
        """Grow/shrink every Cover according to its direction (``grow l``)."""
        if length <= 0:
            raise ValueError("grow length must be positive")
        for defect, root in self.defect_root.items():
            direction = self._direction_for_growth(root)
            if direction == HOLD:
                continue
            radius = self.defect_radius[defect] + length * direction
            if radius < 0:
                raise DualPhaseError(f"cover radius of defect {defect} would become negative")
            self.defect_radius[defect] = radius
            self._dirty.add(root)
        self.counters["instr_grow"] += 1
        self.counters["total_growth"] += length
        self._stale = True

    def find_obstacle(self) -> Obstacle:
        """Report a Conflict, a safe growth length, or completion."""
        self.counters["instr_find_obstacle"] += 1
        self._ensure_covers()
        directions = self._effective_directions()
        conflict = self._scan_conflicts(directions)
        if conflict is not None:
            self.counters["conflicts_reported"] += 1
            return conflict
        if not self._any_growing(directions):
            return Finished()
        length = self._max_grow_length(directions)
        if length is None:
            raise DualPhaseError("growing nodes exist but growth is unbounded")
        if length <= 0:
            raise IntegralityError("dual update requires a step finer than the internal scale")
        return GrowLength(length)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_boundary_node(self, node: int) -> bool:
        """True if ``node`` is a boundary pseudo-node (virtual or unloaded)."""
        return node < self.graph.num_vertices and bool(self._boundary_live[node])

    def direction_of(self, node: int) -> int:
        return self.node_direction.get(node, HOLD)

    def radius_of(self, defect: int) -> int:
        """Accumulated cover radius of a defect vertex, in internal units."""
        return self.defect_radius[defect]

    def weight_units(self, internal: int) -> float:
        """Convert an internal dual quantity back into decoding-graph units."""
        return internal / self.scale

    def loaded_defects(self) -> list[int]:
        return sorted(self.defect_radius)

    # ------------------------------------------------------------------
    # hooks overridden by subclasses
    # ------------------------------------------------------------------
    def _effective_directions(self) -> dict[int, int]:
        """Direction of every known node as seen by the PUs.

        The Micro Blossom accelerator overrides this to stall pre-matched
        nodes (paper §5.2) without any CPU interaction.
        """
        return dict(self.node_direction)

    def _direction_for_growth(self, node: int) -> int:
        return self.node_direction.get(node, HOLD)

    # ------------------------------------------------------------------
    # cover maintenance
    # ------------------------------------------------------------------
    def _grow_ball(self, sources: Iterable[tuple[int, int]]) -> Cover:
        """One root's ball ``{vertex: (residual, touch)}`` from its
        ``(vertex, radius)`` sources; ties resolve by ``(vertex, touch)``."""
        adjacency, weight = self.graph.adjacency, self._edge_weight
        heap = [(-radius, vertex, vertex) for vertex, radius in sources]
        heapq.heapify(heap)
        ball: Cover = {}
        while heap:
            negative_value, vertex, touch = heapq.heappop(heap)
            if vertex in ball:
                continue
            ball[vertex] = (-negative_value, touch)
            for edge_index, neighbor in adjacency[vertex]:
                next_value = -negative_value - weight[edge_index]
                if next_value >= 0 and neighbor not in ball:
                    heapq.heappush(heap, (-next_value, neighbor, touch))
        return ball

    def _drop_balls(self, roots: Iterable[int]) -> None:
        """Remove the cached balls of Cover ``roots`` from the per-vertex state."""
        balls, covers, covered, residue = self._balls, self._covers, self._covered, self._residue
        for root in roots:
            ball = balls.pop(root, None)
            if ball:
                for vertex, (value, _touch) in ball.items():
                    cover = covers[vertex]
                    del cover[root]
                    if not cover:
                        covered[vertex] = 0
                        residue[vertex] = 0
                    elif value == residue[vertex]:
                        residue[vertex] = max(residual for residual, _ in cover.values())
                self._cells -= len(ball)

    def _boundary_cells_at(self, vertex: int) -> list[tuple[int, tuple[int, int]]]:
        """The live boundary cells ``(root, (residual, touch))`` at ``vertex``."""
        live = self._boundary_live
        return [item for item in self._boundary_covers[vertex].items() if live[item[0]]]

    def _ensure_covers(self) -> None:
        """Settle the per-vertex state ``{node: (residual, touch_vertex)}``.

        ``residual`` is how far the node's Cover extends beyond the vertex
        (``>= 0`` iff the vertex lies inside the Cover); ``touch_vertex`` is a
        defect (or boundary vertex) of the node realising that residual: the
        state of paper §4.2.  ``_covers`` holds the Cover-root cells, the live
        boundary cells are implicit.  Only changed roots are regrown, but the
        Update stage is charged for every cell, as the hardware settles them
        all.
        """
        if self._stale:
            if self._dirty:
                sources: dict[int, list[tuple[int, int]]] = {r: [] for r in self._dirty}
                for defect, root in self.defect_root.items():
                    if root in sources:
                        sources[root].append((defect, self.defect_radius[defect]))
                self._drop_balls(sources)
                covers, covered, residue = self._covers, self._covered, self._residue
                for root, members in sources.items():
                    if members:
                        ball = self._balls[root] = self._grow_ball(members)
                        for vertex, cell in ball.items():
                            covers[vertex][root] = cell
                            covered[vertex] = 1
                            if cell[0] > residue[vertex]:
                                residue[vertex] = cell[0]
                        self._cells += len(ball)
                self._dirty.clear()
            self.counters["cover_cells_updated"] += self._cells + self._boundary_cells
            self._stale = False

    def _moving(self, directions: dict[int, int]) -> list[tuple[int, int, Cover]]:
        """``(root, direction, ball)`` of every Cover that is not on HOLD."""
        balls = self._balls
        return [
            (root, direction, balls[root])
            for root, direction in directions.items()
            if direction and root in balls
        ]

    def _covered_edges(self, stop: int) -> int:
        """Edges below index ``stop`` whose endpoints are both covered."""
        if self._boundary_mask is None:
            # The vertices holding a cell of a live boundary root.
            self._boundary_mask = np.zeros(self.graph.num_vertices, dtype=np.bool_)
            self._boundary_mask[self._template_vertex[self._live_view[self._template_root]]] = True
        mask = self._covered_view | self._boundary_mask
        return int(np.count_nonzero(mask[self._edge_u[:stop]] & mask[self._edge_v[:stop]]))

    # ------------------------------------------------------------------
    # conflict detection and growth length (Theorems of §4.2)
    # ------------------------------------------------------------------
    def _any_growing(self, directions: dict[int, int]) -> bool:
        return any(directions.get(root, HOLD) > 0 for root in self.defect_root.values())

    def _scan_conflicts(self, directions: dict[int, int]) -> Conflict | None:
        """Theorem: Conflict Detection — evaluated on every ePU.

        A Conflict needs a growing node, so only edges around growing Covers
        are evaluated; the first conflicting one in index order is reported,
        its node pair in canonical cell order.  ``edges_scanned`` is charged
        what the ePU sweep visits: every edge with both endpoints covered, up
        to that one.  The vPU rule (two Covers overlapping on a vertex) never
        fires first: one Cover reached the vertex through an edge that
        already carries the same Conflict.
        """
        covers, boundary, live = self._covers, self._boundary_covers, self._boundary_live
        weight, adjacency = self._edge_weight, self.graph.adjacency
        first = self.graph.num_edges
        for root, direction, ball in self._moving(directions):
            if direction < 0:
                continue
            for vertex, (value, _touch) in ball.items():
                for edge_index, neighbor in adjacency[vertex]:
                    if edge_index >= first:
                        continue
                    reach = weight[edge_index] - value
                    for node, (residual, _) in covers[neighbor].items():
                        if node != root and residual >= reach and directions.get(node, HOLD) >= 0:
                            first = edge_index
                            break
                    else:
                        if reach > 0:  # boundary cells have residual 0
                            continue
                        for node, (residual, _) in boundary[neighbor].items():
                            if residual >= reach and live[node] and directions.get(node, HOLD) >= 0:
                                first = edge_index
                                break
        self.counters["edges_scanned"] += self._covered_edges(first + 1)
        if first == self.graph.num_edges:
            return None
        edge = self.graph.edges[first]
        cells_u = [*covers[edge.u].items(), *self._boundary_cells_at(edge.u)]
        cells_v = [*covers[edge.v].items(), *self._boundary_cells_at(edge.v)]
        return next(
            self._make_conflict(node_u, node_v, touch_u, touch_v, edge.u, edge.v)
            for node_u, (residual_u, touch_u) in _canonical(cells_u)
            for node_v, (residual_v, touch_v) in _canonical(cells_v)
            if node_u != node_v
            and directions.get(node_u, HOLD) + directions.get(node_v, HOLD) > 0
            and residual_u + residual_v >= weight[first]
        )

    def _make_conflict(
        self, node_1: int, node_2: int, touch_1: int, touch_2: int, vertex_1: int, vertex_2: int
    ) -> Conflict:
        """Normalise a conflict so that a non-boundary node comes first."""
        if self.is_boundary_node(node_1) and not self.is_boundary_node(node_2):
            node_1, node_2 = node_2, node_1
            touch_1, touch_2 = touch_2, touch_1
            vertex_1, vertex_2 = vertex_2, vertex_1
        return Conflict(node_1, node_2, touch_1, touch_2, vertex_1, vertex_2)

    def _max_grow_length(self, directions: dict[int, int]) -> int | None:
        """Theorem: Local Length to Grow — evaluated on every vPU and ePU.

        Held Covers bound nothing, so only moving Covers are evaluated; the
        ePU sweep is still charged in full to ``edges_scanned``.  A live
        boundary cell (residual 0, HOLD) next to a growing Cover bounds it by
        the edge's slack, the same term as a vertex the Cover has not reached;
        a boundary vertex it has reached is a Conflict, reported before this
        rule runs.  So only Cover-root cells are visited.
        """
        self.counters["edges_scanned"] += self.graph.num_edges
        covers, weight, adjacency = self._covers, self._edge_weight, self.graph.adjacency
        candidates: list[int] = []
        for root, direction, ball in self._moving(directions):
            if direction < 0:
                # Shrinking Covers must not recede past a vertex in one step,
                # so that Touches/Nodes can be updated consistently.
                candidates.extend(value for value, _touch in ball.values() if value > 0)
                continue
            for vertex, (value, _touch) in ball.items():
                for edge_index, neighbor in adjacency[vertex]:
                    slack = weight[edge_index] - value
                    cover = covers[neighbor]
                    # A growing Cover must not overshoot a vertex it has not
                    # reached yet: stop exactly when its boundary arrives there.
                    if root not in cover:
                        candidates.append(slack)
                    # Pairs of distinct nodes approaching each other.
                    for node, (residual, _) in cover.items():
                        rate = 1 + directions.get(node, HOLD)
                        if node != root and rate > 0:
                            candidates.append((slack - residual) // rate)
        return min(candidates, default=None)
