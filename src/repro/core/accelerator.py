"""Behavioural model of the Micro Blossom dual-phase accelerator.

The accelerator (paper §3–§6) contains one vertex PU per decoding-graph vertex
and one edge PU per edge, a broadcast network for instructions and a
convergecast tree for responses.  On top of the cover-based dual phase of
:class:`repro.core.dual.DualGraphState` this class adds the hardware-only
behaviour:

* **pre-matching of isolated Conflicts** (paper §5.2, Equations 1–3): pairs of
  defects — or a defect and a boundary vertex — whose Covers touch while no
  other Cover is nearby are matched entirely inside the PUs; their nodes stop
  growing without any CPU interaction and are only handed to the software if a
  third Cover later disturbs them;
* **round-wise fusion** (paper §6): syndrome layers are loaded one measurement
  round at a time; vertices of rounds not yet loaded behave like virtual
  boundary vertices;
* **bus/instruction accounting** used by the latency model: every instruction
  word and every blocking response read is counted, together with the number
  of accelerator clock cycles they occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..graphs.decoding_graph import DecodingGraph
from .dual import DEFAULT_DUAL_SCALE, DualGraphState
from .interface import GROW, HOLD, Obstacle
from .instructions import (
    find_conflict_word,
    grow_word,
    load_defects_word,
    reset_word,
    set_cover_word,
    set_direction_word,
)


@dataclass(frozen=True)
class PreMatch:
    """A pair handled entirely inside the accelerator (isolated Conflict)."""

    defect: int
    peer: int
    edge: int
    peer_is_boundary: bool


class MicroBlossomAccelerator(DualGraphState):
    """Dual-phase accelerator with pre-matching and round-wise fusion."""

    def __init__(
        self,
        graph: DecodingGraph,
        scale: int = DEFAULT_DUAL_SCALE,
        enable_prematching: bool = True,
    ) -> None:
        self.enable_prematching = enable_prematching
        self._prematches: dict[int, PreMatch] = {}
        self._prematches_dirty = True
        self._prematched_floor: int = 0
        super().__init__(graph, scale=scale)

    # ------------------------------------------------------------------
    # instruction accounting wrappers
    # ------------------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self._prematches = {}
        self._prematches_dirty = True
        # ``prematched_defects`` is a per-shot high-water mark; remember the
        # cumulative value at reset so reused engines report per-shot deltas
        # identical to a freshly-built accelerator.
        self._prematched_floor = self.counters.get(
            "prematched_defects", self._prematched_floor
        )
        self.counters["bus_words"] += 1
        _ = reset_word()

    def load(self, defects: Iterable[int], layers: Iterable[int] | None = None) -> None:
        super().load(defects, layers)
        # One load instruction per layer loaded (a single one for a batch
        # load); syndrome bits stream in directly from the quantum control
        # stack (paper Figure 5), so they do not cross the CPU bus.
        loaded = (0,) if layers is None else sorted(set(layers))
        for layer in loaded:
            _ = load_defects_word(layer)
        self.counters["bus_words"] += len(loaded)
        self._prematches_dirty = True

    def set_direction(self, node: int, direction: int) -> None:
        super().set_direction(node, direction)
        _ = set_direction_word(min(node, 2**15 - 1), direction)
        self.counters["bus_words"] += 1
        self._prematches_dirty = True

    def create_blossom(self, children: Iterable[int], blossom_id: int) -> None:
        children = list(children)
        super().create_blossom(children, blossom_id)
        for child in children:
            _ = set_cover_word(min(child, 2**15 - 1), min(blossom_id, 2**15 - 1))
        self.counters["bus_words"] += len(children)
        self._prematches_dirty = True

    def expand_blossom(self, blossom_id: int, new_roots) -> None:
        super().expand_blossom(blossom_id, new_roots)
        for defect, root in new_roots.items():
            _ = set_cover_word(min(defect, 2**15 - 1), min(root, 2**15 - 1))
        self.counters["bus_words"] += len(new_roots)
        self._prematches_dirty = True

    def grow(self, length: int) -> None:
        super().grow(length)
        _ = grow_word(length)
        self.counters["bus_words"] += 1
        self._prematches_dirty = True

    def find_obstacle(self) -> Obstacle:
        _ = find_conflict_word()
        self.counters["bus_words"] += 1
        self.counters["response_reads"] += 1
        return super().find_obstacle()

    # ------------------------------------------------------------------
    # pre-matching (paper §5.2)
    # ------------------------------------------------------------------
    def _effective_directions(self) -> dict[int, int]:
        directions = dict(self.node_direction)
        for prematch in self._current_prematches().values():
            directions[prematch.defect] = HOLD
            if not prematch.peer_is_boundary:
                directions[prematch.peer] = HOLD
        return directions

    def _direction_for_growth(self, node: int) -> int:
        if self.enable_prematching and node in self._prematches:
            return HOLD
        return self.node_direction.get(node, HOLD)

    def _current_prematches(self) -> dict[int, PreMatch]:
        """The pre-matches of the current PU state, computed once per state."""
        if not self.enable_prematching:
            self._prematches = {}
        elif self._prematches_dirty:
            self._prematches = self._compute_prematches()
            self._prematches_dirty = False
        return self._prematches

    def _prematch_eligible(self, vertex: int) -> bool:
        """A defect may be pre-matched only while it is still an autonomous
        singleton node growing with its default direction (never touched by
        the CPU and not absorbed into any blossom)."""
        return (
            self.loaded[vertex]
            and self.is_defect[vertex]
            and self.defect_root.get(vertex) == vertex
            and self.node_direction.get(vertex, HOLD) == GROW
        )

    def _compute_prematches(self) -> dict[int, PreMatch]:
        """Equations 1–3 on the tight edges of eligible defects.

        Every pre-match has an eligible defect as an endpoint, so only the
        tight edges incident to one are visited, in ascending index order.
        An edge is tight when the Residues of its endpoints cover it; tight
        degrees are counted lazily around the candidates.
        """
        self._ensure_covers()
        graph, residue, weight = self.graph, self._residue, self._edge_weight
        adjacency = graph.adjacency
        tight_counts: dict[int, int] = {}

        def tight_count(vertex: int) -> int:
            if vertex not in tight_counts:
                here = residue[vertex]
                tight_counts[vertex] = sum(
                    here + residue[n] >= weight[e] for e, n in adjacency[vertex]
                )
            return tight_counts[vertex]

        eligible = {defect for defect in self.defect_root if self._prematch_eligible(defect)}
        candidates = {
            e for d in eligible for e, n in adjacency[d] if residue[d] + residue[n] >= weight[e]
        }
        prematches: dict[int, PreMatch] = {}
        for edge_index in sorted(candidates):
            u, v = graph.edges[edge_index].u, graph.edges[edge_index].v
            if u in prematches or v in prematches:
                continue
            if u in eligible and v in eligible and tight_count(u) == tight_count(v) == 1:
                # Equation 1: an isolated error away from any boundary.
                prematches[u] = prematches[v] = PreMatch(u, v, edge_index, False)
                continue
            # Equations 2/3: an isolated error on the (possibly fusion) boundary.
            for defect, boundary in ((u, v), (v, u)):
                if defect in eligible and self.is_boundary_node(boundary) and not any(
                    other != edge_index
                    and residue[defect] + residue[neighbor] >= weight[other]
                    and not self.is_boundary_node(neighbor)
                    and (self.is_defect[neighbor] or tight_count(neighbor) > 1)
                    for other, neighbor in adjacency[defect]
                ):
                    prematches[defect] = PreMatch(defect, boundary, edge_index, True)
                    break
        if prematches:
            self.counters["prematched_defects"] = max(
                self.counters.get("prematched_defects", 0),
                self._prematched_floor + len(prematches),
            )
        return prematches

    def prematched_pairs(self) -> list[PreMatch]:
        """Pairs still handled in hardware when decoding finishes (§5.2)."""
        unique = {p.edge: p for p in self._current_prematches().values()}
        return sorted(unique.values(), key=lambda p: p.edge)

    # ------------------------------------------------------------------
    # hardware report for the latency/resource models
    # ------------------------------------------------------------------
    def hardware_report(self) -> dict[str, int]:
        """Bus and instruction statistics accumulated since construction."""
        return self.hardware_report_from(self.counters)

    @staticmethod
    def hardware_report_from(counters) -> dict[str, int]:
        """Bus and instruction statistics from a counter snapshot.

        Used with per-shot counter deltas when the accelerator model is
        reused across decodes (engine reuse / decoder sessions).
        """
        return {
            "bus_words": int(counters.get("bus_words", 0)),
            "response_reads": int(counters.get("response_reads", 0)),
            "grow_instructions": int(counters.get("instr_grow", 0)),
            "find_obstacle_instructions": int(
                counters.get("instr_find_obstacle", 0)
            ),
            "set_direction_instructions": int(
                counters.get("instr_set_direction", 0)
            ),
            "set_cover_instructions": int(counters.get("instr_set_cover", 0)),
            "conflicts_reported": int(counters.get("conflicts_reported", 0)),
            "defects_loaded": int(counters.get("defects_loaded", 0)),
        }
