"""Natural-loop detection and loop nesting depth.

The analysis step (§3.1) extracts kernels among "basic blocks inside
loops"; this module finds those blocks structurally from back edges in the
CFG (an edge ``t -> h`` where ``h`` dominates ``t``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import ControlFlowGraph
from .dominators import DominatorTree


@dataclass
class NaturalLoop:
    """One natural loop: its header plus every block in its body."""

    header: str
    body: set[str] = field(default_factory=set)
    back_edges: list[tuple[str, str]] = field(default_factory=list)

    def contains(self, label: str) -> bool:
        return label in self.body

    @property
    def size(self) -> int:
        return len(self.body)


class LoopForest:
    """All natural loops of a CFG plus per-block nesting depth."""

    def __init__(
        self, cfg: ControlFlowGraph, dom: DominatorTree | None = None
    ) -> None:
        self.cfg = cfg
        self.dom = dom or DominatorTree(cfg)
        self.loops: list[NaturalLoop] = []
        self._find_loops()

    def _find_loops(self) -> None:
        loops_by_header: dict[str, NaturalLoop] = {}
        reachable = set(self.dom.rpo)
        preds = self.cfg.predecessor_map()
        for label in reachable:
            for successor in self.cfg.successors(label):
                if successor in reachable and self.dom.dominates(successor, label):
                    loop = loops_by_header.setdefault(
                        successor, NaturalLoop(successor, {successor})
                    )
                    loop.back_edges.append((label, successor))
                    self._collect_body(loop, label, preds)
        self.loops = sorted(loops_by_header.values(), key=lambda x: x.header)

    @staticmethod
    def _collect_body(
        loop: NaturalLoop, tail: str, preds: dict[str, list[str]]
    ) -> None:
        """Blocks that can reach the back edge tail without passing the
        header — the classic natural-loop body computation."""
        stack = [tail]
        while stack:
            label = stack.pop()
            if label in loop.body:
                continue
            loop.body.add(label)
            stack.extend(preds[label])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def loop_depth(self, label: str) -> int:
        """How many loops contain this block (0 = not in any loop)."""
        return sum(1 for loop in self.loops if loop.contains(label))

    def innermost_loop(self, label: str) -> NaturalLoop | None:
        containing = [loop for loop in self.loops if loop.contains(label)]
        if not containing:
            return None
        return min(containing, key=lambda x: x.size)

    def blocks_in_loops(self) -> set[str]:
        blocks: set[str] = set()
        for loop in self.loops:
            blocks |= loop.body
        return blocks

    def headers(self) -> list[str]:
        return [loop.header for loop in self.loops]

    @property
    def loop_count(self) -> int:
        return len(self.loops)


def find_loops(cfg: ControlFlowGraph) -> LoopForest:
    return LoopForest(cfg)
