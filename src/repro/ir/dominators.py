"""Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).

Dominators feed the natural-loop detector (:mod:`repro.ir.loops`), which the
analysis stage uses to restrict kernel candidates to blocks inside loops —
"the critical basic blocks are often located in nested loops" (§3).
"""

from __future__ import annotations

from .cfg import ControlFlowGraph


class DominatorTree:
    """Immediate-dominator tree for one CFG."""

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        self.rpo = cfg.reverse_post_order()
        self._rpo_index = {label: i for i, label in enumerate(self.rpo)}
        self.idom: dict[str, str] = {}
        self._compute()

    def _compute(self) -> None:
        entry = self.cfg.entry_label
        assert entry is not None
        idom: dict[str, str | None] = {label: None for label in self.rpo}
        idom[entry] = entry
        all_preds = self.cfg.predecessor_map()
        preds = {
            label: [p for p in all_preds[label] if p in self._rpo_index]
            for label in self.rpo
        }
        changed = True
        while changed:
            changed = False
            for label in self.rpo:
                if label == entry:
                    continue
                candidates = [p for p in preds[label] if idom[p] is not None]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = self._intersect(new_idom, pred, idom)
                if idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True
        self.idom = {k: v for k, v in idom.items() if v is not None}

    def _intersect(
        self, a: str, b: str, idom: dict[str, str | None]
    ) -> str:
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                parent = idom[a]
                assert parent is not None
                a = parent
            while index[b] > index[a]:
                parent = idom[b]
                assert parent is not None
                b = parent
        return a

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def immediate_dominator(self, label: str) -> str | None:
        if label == self.cfg.entry_label:
            return None
        return self.idom.get(label)

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexive)."""
        current: str | None = b
        while current is not None:
            if current == a:
                return True
            if current == self.cfg.entry_label:
                return False
            current = self.idom.get(current)
        return False

    def dominators_of(self, label: str) -> list[str]:
        """All dominators of ``label``, from itself up to the entry."""
        chain = [label]
        current = label
        while current != self.cfg.entry_label:
            parent = self.idom.get(current)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        return chain

    def children(self, label: str) -> list[str]:
        return [
            block
            for block, parent in self.idom.items()
            if parent == label and block != label
        ]


def compute_dominators(cfg: ControlFlowGraph) -> DominatorTree:
    return DominatorTree(cfg)
