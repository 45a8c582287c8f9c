"""Control-flow graphs over basic blocks.

One :class:`ControlFlowGraph` per function.  Provides the traversals the
rest of the pipeline relies on (reverse post-order for dataflow, reachable
sets for cleanup).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..frontend.ast_nodes import ArrayType, Type
from .basicblock import BasicBlock
from .operations import Opcode


@dataclass
class VariableInfo:
    """Storage-level facts about one function-visible variable."""

    name: str
    var_type: Type | ArrayType
    is_param: bool = False
    is_global: bool = False
    is_const: bool = False

    @property
    def is_array(self) -> bool:
        return isinstance(self.var_type, ArrayType)

    @property
    def element_type(self) -> Type:
        if isinstance(self.var_type, ArrayType):
            return self.var_type.element
        return self.var_type


class ControlFlowGraph:
    """CFG for a single function."""

    def __init__(
        self, function_name: str, return_type: Type = Type.VOID
    ) -> None:
        self.function_name = function_name
        self.return_type = return_type
        self.blocks: dict[str, BasicBlock] = {}
        self.entry_label: str | None = None
        self.param_names: list[str] = []
        self.variables: dict[str, VariableInfo] = {}
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_block(self, hint: str = "bb") -> BasicBlock:
        label = f"{hint}{self._label_counter}"
        self._label_counter += 1
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry_label is None:
            self.entry_label = label
        return block

    def add_variable(self, info: VariableInfo) -> None:
        self.variables[info.name] = info

    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError(f"CFG for {self.function_name!r} has no blocks")
        return self.blocks[self.entry_label]

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    def successors(self, label: str) -> tuple[str, ...]:
        return self.blocks[label].successor_labels()

    def predecessors(self, label: str) -> list[str]:
        return [
            other.label
            for other in self.blocks.values()
            if label in other.successor_labels()
        ]

    def predecessor_map(self) -> dict[str, list[str]]:
        """``predecessors(label)`` for every block, built in one O(E) sweep.

        Same lists, same order; a CBR whose two targets coincide is one
        predecessor entry, not two.
        """
        preds: dict[str, list[str]] = {label: [] for label in self.blocks}
        for label, block in self.blocks.items():
            for successor in set(block.successor_labels()):
                preds.setdefault(successor, []).append(label)
        return preds

    def exit_labels(self) -> list[str]:
        """Blocks ending in RET (or falling off — should not happen)."""
        exits = []
        for block in self.blocks.values():
            terminator = block.terminator
            if terminator is not None and terminator.opcode is Opcode.RET:
                exits.append(block.label)
        return exits

    def reachable_labels(self) -> set[str]:
        if self.entry_label is None:
            return set()
        seen: set[str] = set()
        stack = [self.entry_label]
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            stack.extend(self.successors(label))
        return seen

    def remove_unreachable_blocks(self) -> int:
        """Drop blocks not reachable from the entry; returns removed count."""
        reachable = self.reachable_labels()
        unreachable = [b for b in self.blocks if b not in reachable]
        for label in unreachable:
            del self.blocks[label]
        return len(unreachable)

    def reverse_post_order(self) -> list[str]:
        """Labels in reverse post-order (a topological-ish order for
        forward dataflow over reducible CFGs)."""
        if self.entry_label is None:
            return []
        seen: set[str] = set()
        order: list[str] = []

        def visit(label: str) -> None:
            stack: list[tuple[str, int]] = [(label, 0)]
            while stack:
                current, child_index = stack[-1]
                if current not in seen:
                    seen.add(current)
                successors = self.successors(current)
                if child_index < len(successors):
                    stack[-1] = (current, child_index + 1)
                    child = successors[child_index]
                    if child not in seen:
                        stack.append((child, 0))
                else:
                    order.append(current)
                    stack.pop()

        visit(self.entry_label)
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Raise ``ValueError`` on malformed CFGs.

        Checks: all blocks terminated, all branch targets exist, entry set,
        and RET presence/absence matches the function's return type.
        """
        if self.entry_label is None:
            raise ValueError(f"{self.function_name}: CFG has no entry block")
        for block in self.blocks.values():
            if not block.is_terminated:
                raise ValueError(
                    f"{self.function_name}: block {block.label!r} lacks a "
                    "terminator"
                )
            for index, instruction in enumerate(block.instructions[:-1]):
                if instruction.opcode.is_control:
                    raise ValueError(
                        f"{self.function_name}: control instruction in the "
                        f"middle of {block.label!r} (position {index})"
                    )
            for target in block.successor_labels():
                if target not in self.blocks:
                    raise ValueError(
                        f"{self.function_name}: branch from {block.label!r} "
                        f"to unknown block {target!r}"
                    )
        if not self.exit_labels():
            raise ValueError(f"{self.function_name}: no RET block")

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        lines = [f"function {self.function_name}({', '.join(self.param_names)}):"]
        for label in self.reverse_post_order():
            lines.append(str(self.blocks[label]))
        return "\n".join(lines)
