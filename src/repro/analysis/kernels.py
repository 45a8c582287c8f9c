"""Kernel extraction and ordering (paper §3.1).

"The critical part is the set of kernels, which are the basic blocks
inside loops that cause performance overheads...  After all critical basic
blocks have been identified, an ordering of these critical basic blocks
takes place: kernels are sorted in descending order of computational
complexity" — i.e. by Eq. 1's ``total_weight = exec_freq × bb_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.cdfg import CDFG
from ..ir.loops import LoopForest
from .dynamic_analysis import DynamicProfile
from .static_analysis import StaticAnalysisResult, analyze_cdfg
from .weights import WeightModel, total_weight


@dataclass(frozen=True)
class KernelInfo:
    """One kernel candidate, ordered by total weight."""

    bb_id: int
    exec_freq: int
    bb_weight: int
    total_weight: int
    function: str = ""
    label: str = ""
    loop_depth: int = 0

    def table_row(self) -> tuple[int, int, int, int]:
        """The (BB no., exec freq, ops weight, total weight) row of
        the paper's Table 1."""
        return (self.bb_id, self.exec_freq, self.bb_weight, self.total_weight)


@dataclass
class AnalysisResult:
    """Combined outcome of the analysis step (§3.1)."""

    kernels: list[KernelInfo] = field(default_factory=list)
    non_critical: list[KernelInfo] = field(default_factory=list)
    static: StaticAnalysisResult | None = None
    profile: DynamicProfile | None = None

    def kernel_order(self) -> list[int]:
        """BB ids in the order the partitioning engine will move them."""
        return [kernel.bb_id for kernel in self.kernels]

    def kernel(self, bb_id: int) -> KernelInfo:
        for kernel in self.kernels:
            if kernel.bb_id == bb_id:
                return kernel
        raise KeyError(f"BB {bb_id} is not a kernel")


def _loop_depths(cdfg: CDFG) -> dict[int, int]:
    depths: dict[int, int] = {}
    for function_name, cfg in cdfg.cfgs.items():
        forest = LoopForest(cfg)
        for block in cfg:
            depths[block.bb_id] = forest.loop_depth(block.label)
    return depths


def extract_kernels(
    cdfg: CDFG,
    profile: DynamicProfile,
    weight_model: WeightModel | None = None,
    require_loop: bool = True,
) -> AnalysisResult:
    """Full analysis step over a real CDFG.

    Kernel candidates are executed blocks located inside loops with a
    non-zero weight; everything else is non-critical and stays on the
    fine-grain fabric.  Set ``require_loop=False`` to consider every
    executed block (useful for synthetic workloads without loop shape).
    """
    model = weight_model or WeightModel()
    static = analyze_cdfg(cdfg, model)
    depths = _loop_depths(cdfg)

    kernels: list[KernelInfo] = []
    non_critical: list[KernelInfo] = []
    for bb_id, info in static.blocks.items():
        freq = profile.exec_freq(bb_id)
        weight = info.bb_weight
        entry = KernelInfo(
            bb_id=bb_id,
            exec_freq=freq,
            bb_weight=weight,
            total_weight=total_weight(freq, weight),
            function=info.function,
            label=info.label,
            loop_depth=depths.get(bb_id, 0),
        )
        in_loop = entry.loop_depth > 0
        is_candidate = (
            freq > 0 and weight > 0 and (in_loop or not require_loop)
        )
        if is_candidate:
            kernels.append(entry)
        else:
            non_critical.append(entry)

    kernels.sort(key=lambda k: (-k.total_weight, k.bb_id))
    non_critical.sort(key=lambda k: (-k.total_weight, k.bb_id))
    return AnalysisResult(
        kernels=kernels,
        non_critical=non_critical,
        static=static,
        profile=profile,
    )


def kernels_from_records(
    records: list[tuple[int, int, int]],
) -> AnalysisResult:
    """Build an ordered kernel list from (bb_id, exec_freq, bb_weight)
    records — the entry point used by the calibrated Table 1 workloads."""
    kernels = [
        KernelInfo(
            bb_id=bb_id,
            exec_freq=freq,
            bb_weight=weight,
            total_weight=total_weight(freq, weight),
        )
        for bb_id, freq, weight in records
    ]
    kernels.sort(key=lambda k: (-k.total_weight, k.bb_id))
    return AnalysisResult(kernels=kernels)
