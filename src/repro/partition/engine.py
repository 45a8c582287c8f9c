"""Tunables of the partitioning loop — paper §3.4 and the Figure 2 flow.

Flow the partitioners implement:

1. Map the whole application to the fine-grain hardware (Figure 3 temporal
   partitioning per block) and compute the all-FPGA execution time.
2. If the timing constraint is met, exit — no partitioning needed.
3. Analysis: order kernel candidates by descending ``total_weight``
   (Eq. 1).
4. Move kernels one by one to the coarse-grain data-path.  After each
   move, recompute ``t_total = t_FPGA + t_coarse + t_comm`` (Eq. 2, with
   Eq. 3/4 aggregation) and stop as soon as the constraint is satisfied.
   A move whose CGC + communication ticks exceed the kernel's FPGA ticks
   strictly worsens Eq. 2 and is reverted (the paper's commit-always
   behaviour survives behind ``EngineConfig.allow_regressing_moves``).

:class:`~repro.search.greedy.GreedyPartitioner` runs that loop;
the other :mod:`repro.search` algorithms search the same kernel subsets.
All of them take their flags from one :class:`EngineConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    """Tunables of the partitioning loop.

    A config is frozen once its partitioner has run: the partitioner
    bakes the flags into its cached cost table and search state, so it
    snapshots the config at the first ``run()`` / ``initial_cycles()``
    and raises on any later mutation instead of silently ignoring it.
    Build a new partitioner (or a new config) instead.
    """

    #: Move budget: at most this many kernels go to the coarse-grain
    #: fabric (``None`` is unbounded, ``0`` keeps the all-FPGA mapping).
    max_kernels_moved: int | None = None
    stop_at_constraint: bool = True
    skip_unsupported_kernels: bool = True
    #: Charge the reconfiguration penalty even to blocks that fit in one
    #: temporal partition (disables configuration caching; ablation knob).
    charge_single_partition_reconfig: bool = False
    #: Commit kernel moves even when they increase the Eq. 2 total — the
    #: literal Figure 2 loop, which never reverts.  Ablation knob; the
    #: default reverts moves that strictly worsen the total.
    allow_regressing_moves: bool = False

    def __post_init__(self) -> None:
        if self.max_kernels_moved is not None and self.max_kernels_moved < 0:
            raise ValueError("max_kernels_moved must be >= 0")
