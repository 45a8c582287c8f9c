"""Pluggable partitioning algorithms with multi-objective analysis.

The paper prescribes one partitioner — the Figure 2 greedy kernel-move
loop.  This subsystem turns partitioning into a *search problem* over
kernel subsets, all algorithms pricing configurations on one packed
cost table per (workload, platform) pair (:mod:`repro.partition.packed`):

* :class:`GreedyPartitioner` — the paper's loop, the one class that
  runs it (checked against the seed engine's loop in ``tests/oracles/``);
* :class:`ExhaustivePartitioner` — optimal over all kernel subsets,
  computed in closed form from the per-kernel Eq. 2 move deltas; the
  ground truth heuristics are judged against (the optimum obeys one
  rule, :class:`~repro.search.base.Optimum`, and its Pareto front the
  incumbent rule of :class:`~repro.partition.packed.ShapeReduction`);
* :class:`AnnealingPartitioner` — simulated annealing over subsets
  with a fixed temperature schedule and a seed (greedy warm start, so
  never worse than unbounded greedy).

Every search's work is fixed by its table: greedy is O(n), the closed
form O(n²) per row value (capped by ``max_candidates``), and annealing
visits at most 1 + 30·max(8, 4n) configurations.  Nothing needs a time
budget, so there is none.

Every partitioner logs each configuration it visits as a
:class:`VisitedConfiguration` with the three design objectives —
``(total_cycles, moved_kernel_count, cgc_rows_used)`` — and
:func:`pareto_front` reduces any visited set to its non-dominated
configurations.

Algorithms are named declaratively by :class:`AlgorithmSpec` (hashable,
picklable), which :mod:`repro.explore` grids use as a fourth design-
space axis next to workloads, platforms and constraints::

    from repro import paper_platform
    from repro.search import AlgorithmSpec, make_partitioner, pareto_front
    from repro.workloads import ofdm_workload

    partitioner = make_partitioner(
        AlgorithmSpec.annealing(seed=7), ofdm_workload(),
        paper_platform(1500, 2),
    )
    result = partitioner.run(timing_constraint=30_000)
    front = partitioner.pareto_front()
"""

from .annealing import AnnealingPartitioner
from .base import (
    ALGORITHM_NAMES,
    AlgorithmSpec,
    Partitioner,
    make_partitioner,
    register_algorithm,
)
from .exhaustive import ExhaustivePartitioner
from .greedy import GreedyPartitioner
from .pareto import (
    VisitedConfiguration,
    front_of_results,
    pareto_front,
    pareto_front_from_columns,
)

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmSpec",
    "AnnealingPartitioner",
    "ExhaustivePartitioner",
    "GreedyPartitioner",
    "Partitioner",
    "VisitedConfiguration",
    "front_of_results",
    "make_partitioner",
    "pareto_front",
    "pareto_front_from_columns",
    "register_algorithm",
]
