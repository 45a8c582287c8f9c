"""Scaling bench: warm constraint sweeps and parallel grids.

The greedy partitioner prices every block once into a packed table and
warm-starts each constraint of a sweep from the cached greedy
trajectory, so a (constraints × moves) sweep touches each block's cost
O(1) times.  This
bench times a warm 6-constraint sweep over a 120-block synthetic
workload and checks that extra constraints add no pricing work; the
slow (opt-in) bench fans a full design-space grid out across worker
processes.
"""

import pytest

from repro.explore import DesignSpace, WorkloadSpec, explore
from repro.platform import paper_platform
from repro.reporting import render_exploration
from repro.search import GreedyPartitioner
from repro.workloads import synthetic_application

CONSTRAINT_FRACTIONS = (0.95, 0.9, 0.8, 0.7, 0.6, 0.5)


@pytest.fixture(scope="module")
def big_synthetic():
    return synthetic_application(120, seed=7, comm_intensity=0.6)


def test_incremental_sweep_speed(benchmark, big_synthetic):
    """Wall-clock of a warm 6-constraint sweep on 120 blocks."""
    partitioner = GreedyPartitioner(big_synthetic, paper_platform(3000, 2))
    initial = partitioner.initial_cycles()
    constraints = [max(1, round(initial * f)) for f in CONSTRAINT_FRACTIONS]
    partitioner.run(1)  # build trajectory once; bench measures warm replays

    results = benchmark(partitioner.sweep, constraints)
    assert len(results) == len(constraints)


def test_warm_start_adds_no_evaluations(big_synthetic):
    """Extra constraints after the first sweep are free replays."""
    partitioner = GreedyPartitioner(big_synthetic, paper_platform(3000, 2))
    initial = partitioner.initial_cycles()
    partitioner.run(1)
    lookups = partitioner.stats.contribution_lookups
    partitioner.sweep([max(1, round(initial * f)) for f in CONSTRAINT_FRACTIONS])
    assert partitioner.stats.contribution_lookups == lookups


@pytest.mark.slow
def test_parallel_grid_exploration(capsys):
    """Fan a (3 workloads x 6 platforms x 4 constraints) grid across
    worker processes and compare against the serial run."""
    import time

    workloads = [
        WorkloadSpec.synthetic(100, seed=s, comm_intensity=0.5)
        for s in (1, 2, 3)
    ]
    space = DesignSpace.grid(
        workloads,
        afpga_values=(1500, 3000, 5000),
        cgc_counts=(2, 3),
        constraint_fractions=(0.9, 0.75, 0.6, 0.5),
    )

    # Parallel first: forked workers must build their own workloads, so
    # neither run benefits from the other's per-process cache.
    started = time.perf_counter()
    parallel = explore(space, max_workers=4)
    parallel_seconds = time.perf_counter() - started

    started = time.perf_counter()
    serial = explore(space, max_workers=1)
    serial_seconds = time.perf_counter() - started

    assert parallel.results == serial.results
    with capsys.disabled():
        print(f"\n{render_exploration(parallel)}")
        print(
            f"  serial {serial_seconds:.2f}s vs "
            f"{parallel.workers_used} workers {parallel_seconds:.2f}s"
        )
