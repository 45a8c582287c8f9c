"""Packed search vs. the object reference walks.

The acceptance contract of the packed substrate: on every registered
workload (the paper apps, the filter bank and Viterbi decoder, and the
synthetic skew / communication / size families) and every algorithm,
the production partitioners and the object walks in ``tests/oracles``
produce identical :class:`PartitionResult` records, Pareto fronts and
visit logs.
"""

import dataclasses

import pytest

from oracles import expected_log, object_partitioner
from repro.explore import WorkloadSpec
from repro.partition import EngineConfig
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, make_partitioner

# Every registered workload family (suite registry coverage), built once
# per module.  Exhaustive runs under a move budget on the larger ones so
# the object reference enumeration stays tractable.
WORKLOAD_SPECS = (
    WorkloadSpec.ofdm(),
    WorkloadSpec.jpeg(),
    WorkloadSpec.filterbank(),
    WorkloadSpec.viterbi(),
    WorkloadSpec.synthetic(32, seed=1, weight_skew=3.0),   # skew axis
    WorkloadSpec.synthetic(32, seed=1, weight_skew=1.0),
    WorkloadSpec.synthetic(24, seed=2, comm_intensity=0.1),  # comm axis
    WorkloadSpec.synthetic(24, seed=2, comm_intensity=1.5),
    WorkloadSpec.synthetic(12, seed=4),                     # size axis
    WorkloadSpec.synthetic(96, seed=4),
)

ALGORITHM_SPECS = (
    AlgorithmSpec.greedy(),
    # Explicit cap: the differential property is per-cap, and the
    # defaults deliberately differ (256 packed / 16 object reference).
    # The move budget below keeps the object DFS pruned on kernel-rich
    # workloads.
    AlgorithmSpec.exhaustive(max_candidates=128),
    AlgorithmSpec.annealing(seed=7),
)


@pytest.fixture(scope="module")
def workloads():
    return {spec.label: spec.build() for spec in WORKLOAD_SPECS}


@pytest.fixture(scope="module")
def platform():
    return paper_platform(1500, 2)


def _config(algorithm: AlgorithmSpec) -> EngineConfig:
    # Exhaustive needs a budget on kernel-rich workloads: the object
    # reference enumerates subsets one Python call at a time.
    budget = 2 if algorithm.name == "exhaustive" else None
    return EngineConfig(max_kernels_moved=budget)


@pytest.mark.parametrize(
    "workload_label", [spec.label for spec in WORKLOAD_SPECS]
)
@pytest.mark.parametrize(
    "algorithm", ALGORITHM_SPECS, ids=[s.name for s in ALGORITHM_SPECS]
)
def test_substrates_are_bit_identical(
    workloads, platform, workload_label, algorithm
):
    workload = workloads[workload_label]
    packed = make_partitioner(
        algorithm, workload, platform, config=_config(algorithm)
    )
    reference = object_partitioner(
        algorithm, workload, platform, config=_config(algorithm)
    )
    initial = packed.initial_cycles()
    assert initial == reference.initial_cycles()
    constraints = [1, max(1, initial // 2)]
    packed_results = packed.sweep(constraints)
    reference_results = reference.sweep(constraints)
    assert packed_results == reference_results
    for packed_result in packed_results:
        assert packed_result.final_cycles <= packed_result.initial_cycles
    assert packed.pareto_front() == reference.pareto_front()
    if algorithm.name == "exhaustive":
        # The closed form logs the all-FPGA corner, the optimum and one
        # representative per shape of the object walk's visits.
        assert set(packed.visited) == expected_log(
            reference.visited, packed_results[0].moved_bb_ids
        )
    else:
        assert packed.visited_count == reference.visited_count
        assert packed.visited == reference.visited


def test_exhaustive_default_cap_is_substrate_aware(workloads, platform):
    """OFDM has 18 supported kernels: within the packed default cap of
    256 (the closed form is polynomial), beyond the object reference's
    default of 16 (where 2^18 subsets of object churn is a guard-worthy
    mistake).  Explicitly raised, the reference agrees."""
    workload = workloads["ofdm-transmitter"]
    packed = make_partitioner(AlgorithmSpec.exhaustive(), workload, platform)
    assert packed.run(1).final_cycles <= packed.run(1).initial_cycles
    reference = object_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform
    )
    with pytest.raises(ValueError, match="exceed the exhaustive limit"):
        reference.run(1)
    raised = object_partitioner(
        AlgorithmSpec.exhaustive(max_candidates=18), workload, platform
    )
    assert raised.run(1) == packed.run(1)


def test_unknown_substrate_rejected():
    """The packed table is the only substrate: the config has no switch."""
    with pytest.raises(TypeError, match="substrate"):
        EngineConfig(substrate="object")
    assert len(dataclasses.fields(EngineConfig)) == 5


def test_injected_table_matches_derived(workloads, platform):
    """A pre-derived (even pickled) table yields identical results."""
    import pickle

    from repro.partition import CostModel, PackedCostTable

    workload = workloads["ofdm-transmitter"]
    table = PackedCostTable.from_model(CostModel(workload, platform))
    shipped = pickle.loads(pickle.dumps(table))
    for algorithm in ALGORITHM_SPECS:
        direct = make_partitioner(
            algorithm, workload, platform, config=_config(algorithm)
        )
        injected = make_partitioner(
            algorithm, workload, platform,
            config=_config(algorithm), packed_table=shipped,
        )
        assert injected.run(1) == direct.run(1)
        assert injected.pareto_front() == direct.pareto_front()
        # The injected-table partitioner never had to price a block.
        assert injected.stats.blocks_mapped == 0


def test_exhaustive_unbudgeted_gray_walk_matches_object(platform):
    """The closed form (no budget) against the object DFS on a workload
    small enough to enumerate."""
    workload = WorkloadSpec.synthetic(
        12, seed=3, kernel_fraction=0.8, comm_intensity=0.8
    ).build()
    config = EngineConfig(stop_at_constraint=False)
    packed = make_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform, config=config
    )
    reference = object_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform, config=config
    )
    result = packed.run(1)
    assert result == reference.run(1)
    assert set(packed.visited) == expected_log(
        reference.visited, result.moved_bb_ids
    )
    assert packed.pareto_front() == reference.pareto_front()
