"""Partitioning tests: workload, communication, the Figure 2 loop."""

import pytest

from repro.analysis import WeightModel
from repro.partition import (
    ApplicationWorkload,
    BlockWorkload,
    EngineConfig,
    kernel_communication,
    total_communication_cycles,
    workload_from_cdfg,
)
from repro.analysis import profile_cdfg
from repro.ir import cdfg_from_source
from repro.platform import Interconnect, SharedMemory, paper_platform
from repro.search import GreedyPartitioner
from repro.workloads import SyntheticBlockProfile, generate_dfg, make_profile


def block(bb_id, freq, weight, **kwargs):
    profile = make_profile(bb_id, freq, weight, **kwargs)
    return BlockWorkload(
        bb_id=bb_id,
        exec_freq=freq,
        dfg=generate_dfg(profile),
        comm_words_in=profile.live_in_words,
        comm_words_out=profile.live_out_words,
    )


@pytest.fixture
def tiny_workload():
    return ApplicationWorkload(
        name="tiny",
        blocks=[
            block(1, 500, 40, mul_fraction=0.4, width=2.0),
            block(2, 300, 12),
            block(3, 50, 6),
        ],
    )


class TestWorkload:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ApplicationWorkload(
                name="dup", blocks=[block(1, 1, 3), block(1, 2, 4)]
            )

    def test_block_lookup(self, tiny_workload):
        assert tiny_workload.block(2).exec_freq == 300
        with pytest.raises(KeyError):
            tiny_workload.block(9)

    def test_kernel_ordering(self, tiny_workload):
        model = WeightModel()
        order = [b.bb_id for b in tiny_workload.kernel_candidates(model)]
        assert order == [1, 2, 3]  # 20000 > 3600 > 300

    def test_analysis_rows_shape(self, tiny_workload):
        rows = tiny_workload.analysis_rows(WeightModel(), 2)
        assert rows[0] == (1, 500, 40, 20000)

    def test_iterations_map(self, tiny_workload):
        assert tiny_workload.iterations() == {1: 500, 2: 300, 3: 50}

    def test_from_cdfg_excludes_unexecuted(self):
        src = """
        int f(int x) {
            int s = 0;
            for (int i = 0; i < x; i++) { s += i * i; }
            if (x < 0) { s = -s; }
            return s;
        }
        """
        cdfg = cdfg_from_source(src)
        profile = profile_cdfg(cdfg, "f", 10)
        workload = workload_from_cdfg(cdfg, profile, "app")
        ids = {b.bb_id for b in workload.blocks}
        then_id = next(
            b.bb_id for b in cdfg.all_blocks() if "then" in b.label
        )
        assert then_id not in ids  # x<0 branch never ran

    def test_from_cdfg_kernels_in_loops(self):
        src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }"
        cdfg = cdfg_from_source(src)
        workload = workload_from_cdfg(cdfg, profile_cdfg(cdfg, "f", 5), "app")
        kernels = workload.kernel_candidates(WeightModel())
        labels = {cdfg.key_for_id(k.bb_id).label for k in kernels}
        assert all("while" in lab for lab in labels)

    def test_negative_freq_rejected(self):
        profile = make_profile(1, 1, 3)
        with pytest.raises(ValueError):
            BlockWorkload(bb_id=1, exec_freq=-1, dfg=generate_dfg(profile))


class TestCommunication:
    def test_per_invocation_cost(self):
        b = block(1, 10, 5, live=(3, 2))
        memory = SharedMemory(ports=2)
        net = Interconnect(setup_cycles=1)
        cost = kernel_communication(b, memory, net)
        # read ceil(3/2)=2 + write ceil(2/2)=1 + 2 bursts x setup 1 = 5
        assert cost.cycles_per_invocation == 5
        assert cost.total_cycles == 50

    def test_zero_words_only_pay_nothing(self):
        profile = SyntheticBlockProfile(
            bb_id=5, exec_freq=10, alu_ops=3, mul_ops=0,
            live_in_words=0, live_out_words=0,
        )
        b = BlockWorkload(
            bb_id=5, exec_freq=10, dfg=generate_dfg(profile),
            comm_words_in=0, comm_words_out=0,
        )
        cost = kernel_communication(b, SharedMemory(), Interconnect())
        assert cost.total_cycles == 0

    def test_total_aggregation(self):
        b1 = block(1, 10, 5)
        b2 = block(2, 5, 5)
        memory, net = SharedMemory(), Interconnect(setup_cycles=0)
        costs = [
            kernel_communication(b1, memory, net),
            kernel_communication(b2, memory, net),
        ]
        assert total_communication_cycles(costs) == sum(
            c.total_cycles for c in costs
        )


class TestEngine:
    def test_initial_cycles_stable(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        assert partitioner.initial_cycles() == partitioner.initial_cycles()

    def test_constraint_already_met_moves_nothing(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        initial = partitioner.initial_cycles()
        result = partitioner.run(initial + 1)
        assert result.constraint_met
        assert result.moved_bb_ids == []
        assert result.final_cycles == initial

    def test_moves_heaviest_first(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        result = partitioner.run(1)  # unreachable constraint -> move all
        assert result.moved_bb_ids == [1, 2, 3]
        assert not result.constraint_met

    def test_stops_at_constraint(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        all_moved = partitioner.run(1)
        # pick a constraint met after the first move
        first_total = all_moved.steps[0].total_cycles
        result = GreedyPartitioner(
            tiny_workload, paper_platform(1500, 2)
        ).run(first_total)
        assert result.moved_bb_ids == [1]
        assert result.constraint_met

    def test_steps_recorded_monotone_totals(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        result = partitioner.run(1)
        assert len(result.steps) == 3
        totals = [s.total_cycles for s in result.steps]
        assert totals == sorted(totals, reverse=True)

    def test_eq2_consistency(self, tiny_workload):
        """final = t_FPGA + t_coarse + t_comm (within rounding)."""
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        result = partitioner.run(1)
        recomposed = (
            result.fpga_cycles + result.cycles_in_cgc + result.comm_cycles
        )
        assert abs(recomposed - result.final_cycles) <= 3  # ceil rounding

    def test_max_kernels_config(self, tiny_workload):
        config = EngineConfig(max_kernels_moved=1)
        partitioner = GreedyPartitioner(
            tiny_workload, paper_platform(1500, 2), config=config
        )
        result = partitioner.run(1)
        assert len(result.moved_bb_ids) == 1

    def test_reduction_percent(self, tiny_workload):
        result = GreedyPartitioner(
            tiny_workload, paper_platform(1500, 2)
        ).run(1)
        expected = 100.0 * (result.initial_cycles - result.final_cycles) / (
            result.initial_cycles
        )
        assert result.reduction_percent == pytest.approx(expected)

    def test_invalid_constraint(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        with pytest.raises(ValueError):
            partitioner.run(0)

    def test_unsupported_kernel_skipped(self):
        # A DFG with a DIV cannot run on the CGC; engine should skip it.
        src = "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += 100 / i; } return s; }"
        cdfg = cdfg_from_source(src)
        workload = workload_from_cdfg(cdfg, profile_cdfg(cdfg, "f", 10), "div")
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        result = partitioner.run(1)
        assert result.skipped_bb_ids

    def test_unsupported_kernel_raises_when_strict(self):
        src = "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += 100 / i; } return s; }"
        cdfg = cdfg_from_source(src)
        workload = workload_from_cdfg(cdfg, profile_cdfg(cdfg, "f", 10), "div")
        config = EngineConfig(skip_unsupported_kernels=False)
        partitioner = GreedyPartitioner(
            workload, paper_platform(1500, 2), config=config
        )
        with pytest.raises(ValueError):
            partitioner.run(1)

    def test_sweep_shares_cache(self, tiny_workload):
        partitioner = GreedyPartitioner(tiny_workload, paper_platform(1500, 2))
        results = partitioner.sweep([1, 10**9])
        assert not results[0].constraint_met or results[0].moved_bb_ids
        assert results[1].constraint_met and results[1].moved_bb_ids == []

    def test_result_table_row(self, tiny_workload):
        result = GreedyPartitioner(
            tiny_workload, paper_platform(1500, 2)
        ).run(1)
        row = result.table_row()
        assert set(row) == {
            "initial_cycles",
            "cycles_in_cgc",
            "bb_no",
            "final_cycles",
            "reduction_percent",
        }

    def test_summary_readable(self, tiny_workload):
        result = GreedyPartitioner(
            tiny_workload, paper_platform(1500, 2)
        ).run(1)
        text = result.summary()
        assert "tiny" in text and "BBs moved" in text
