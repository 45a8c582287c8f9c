"""CGC data-path tests: model, scheduler, binding, timing."""

import pytest

from repro.coarsegrain import (
    CGC,
    CGCDatapath,
    CGCGeometry,
    UnsupportedOperationError,
    bind_schedule,
    block_cgc_timing,
    cgc_node_executable,
    make_cgc_array,
    schedule_dfg,
    speedup_over_fpga,
    standard_datapath,
)
from repro.frontend.ast_nodes import Type
from repro.ir import (
    ArrayBase,
    BasicBlock,
    Const,
    DataFlowGraph,
    Instruction,
    Opcode,
    Temp,
)
from repro.platform import default_characterization
from repro.workloads import SyntheticBlockProfile, generate_dfg


def t(i):
    return Temp(i, Type.INT)


def make_dfg(instructions):
    block = BasicBlock("t")
    for ins in instructions:
        block.append(ins)
    block.append(Instruction(Opcode.RET))
    return DataFlowGraph(block)


def chain_dfg(n):
    ins = [Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(1)))]
    for i in range(1, n):
        ins.append(Instruction(Opcode.ADD, dest=t(i), operands=(t(i - 1), Const(1))))
    return make_dfg(ins)


def wide_dfg(n):
    return make_dfg(
        [
            Instruction(Opcode.ADD, dest=t(i), operands=(Const(i), Const(1)))
            for i in range(n)
        ]
    )


class TestModel:
    def test_geometry_node_count(self):
        assert CGCGeometry(2, 2).node_count == 4
        assert CGCGeometry(3, 4).node_count == 12

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CGCGeometry(0, 2)

    def test_chain_depth_is_rows(self):
        assert CGC(0, CGCGeometry(3, 2)).chain_depth == 3

    def test_make_array(self):
        cgcs = make_cgc_array(3)
        assert len(cgcs) == 3
        assert all(c.geometry == CGCGeometry(2, 2) for c in cgcs)

    def test_datapath_slots(self):
        assert standard_datapath(2).node_slots_per_cycle == 8
        assert standard_datapath(3).node_slots_per_cycle == 12

    def test_describe(self):
        assert standard_datapath(2).describe() == "two 2x2"
        assert standard_datapath(3).describe() == "three 2x2"

    def test_executable_classification(self):
        assert cgc_node_executable(Opcode.ADD)
        assert cgc_node_executable(Opcode.MUL)
        assert not cgc_node_executable(Opcode.DIV)
        assert not cgc_node_executable(Opcode.CALL)

    def test_unsupported_dfg_detected(self):
        dfg = make_dfg(
            [Instruction(Opcode.DIV, dest=t(0), operands=(Const(6), Const(2)))]
        )
        datapath = standard_datapath(2)
        assert not datapath.supports_dfg(dfg)
        with pytest.raises(UnsupportedOperationError):
            datapath.reject_unsupported(dfg)

    def test_invalid_datapath(self):
        with pytest.raises(ValueError):
            CGCDatapath(cgcs=[])
        with pytest.raises(ValueError):
            CGCDatapath(memory_ports=0)
        with pytest.raises(ValueError):
            CGCDatapath(memory_latency=0)


class TestScheduler:
    def test_single_op(self):
        schedule = schedule_dfg(wide_dfg(1), standard_datapath(2))
        assert schedule.makespan == 1

    def test_wide_dfg_limited_by_slots(self):
        # 16 independent ops on 8 slots => 2 cycles.
        schedule = schedule_dfg(wide_dfg(16), standard_datapath(2))
        assert schedule.makespan == 2

    def test_more_cgcs_help_wide_dfgs(self):
        two = schedule_dfg(wide_dfg(24), standard_datapath(2)).makespan
        three = schedule_dfg(wide_dfg(24), standard_datapath(3)).makespan
        assert three < two

    def test_chain_halved_by_chaining(self):
        # Chain of 10 dependent ops, chain depth 2 => 5 cycles.
        schedule = schedule_dfg(chain_dfg(10), standard_datapath(2))
        assert schedule.makespan == 5

    def test_deeper_rows_chain_more(self):
        deep = CGCDatapath(cgcs=make_cgc_array(1, rows=4, cols=2))
        schedule = schedule_dfg(chain_dfg(12), deep)
        assert schedule.makespan == 3

    def test_chain_stays_in_one_cgc(self):
        schedule = schedule_dfg(chain_dfg(10), standard_datapath(2))
        for src, dst in schedule.dfg.edges():
            a, b = schedule.ops[src], schedule.ops[dst]
            if a.cycle == b.cycle:
                assert a.cgc_index == b.cgc_index

    def test_validate_accepts_all(self):
        for n in (1, 5, 9, 17):
            schedule_dfg(wide_dfg(n), standard_datapath(2)).validate()

    def test_memory_latency_respected(self):
        a = ArrayBase("g", Type.INT)  # shared
        dfg = make_dfg(
            [
                Instruction(Opcode.LOAD, dest=t(0), operands=(a, Const(0))),
                Instruction(Opcode.ADD, dest=t(1), operands=(t(0), Const(1))),
            ]
        )
        datapath = standard_datapath(2)  # latency 3
        schedule = schedule_dfg(dfg, datapath)
        load, add = schedule.ops[0], schedule.ops[1]
        assert add.cycle >= load.cycle + 3

    def test_local_memory_fast(self):
        a = ArrayBase("buf", Type.INT, local=True)
        dfg = make_dfg(
            [
                Instruction(Opcode.LOAD, dest=t(0), operands=(a, Const(0))),
                Instruction(Opcode.ADD, dest=t(1), operands=(t(0), Const(1))),
            ]
        )
        schedule = schedule_dfg(dfg, standard_datapath(2))
        assert schedule.ops[1].cycle == schedule.ops[0].cycle + 1

    def test_memory_port_contention(self):
        a = ArrayBase("g", Type.INT)
        loads = [
            Instruction(Opcode.LOAD, dest=t(i), operands=(a, Const(i)))
            for i in range(6)
        ]
        one_port = CGCDatapath(cgcs=make_cgc_array(2), memory_ports=1)
        two_ports = CGCDatapath(cgcs=make_cgc_array(2), memory_ports=2)
        slow = schedule_dfg(make_dfg(list(loads)), one_port).makespan
        fast = schedule_dfg(make_dfg(list(loads)), two_ports).makespan
        assert slow == 18 and fast == 9

    def test_mem_never_chains(self):
        schedule = schedule_dfg(
            generate_dfg(
                SyntheticBlockProfile(
                    bb_id=901, exec_freq=1, alu_ops=8, mul_ops=2,
                    load_ops=6, store_ops=2,
                )
            ),
            standard_datapath(2),
        )
        for op in schedule.ops.values():
            if op.unit == "mem":
                assert op.chain_depth == 0

    def test_moves_free(self):
        dfg = make_dfg(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(2))),
                Instruction(Opcode.COPY, dest=t(1), operands=(t(0),)),
                Instruction(Opcode.ADD, dest=t(2), operands=(t(1), Const(3))),
            ]
        )
        schedule = schedule_dfg(dfg, standard_datapath(2))
        # copy is transparent: chain of 2 computes + move fits in one cycle
        assert schedule.makespan == 1

    def test_empty_dfg(self):
        block = BasicBlock("e")
        block.append(Instruction(Opcode.RET))
        schedule = schedule_dfg(DataFlowGraph(block), standard_datapath(2))
        assert schedule.makespan == 0


class TestBinding:
    def test_bind_small(self):
        schedule = schedule_dfg(wide_dfg(6), standard_datapath(2))
        binding = bind_schedule(schedule)
        binding.validate()
        assert len(binding.node_bindings) == 6

    def test_no_double_booking(self):
        schedule = schedule_dfg(wide_dfg(16), standard_datapath(2))
        binding = bind_schedule(schedule)
        seen = set()
        for nb in binding.node_bindings.values():
            key = (nb.cycle, nb.cgc_index, nb.row, nb.col)
            assert key not in seen
            seen.add(key)

    def test_register_pressure_bounded(self):
        profile = SyntheticBlockProfile(
            bb_id=902, exec_freq=1, alu_ops=20, mul_ops=6,
            load_ops=8, store_ops=3, width=3.0,
        )
        schedule = schedule_dfg(generate_dfg(profile), standard_datapath(2))
        binding = bind_schedule(schedule)
        assert binding.registers.max_live <= 64

    def test_binding_matches_schedule_cgc(self):
        schedule = schedule_dfg(chain_dfg(8), standard_datapath(2))
        binding = bind_schedule(schedule)
        for node_id, nb in binding.node_bindings.items():
            assert nb.cgc_index == schedule.ops[node_id].cgc_index


class TestTiming:
    def test_block_timing_counts(self):
        profile = SyntheticBlockProfile(
            bb_id=903, exec_freq=1, alu_ops=10, mul_ops=5,
            load_ops=4, store_ops=2,
        )
        timing = block_cgc_timing(generate_dfg(profile), standard_datapath(2))
        assert timing.compute_ops == 15
        assert timing.memory_ops == 6
        assert timing.cgc_cycles >= 1

    def test_fpga_cycle_conversion(self):
        char = default_characterization()
        timing = block_cgc_timing(chain_dfg(6), standard_datapath(2))
        assert timing.fpga_cycles(char) == timing.cgc_cycles / 3

    def test_application_aggregation(self):
        from repro.coarsegrain import application_cgc_ticks

        timing = block_cgc_timing(chain_dfg(6), standard_datapath(2))
        assert application_cgc_ticks({1: timing}, {1: 7}) == timing.cgc_cycles * 7

    def test_speedup_helper(self):
        char = default_characterization()
        assert speedup_over_fpga(30, 30, char) == pytest.approx(3.0)
        assert speedup_over_fpga(10, 0, char) == float("inf")
