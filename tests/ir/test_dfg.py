"""Data-flow graph construction and level tests."""

from nx_views import is_acyclic, to_networkx

from repro.frontend.ast_nodes import Type
from repro.ir import (
    ArrayBase,
    BasicBlock,
    Const,
    DataFlowGraph,
    DFGStatistics,
    Instruction,
    Opcode,
    Temp,
    VarRef,
)


def block_of(instructions):
    block = BasicBlock("t")
    for ins in instructions:
        block.append(ins)
    block.append(Instruction(Opcode.RET))
    return block


def t(i):
    return Temp(i, Type.INT)


class TestEdges:
    def test_temp_def_use_edge(self):
        block = block_of(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(2))),
                Instruction(Opcode.MUL, dest=t(1), operands=(t(0), Const(3))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.has_edge(0, 1)

    def test_var_def_use_edge(self):
        block = block_of(
            [
                Instruction(Opcode.COPY, dest=VarRef("x", Type.INT), operands=(Const(1),)),
                Instruction(Opcode.ADD, dest=t(0), operands=(VarRef("x", Type.INT), Const(2))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.has_edge(0, 1)

    def test_live_in_scalar_detected(self):
        block = block_of(
            [Instruction(Opcode.ADD, dest=t(0), operands=(VarRef("inp", Type.INT), Const(1)))]
        )
        dfg = DataFlowGraph(block)
        assert "inp" in dfg.live_in_scalars

    def test_live_out_scalar_detected(self):
        block = block_of(
            [Instruction(Opcode.COPY, dest=VarRef("out", Type.INT), operands=(Const(1),))]
        )
        dfg = DataFlowGraph(block)
        assert "out" in dfg.live_out_scalars

    def test_store_load_raw_edge(self):
        a = ArrayBase("a", Type.INT)
        block = block_of(
            [
                Instruction(Opcode.STORE, operands=(a, Const(0), Const(7))),
                Instruction(Opcode.LOAD, dest=t(0), operands=(a, Const(0))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.has_edge(0, 1)

    def test_load_store_war_edge(self):
        a = ArrayBase("a", Type.INT)
        block = block_of(
            [
                Instruction(Opcode.LOAD, dest=t(0), operands=(a, Const(0))),
                Instruction(Opcode.STORE, operands=(a, Const(0), Const(7))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.has_edge(0, 1)

    def test_store_store_waw_edge(self):
        a = ArrayBase("a", Type.INT)
        block = block_of(
            [
                Instruction(Opcode.STORE, operands=(a, Const(0), Const(1))),
                Instruction(Opcode.STORE, operands=(a, Const(1), Const(2))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.has_edge(0, 1)

    def test_different_arrays_independent(self):
        a, b = ArrayBase("a", Type.INT), ArrayBase("b", Type.INT)
        block = block_of(
            [
                Instruction(Opcode.STORE, operands=(a, Const(0), Const(1))),
                Instruction(Opcode.STORE, operands=(b, Const(0), Const(2))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert not dfg.has_edge(0, 1)

    def test_acyclic(self, sample_cdfg):
        for key in sample_cdfg.all_block_keys():
            assert is_acyclic(sample_cdfg.dfg(key))


class TestLevels:
    def _chain(self, n):
        ins = [Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(1)))]
        for i in range(1, n):
            ins.append(
                Instruction(Opcode.ADD, dest=t(i), operands=(t(i - 1), Const(1)))
            )
        return DataFlowGraph(block_of(ins))

    def test_chain_levels(self):
        dfg = self._chain(5)
        levels = dfg.asap_levels()
        assert [levels[i] for i in range(5)] == [1, 2, 3, 4, 5]

    def test_max_level(self):
        assert self._chain(7).max_level == 7

    def test_parallel_nodes_share_level(self):
        block = block_of(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(2))),
                Instruction(Opcode.SUB, dest=t(1), operands=(Const(3), Const(4))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.parallelism_profile() == [2]

    def test_alap_levels_sink_at_depth(self):
        dfg = self._chain(3)
        alap = dfg.alap_levels()
        assert alap[2] == 3

    def test_slack_zero_on_critical_path(self):
        dfg = self._chain(4)
        assert all(s == 0 for s in dfg.slack().values())

    def test_slack_positive_off_critical_path(self):
        block = block_of(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(1))),
                Instruction(Opcode.ADD, dest=t(1), operands=(t(0), Const(1))),
                Instruction(Opcode.ADD, dest=t(2), operands=(t(1), Const(1))),
                # independent single op: slack 2
                Instruction(Opcode.SUB, dest=t(3), operands=(Const(5), Const(1))),
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.slack()[3] == 2

    def test_levels_group_count(self):
        dfg = self._chain(4)
        assert len(dfg.levels()) == 4

    def test_empty_block(self):
        dfg = DataFlowGraph(block_of([]))
        assert len(dfg) == 0 and dfg.max_level == 0
        assert dfg.parallelism_profile() == []


class TestStatistics:
    def test_histogram(self):
        block = block_of(
            [
                Instruction(Opcode.MUL, dest=t(0), operands=(Const(2), Const(3))),
                Instruction(Opcode.ADD, dest=t(1), operands=(t(0), Const(1))),
                Instruction(
                    Opcode.STORE,
                    operands=(ArrayBase("a", Type.INT), Const(0), t(1)),
                ),
            ]
        )
        stats = DFGStatistics.from_dfg(DataFlowGraph(block))
        assert stats.mul_ops == 1 and stats.alu_ops == 1
        assert stats.memory_count == 1
        assert stats.compute_count == 2

    def test_communication_words(self):
        block = block_of(
            [
                Instruction(
                    Opcode.ADD,
                    dest=VarRef("y", Type.INT),
                    operands=(VarRef("x", Type.INT), Const(1)),
                )
            ]
        )
        dfg = DataFlowGraph(block)
        assert dfg.communication_words() == 2  # x in, y out

    def test_networkx_export(self, sample_cdfg):
        key = sample_cdfg.all_block_keys()[0]
        graph = to_networkx(sample_cdfg.dfg(key))
        assert graph.number_of_nodes() == len(sample_cdfg.dfg(key))
