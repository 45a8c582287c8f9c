"""Optimization pass and opcode-semantics tests."""


import pytest

from repro.frontend.ast_nodes import Type
from repro.ir import (
    BasicBlock,
    Const,
    Instruction,
    Opcode,
    Temp,
    VarRef,
    cdfg_from_source,
    evaluate_opcode,
    optimize_cdfg,
    run_block_passes,
)
from repro.ir.passes import (
    eliminate_dead_code_in_block,
    fold_constants_in_block,
    propagate_copies_in_block,
)


def t(i):
    return Temp(i, Type.INT)


def make_block(instructions):
    block = BasicBlock("b")
    for ins in instructions:
        block.append(ins)
    block.append(Instruction(Opcode.RET))
    return block


class TestOpcodeSemantics:
    @pytest.mark.parametrize(
        "opcode,args,expected",
        [
            (Opcode.ADD, (2, 3), 5),
            (Opcode.SUB, (2, 3), -1),
            (Opcode.MUL, (4, 5), 20),
            (Opcode.DIV, (7, 2), 3),
            (Opcode.DIV, (-7, 2), -3),  # C truncation, not Python floor
            (Opcode.MOD, (7, 3), 1),
            (Opcode.MOD, (-7, 3), -1),  # C sign convention
            (Opcode.SHL, (1, 4), 16),
            (Opcode.SHR, (-8, 1), -4),  # arithmetic shift
            (Opcode.AND, (0b1100, 0b1010), 0b1000),
            (Opcode.OR, (0b1100, 0b1010), 0b1110),
            (Opcode.XOR, (0b1100, 0b1010), 0b0110),
            (Opcode.NEG, (5,), -5),
            (Opcode.BNOT, (0,), -1),
            (Opcode.LNOT, (0,), 1),
            (Opcode.LNOT, (3,), 0),
            (Opcode.LT, (1, 2), 1),
            (Opcode.GE, (1, 2), 0),
            (Opcode.EQ, (2, 2), 1),
            (Opcode.SELECT, (1, 10, 20), 10),
            (Opcode.SELECT, (0, 10, 20), 20),
            (Opcode.ABS, (-4,), 4),
            (Opcode.MIN, (3, 7), 3),
            (Opcode.MAX, (3, 7), 7),
            (Opcode.ROUND, (2.5,), 3),   # half away from zero
            (Opcode.ROUND, (-2.5,), -3),
            (Opcode.I2F, (3,), 3.0),
            (Opcode.F2I, (3.9,), 3),
            (Opcode.F2I, (-3.9,), -3),
        ],
    )
    def test_evaluate(self, opcode, args, expected):
        assert evaluate_opcode(opcode, args) == expected

    def test_sqrt(self):
        assert evaluate_opcode(Opcode.SQRT, (9.0,)) == pytest.approx(3.0)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            evaluate_opcode(Opcode.DIV, (1, 0))

    def test_float_division(self):
        assert evaluate_opcode(Opcode.DIV, (7.0, 2)) == 3.5

    def test_non_value_op_rejected(self):
        with pytest.raises(ValueError):
            evaluate_opcode(Opcode.LOAD, (0,))


class TestConstantFolding:
    def test_fold_simple(self):
        block = make_block(
            [Instruction(Opcode.ADD, dest=t(0), operands=(Const(2), Const(3)))]
        )
        assert fold_constants_in_block(block) == 1
        assert block.instructions[0].opcode is Opcode.COPY
        assert block.instructions[0].operands[0] == Const(5)

    def test_fold_cascades(self):
        block = make_block(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(2), Const(3))),
                Instruction(Opcode.MUL, dest=t(1), operands=(t(0), Const(4))),
            ]
        )
        assert fold_constants_in_block(block) == 2
        assert block.instructions[1].operands[0] == Const(20)

    def test_division_by_zero_not_folded(self):
        block = make_block(
            [Instruction(Opcode.DIV, dest=t(0), operands=(Const(1), Const(0)))]
        )
        assert fold_constants_in_block(block) == 0
        assert block.instructions[0].opcode is Opcode.DIV

    def test_non_const_untouched(self):
        block = make_block(
            [
                Instruction(
                    Opcode.ADD,
                    dest=t(0),
                    operands=(VarRef("x", Type.INT), Const(1)),
                )
            ]
        )
        assert fold_constants_in_block(block) == 0


class TestCopyPropagation:
    def test_propagates_temp_copy(self):
        block = make_block(
            [
                Instruction(Opcode.COPY, dest=t(0), operands=(Const(7),)),
                Instruction(Opcode.ADD, dest=t(1), operands=(t(0), Const(1))),
            ]
        )
        propagate_copies_in_block(block)
        assert block.instructions[1].operands[0] == Const(7)

    def test_chained_copies(self):
        block = make_block(
            [
                Instruction(Opcode.COPY, dest=t(0), operands=(Const(7),)),
                Instruction(Opcode.COPY, dest=t(1), operands=(t(0),)),
                Instruction(Opcode.ADD, dest=t(2), operands=(t(1), Const(1))),
            ]
        )
        propagate_copies_in_block(block)
        assert block.instructions[2].operands[0] == Const(7)


class TestDeadCodeElimination:
    def test_removes_unused_temp(self):
        block = make_block(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(2))),
                Instruction(
                    Opcode.COPY,
                    dest=VarRef("out", Type.INT),
                    operands=(Const(9),),
                ),
            ]
        )
        assert eliminate_dead_code_in_block(block) == 1
        assert len(block.body) == 1

    def test_keeps_calls(self):
        block = make_block(
            [Instruction(Opcode.CALL, dest=t(0), operands=(), callee="g")]
        )
        assert eliminate_dead_code_in_block(block) == 0

    def test_keeps_varref_writes(self):
        block = make_block(
            [
                Instruction(
                    Opcode.COPY,
                    dest=VarRef("x", Type.INT),
                    operands=(Const(1),),
                )
            ]
        )
        assert eliminate_dead_code_in_block(block) == 0

    def test_removes_transitively_dead_chain(self):
        block = make_block(
            [
                Instruction(Opcode.ADD, dest=t(0), operands=(Const(1), Const(2))),
                Instruction(Opcode.ADD, dest=t(1), operands=(t(0), Const(3))),
            ]
        )
        run_block_passes(block)
        assert len(block.body) == 0


class TestPipeline:
    def test_semantics_preserved_after_optimization(self):
        source = """
        int f(int x) {
            int a = 2 * 3 + 1;
            int b = a + x;
            int dead = 99 * 2;
            return b;
        }
        """
        from repro.interp import run_function

        plain = cdfg_from_source(source)
        optimized = cdfg_from_source(source)
        totals = optimize_cdfg(optimized)
        assert totals["folded"] >= 1
        for x in (-3, 0, 11):
            assert (
                run_function(plain, "f", x).return_value
                == run_function(optimized, "f", x).return_value
            )

    def test_optimized_cfg_still_verifies(self, sample_cdfg):
        source_cdfg = cdfg_from_source(
            "int f(int x) { int y = 1 + 2; while (x > y) { x = x - (3 + 4); }"
            " return x; }"
        )
        optimize_cdfg(source_cdfg)
        source_cdfg.verify()

    def test_pass_totals_reported(self):
        from repro.ir import PASS_TOTAL_KEYS

        cdfg = cdfg_from_source("int f() { int a = 1 + 1; return a; }")
        totals = optimize_cdfg(cdfg)
        assert set(totals) == set(PASS_TOTAL_KEYS)


class TestPipelineVerification:
    """The pipeline verifies each state it produces, and only those."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        from repro.ir import passes

        calls = []
        original = passes.verify_cfg

        def counting(cfg, cdfg=None):
            calls.append(cfg.function_name)
            return original(cfg, cdfg)

        monkeypatch.setattr(passes, "verify_cfg", counting)
        return calls

    def test_untouched_function_is_not_reverified(self, verify_calls):
        cdfg = cdfg_from_source("int f(int x) { return x; }")
        totals = optimize_cdfg(cdfg, verify=True)
        assert sum(totals.values()) == 0
        assert verify_calls == []

    def test_one_changing_iteration_is_verified_once(self, verify_calls):
        cdfg = cdfg_from_source("int f() { int a = 1 + 1; return a; }")
        totals = optimize_cdfg(cdfg, verify=True)
        assert totals["folded"] == 1
        assert verify_calls == ["f"]

    def test_corrupting_pass_is_caught_at_its_iteration(self, monkeypatch):
        from repro.ir import VerificationError, passes

        original = passes.eliminate_dead_code_global

        def retarget_entry(cfg):
            removed = original(cfg)
            entry = cfg.entry
            entry.instructions[-1] = Instruction(Opcode.BR, targets=("nowhere",))
            return removed + 1

        monkeypatch.setattr(passes, "eliminate_dead_code_global", retarget_entry)
        cdfg = cdfg_from_source(
            "int f(int x) { if (x > 0) { x = x + 1; } return x; }"
        )
        with pytest.raises(VerificationError) as caught:
            optimize_cdfg(cdfg, verify=True)
        assert "pass pipeline iteration 0" in str(caught.value)
        assert [d.code for d in caught.value.diagnostics] == ["dangling-successor"]


def _dfg_programs():
    from repro.workloads import jpeg_source, minic_cdfg, ofdm_source

    yield "jpeg", cdfg_from_source(jpeg_source(), "jpeg_enc.c")
    yield "ofdm", cdfg_from_source(ofdm_source(), "ofdm_tx.c")
    for seed in range(20):
        yield f"minic-{seed}", minic_cdfg(seed)


def test_dfg_edges_run_forward():
    """Every DFG edge goes from an earlier instruction to a later one, so
    a block DFG cannot contain a cycle (why the verifier has no DFG
    cycle check)."""
    edges = 0
    for name, cdfg in _dfg_programs():
        for key in cdfg.all_block_keys():
            dfg = cdfg.dfg(key)
            backward = [(u, v) for u, v in dfg.edges() if not u < v]
            assert backward == [], f"{name} {key}"
            edges += len(dfg.edges())
    assert edges > 0
