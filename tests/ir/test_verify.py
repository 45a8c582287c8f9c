"""CDFG verifier tests: clean programs pass, seeded defects are pinpointed."""

from __future__ import annotations

import pytest

import repro.ir.verify as verify_module
from repro.ir import (
    BasicBlock,
    Const,
    Instruction,
    LoopForest,
    Opcode,
    Temp,
    VarRef,
    VerificationError,
    assert_verified,
    cdfg_from_source,
    sanitizer_enabled,
    set_sanitizer,
    verify_cdfg,
)
from repro.frontend.ast_nodes import Type
from repro.workloads import minic_cdfg
from repro.workloads.jpeg import JPEGEncoderApp
from repro.workloads.ofdm import OFDMTransmitterApp
from repro.workloads.synthetic import synthetic_program_source


def codes(report):
    return {d.code for d in report.diagnostics}


def find(report, code):
    found = [d for d in report.diagnostics if d.code == code]
    assert found, f"no {code!r} diagnostic in: {report.render()}"
    return found


# ----------------------------------------------------------------------
# Clean programs verify clean
# ----------------------------------------------------------------------
class TestCleanPrograms:
    def test_sample_program_verifies(self, sample_cdfg):
        report = verify_cdfg(sample_cdfg)
        assert report.ok, report.render()

    def test_ofdm_application_verifies(self):
        report = verify_cdfg(OFDMTransmitterApp().cdfg)
        assert report.ok, report.render()
        assert not report.warnings

    def test_jpeg_application_verifies(self):
        report = verify_cdfg(JPEGEncoderApp().cdfg)
        assert report.ok, report.render()
        assert not report.warnings

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_programs_verify(self, seed):
        # Both the raw lowered IR and the optimized form must be clean.
        raw = cdfg_from_source(
            synthetic_program_source(seed), f"minic_s{seed}.c"
        )
        report = verify_cdfg(raw)
        assert report.ok, report.render()
        optimized = minic_cdfg(seed)
        report = verify_cdfg(optimized)
        assert report.ok, report.render()
        assert not report.warnings

    def test_assert_verified_passes_clean(self, sample_cdfg):
        assert_verified(sample_cdfg, "test")


# ----------------------------------------------------------------------
# Corruption harness: each defect class is reported with the right bb_id
# ----------------------------------------------------------------------
SOURCE = """
int g_total;

int scale(int x) {
    int y = x * 3;
    if (y > 10) { y = y - 10; }
    return y;
}

int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc += scale(i);
    }
    g_total = acc;
    return acc;
}
"""


@pytest.fixture
def cdfg():
    return cdfg_from_source(SOURCE, "corrupt.c")


def block_with_branch(cdfg):
    """First block terminated by BR/CBR (so successors can dangle)."""
    for key in cdfg.all_block_keys():
        block = cdfg.block(key)
        term = block.terminator
        if term is not None and term.opcode in (Opcode.BR, Opcode.CBR):
            return block
    raise AssertionError("no branching block")


def block_with_value_op(cdfg):
    """First block containing a binary value op to corrupt."""
    for key in cdfg.all_block_keys():
        block = cdfg.block(key)
        for index, ins in enumerate(block.instructions):
            if ins.opcode in (Opcode.ADD, Opcode.MUL, Opcode.SUB):
                return block, index
    raise AssertionError("no value op")


class TestCorruptionHarness:
    def test_dangling_successor(self, cdfg):
        block = block_with_branch(cdfg)
        term = block.terminator
        term.targets = ("nowhere",) + term.targets[1:]
        report = verify_cdfg(cdfg)
        assert not report.ok
        diag = find(report, "dangling-successor")[0]
        assert diag.bb_id == block.bb_id
        assert diag.label == block.label
        assert "nowhere" in diag.message

    def test_double_terminator(self, cdfg):
        block = block_with_branch(cdfg)
        # A second control op mid-block: duplicate the terminator.
        term = block.terminator
        block.instructions.insert(
            len(block.instructions) - 1,
            Instruction(term.opcode, operands=term.operands,
                        targets=term.targets),
        )
        report = verify_cdfg(cdfg)
        assert not report.ok
        diag = find(report, "double-terminator")[0]
        assert diag.bb_id == block.bb_id

    def test_use_before_def(self, cdfg):
        # Read a local of main before any path assigned it.
        cfg = cdfg.cfg("main")
        local = next(
            name
            for name, info in cfg.variables.items()
            if not (info.is_param or info.is_global or info.is_array
                    or info.is_const)
        )
        entry = cfg.entry
        # Drop every write to it, then read it: no path defines it.
        for block in cfg.blocks.values():
            block.instructions = [
                ins
                for ins in block.instructions
                if not (
                    isinstance(ins.dest, VarRef) and ins.dest.name == local
                )
            ]
        entry.instructions.insert(
            0,
            Instruction(
                Opcode.COPY,
                dest=Temp(990, Type.INT),
                operands=(VarRef(local, Type.INT),),
            ),
        )
        report = verify_cdfg(cdfg)
        assert not report.ok
        diags = find(report, "use-before-def")
        assert any(
            d.bb_id == entry.bb_id and local in d.message for d in diags
        ), report.render()

    def test_bad_arity(self, cdfg):
        block, index = block_with_value_op(cdfg)
        ins = block.instructions[index]
        ins.operands = ins.operands[:1]
        report = verify_cdfg(cdfg)
        assert not report.ok
        diag = find(report, "bad-arity")[0]
        assert diag.bb_id == block.bb_id
        assert diag.op_index == index

    def test_temp_use_before_def(self, cdfg):
        block, index = block_with_value_op(cdfg)
        ins = block.instructions[index]
        ins.operands = (Temp(999, Type.INT),) + ins.operands[1:]
        report = verify_cdfg(cdfg)
        assert not report.ok
        diag = find(report, "temp-use-before-def")[0]
        assert diag.bb_id == block.bb_id

    def test_assert_verified_raises_with_context(self, cdfg):
        block = block_with_branch(cdfg)
        term = block.terminator
        term.targets = ("nowhere",) + term.targets[1:]
        with pytest.raises(VerificationError, match="nowhere"):
            assert_verified(cdfg, "corruption test")
        try:
            assert_verified(cdfg, "corruption test")
        except VerificationError as error:
            assert error.diagnostics
            assert "corruption test" in str(error)


# ----------------------------------------------------------------------
# Sanitizer switch
# ----------------------------------------------------------------------
class TestSanitizerSwitch:
    def test_default_on(self):
        assert sanitizer_enabled()

    def test_override_and_reset(self):
        set_sanitizer(False)
        try:
            assert not sanitizer_enabled()
        finally:
            set_sanitizer(None)
        assert sanitizer_enabled()

    def test_lowering_rejects_nothing_on_clean_source(self):
        # build path runs assert_verified when the sanitizer is on
        cdfg = cdfg_from_source("int f(int x) { return x + 1; }")
        assert verify_cdfg(cdfg).ok


# ----------------------------------------------------------------------
# Loop-header dominance
# ----------------------------------------------------------------------
class TestLoopHeaderDominance:
    def test_unreachable_block_into_loop_body_fires(self, cdfg):
        cfg = cdfg.cfg("main")
        loop = LoopForest(cfg).loops[0]
        body = next(label for label in sorted(loop.body) if label != loop.header)
        cfg.blocks["dead"] = BasicBlock(
            "dead", [Instruction(Opcode.BR, targets=(body,))]
        )
        report = verify_cdfg(cdfg)
        diag = find(report, "loop-header-dominance")[0]
        assert diag.label == "dead"
        assert loop.header in diag.message
        assert find(report, "unreachable-block")[0].label == "dead"

    def test_fully_reachable_cfg_builds_no_dominator_tree(
        self, cdfg, monkeypatch
    ):
        def refuse(cfg):
            raise AssertionError(f"DominatorTree built for {cfg.function_name}")

        monkeypatch.setattr(verify_module, "DominatorTree", refuse)
        assert verify_cdfg(cdfg).ok
        assert verify_cdfg(JPEGEncoderApp().cdfg).ok
