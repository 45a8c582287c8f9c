"""Synthetic block generator tests (+ hypothesis realization property)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nx_views import is_acyclic

from repro.analysis import WeightModel
from repro.workloads import (
    SyntheticBlockProfile,
    generate_block,
    generate_dfg,
    verify_profile_realization,
)


class TestProfileValidation:
    def test_weight_formula(self):
        profile = SyntheticBlockProfile(
            bb_id=1, exec_freq=10, alu_ops=5, mul_ops=3
        )
        assert profile.weight == 11
        assert profile.total_weight == 110

    def test_no_compute_rejected(self):
        with pytest.raises(ValueError):
            SyntheticBlockProfile(bb_id=1, exec_freq=1, alu_ops=0, mul_ops=0)

    def test_negative_ops_rejected(self):
        with pytest.raises(ValueError):
            SyntheticBlockProfile(bb_id=1, exec_freq=1, alu_ops=-1, mul_ops=2)

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            SyntheticBlockProfile(
                bb_id=1, exec_freq=1, alu_ops=1, mul_ops=0, width=0.5
            )

    def test_serial_needs_store(self):
        profile = SyntheticBlockProfile(
            bb_id=1, exec_freq=1, alu_ops=2, mul_ops=0,
            store_ops=0, serial_memory=True,
        )
        with pytest.raises(ValueError):
            generate_block(profile)


class TestGeneration:
    def test_determinism(self):
        profile = SyntheticBlockProfile(
            bb_id=7, exec_freq=1, alu_ops=9, mul_ops=4,
            load_ops=5, store_ops=2, width=2.0,
        )
        a = [str(i) for i in generate_block(profile).instructions]
        b = [str(i) for i in generate_block(profile).instructions]
        assert a == b

    def test_different_ids_differ(self):
        base = dict(exec_freq=1, alu_ops=9, mul_ops=4, load_ops=5, store_ops=2)
        a = generate_block(SyntheticBlockProfile(bb_id=1, **base))
        b = generate_block(SyntheticBlockProfile(bb_id=2, **base))
        assert [str(i) for i in a.instructions] != [
            str(i) for i in b.instructions
        ]

    def test_width_controls_depth(self):
        base = dict(exec_freq=1, alu_ops=24, mul_ops=0)
        narrow = generate_dfg(SyntheticBlockProfile(bb_id=3, width=1.0, **base))
        wide = generate_dfg(SyntheticBlockProfile(bb_id=3, width=6.0, **base))
        assert narrow.max_level > wide.max_level

    def test_bb_id_propagated(self):
        block = generate_block(
            SyntheticBlockProfile(bb_id=42, exec_freq=1, alu_ops=2, mul_ops=0)
        )
        assert block.bb_id == 42

    def test_serial_block_single_buffer(self):
        profile = SyntheticBlockProfile(
            bb_id=5, exec_freq=1, alu_ops=4, mul_ops=0,
            load_ops=6, store_ops=3, serial_memory=True,
        )
        dfg = generate_dfg(profile)
        assert dfg.arrays_read == {"buf"} and dfg.arrays_written == {"buf"}

    def test_serial_block_deeper_than_layered(self):
        base = dict(exec_freq=1, alu_ops=6, mul_ops=0, load_ops=8, store_ops=4)
        layered = generate_dfg(SyntheticBlockProfile(bb_id=6, **base))
        serial = generate_dfg(
            SyntheticBlockProfile(bb_id=6, serial_memory=True, width=1.0, **base)
        )
        assert serial.max_level > layered.max_level

    def test_serial_buffer_is_local(self):
        profile = SyntheticBlockProfile(
            bb_id=5, exec_freq=1, alu_ops=4, mul_ops=0,
            load_ops=4, store_ops=2, serial_memory=True,
        )
        block = generate_block(profile)
        from repro.ir import Opcode

        for ins in block.body:
            if ins.opcode in (Opcode.LOAD, Opcode.STORE):
                assert ins.operands[0].local


op_counts = st.tuples(
    st.integers(1, 30), st.integers(0, 12), st.integers(0, 15), st.integers(0, 5)
)


@settings(max_examples=60, deadline=None)
@given(
    bb_id=st.integers(1, 1000),
    counts=op_counts,
    width=st.floats(1.0, 8.0),
    serial=st.booleans(),
)
def test_realization_matches_profile(bb_id, counts, width, serial):
    """The generated block always carries exactly the requested op mix, so
    the analysis weight equals the Table 1 weight by construction."""
    alu, mul, loads, stores = counts
    if serial:
        stores = max(stores, 1)
        width = 1.0
    profile = SyntheticBlockProfile(
        bb_id=bb_id,
        exec_freq=1,
        alu_ops=alu,
        mul_ops=mul,
        load_ops=loads,
        store_ops=stores,
        width=width,
        serial_memory=serial,
    )
    verify_profile_realization(profile)
    dfg = generate_dfg(profile)
    assert is_acyclic(dfg)
    assert WeightModel().dfg_weight(dfg) == profile.weight
