"""Tests for the packed cost-table substrate (repro.partition.packed).

The contract under test: a :class:`PackedCostTable` derived from a
:class:`CostModel` is *bit-identical* to it — same Eq. 2 terms, same
candidate order, same tick arithmetic, same single-rounding cycle
split — and agrees with the object ``CostState`` / ``GreedyTrajectory``
references in ``tests/oracles``.
"""

import pickle

import pytest

from oracles import CostState, GreedyTrajectory
from repro.analysis.weights import WeightModel
from repro.partition import (
    CostModel,
    PackedCostTable,
    PackedGreedyTrajectory,
    PackedVisitLog,
)
from repro.platform import paper_platform
from repro.workloads import synthetic_application


@pytest.fixture(scope="module")
def workload():
    return synthetic_application(
        15, seed=4, comm_intensity=0.7, kernel_fraction=0.8
    )


@pytest.fixture(scope="module")
def model(workload):
    return CostModel(workload, paper_platform(1500, 2))


@pytest.fixture(scope="module")
def table(model):
    return PackedCostTable.from_model(model)


class TestTableDerivation:
    def test_columns_match_contributions(self, model, table):
        """Every column is the model's own BlockContribution ints."""
        weight_model = WeightModel()
        candidates = model.kernel_candidates(weight_model)
        expected_supported = [
            k for k in candidates if model.contribution(k).supported
        ]
        assert table.bb_ids == tuple(k.bb_id for k in expected_supported)
        for index, kernel in enumerate(expected_supported):
            contribution = model.contribution(kernel)
            assert table.fpga_ticks[index] == contribution.fpga_ticks
            assert table.cgc_ticks[index] == contribution.cgc_ticks
            assert table.comm_ticks[index] == contribution.comm_ticks
            assert table.move_delta[index] == contribution.move_delta
            assert table.cgc_rows[index] == contribution.cgc_rows
            assert table.weights[index] == kernel.total_weight(weight_model)

    def test_candidate_order_interleaves_unsupported(self, model, table):
        candidates = model.kernel_candidates(WeightModel())
        assert [bb for bb, _ in table.candidates] == [
            k.bb_id for k in candidates
        ]
        assert table.skipped_bb_ids == tuple(
            k.bb_id
            for k in candidates
            if not model.contribution(k).supported
        )
        for bb_id, index in table.candidates:
            if index >= 0:
                assert table.bb_ids[index] == bb_id
            else:
                assert bb_id in table.skipped_bb_ids

    def test_initial_ticks_and_cycles(self, model, table):
        assert table.initial_ticks == model.initial_ticks()
        assert table.initial_cycles() == model.initial_cycles()
        assert table.clock_ratio == model.platform.clock_ratio

    def test_names(self, model, table):
        assert table.workload_name == model.workload.name
        assert table.platform_name == model.platform.name


class TestTableArithmetic:
    def test_split_ticks_parity(self, model, table):
        for ticks in (
            (10, 11, 12), (1, 1, 1), (0, 0, 5), (7, 0, 0),
            (123456, 789, 10111), (2, 2, 2), (0, 0, 0),
        ):
            assert table.split_ticks(*ticks) == model.split_ticks(*ticks)

    def test_ticks_to_cycles_parity(self, model, table):
        for ticks in (0, 1, 2, 3, 4, 7, 999, 1000, 12345):
            assert table.ticks_to_cycles(ticks) == model.ticks_to_cycles(
                ticks
            )

    @pytest.mark.parametrize("mask_seed", [1, 7, 42])
    def test_mask_ticks_match_cost_state(self, model, table, mask_seed):
        """Pseudo-random subsets price identically on both substrates."""
        import random

        rng = random.Random(mask_seed)
        mask = rng.randrange(1 << len(table))
        state = CostState(model)
        for bb_id in table.bb_ids_of(mask):
            state.apply_move(bb_id)
        assert table.ticks_of(mask) == state.ticks
        assert table.total_ticks_of(mask) == state.total_ticks
        assert table.rows_used(mask) == state.cgc_rows_used()

    def test_mask_round_trip(self, table):
        subset = table.bb_ids[::2]
        mask = table.mask_of(subset)
        assert table.bb_ids_of(mask) == tuple(sorted(subset))

    def test_mask_of_rejects_unknown_kernels(self, table):
        with pytest.raises(KeyError):
            table.mask_of([999_999])


class TestRowMasks:
    def test_row_masks_cover_every_kernel(self, table):
        combined = 0
        for _, row_mask in table.row_masks:
            assert combined & row_mask == 0  # exact-value masks disjoint
            combined |= row_mask
        assert combined == (1 << len(table)) - 1

    def test_rows_used_is_max_over_mask(self, table):
        full = (1 << len(table)) - 1
        assert table.rows_used(full) == max(table.cgc_rows, default=0)
        assert table.rows_used(0) == 0
        for index in range(len(table)):
            assert table.rows_used(1 << index) == table.cgc_rows[index]


class TestPickling:
    def test_pickle_round_trip(self, table):
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert clone.bb_ids_of(5) == table.bb_ids_of(5)
        assert clone.rows_used(5) == table.rows_used(5)

    def test_pickle_is_small(self, table, workload):
        """The point of shipping tables between processes: a table is
        orders of magnitude smaller than its workload's DFGs."""
        assert len(pickle.dumps(table)) < len(pickle.dumps(workload)) / 10


class TestVisitLog:
    def test_record_deduplicates(self):
        log = PackedVisitLog()
        log.record(100, 0b1)
        log.record(100, 0b1)
        log.record(90, 0b11)
        assert len(log) == 2
        assert list(log.entries()) == [(100, 0b1), (90, 0b11)]


class TestPackedGreedyTrajectory:
    def test_entries_match_object_trajectory(self, model, table):
        packed = PackedGreedyTrajectory(table)
        reference = GreedyTrajectory(model, WeightModel())
        assert list(packed.iter_entries()) == list(
            reference.iter_entries()
        )

    def test_masks_track_moved_prefixes(self, table):
        trajectory = PackedGreedyTrajectory(table)
        moved_mask = 0
        for entry, mask in zip(
            trajectory.iter_entries(), trajectory.masks, strict=False
        ):
            if entry.action == "moved":
                moved_mask |= 1 << table.index_of(entry.bb_id)
            assert mask == moved_mask

    def test_strict_mode_raises_lazily(self):
        from repro.analysis import profile_cdfg
        from repro.ir import cdfg_from_source
        from repro.partition import workload_from_cdfg

        src = (
            "int f(int n) { int s = 0; "
            "for (int i = 1; i <= n; i++) { s += 100 / i; } return s; }"
        )
        cdfg = cdfg_from_source(src)
        div_workload = workload_from_cdfg(
            cdfg, profile_cdfg(cdfg, "f", 10), "div"
        )
        div_model = CostModel(div_workload, paper_platform(1500, 2))
        div_table = PackedCostTable.from_model(div_model)
        trajectory = PackedGreedyTrajectory(
            div_table, skip_unsupported_kernels=False
        )
        with pytest.raises(ValueError, match="cannot execute"):
            list(trajectory.iter_entries())
        # The offender stays pending: a retry raises identically.
        with pytest.raises(ValueError, match="cannot execute"):
            list(trajectory.iter_entries())
