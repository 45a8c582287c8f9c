"""Table 3 regeneration bench: JPEG partitioning on all four platforms."""

import pytest

from repro.platform import paper_platform
from repro.reporting import render_partition_table, reproduce_table3, scaled_constraint
from repro.search import GreedyPartitioner
from repro.workloads import JPEG_TIMING_CONSTRAINT, PAPER_TABLE3_JPEG

CONFIGS = [(row.afpga, row.cgc_count) for row in PAPER_TABLE3_JPEG]


@pytest.mark.parametrize("afpga,cgc_count", CONFIGS)
def test_table3_configuration(benchmark, jpeg, afpga, cgc_count):
    constraint, _ = scaled_constraint(
        jpeg, PAPER_TABLE3_JPEG, JPEG_TIMING_CONSTRAINT
    )
    paper_row = next(
        r for r in PAPER_TABLE3_JPEG
        if (r.afpga, r.cgc_count) == (afpga, cgc_count)
    )

    def run_greedy():
        partitioner = GreedyPartitioner(jpeg, paper_platform(afpga, cgc_count))
        return partitioner.run(constraint)

    result = benchmark(run_greedy)
    assert result.constraint_met
    assert result.moved_bb_ids == list(paper_row.moved_bbs) == [6, 2, 1]


def test_table3_full_reproduction(benchmark, capsys):
    table = benchmark(reproduce_table3)
    assert table.all_sets_match and table.all_constraints_met
    with capsys.disabled():
        print()
        print(render_partition_table(table))
