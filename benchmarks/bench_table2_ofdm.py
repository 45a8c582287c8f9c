"""Table 2 regeneration bench: OFDM partitioning on all four platforms.

For each (A_FPGA, CGC count) configuration of §4, runs the Figure 2 loop
at the (scale-normalized) 60 000-cycle constraint, asserts the kernel
selection matches the paper, and prints the full ours-vs-paper table.
"""

import pytest

from repro.platform import paper_platform
from repro.reporting import render_partition_table, reproduce_table2, scaled_constraint
from repro.search import GreedyPartitioner
from repro.workloads import OFDM_TIMING_CONSTRAINT, PAPER_TABLE2_OFDM

CONFIGS = [(row.afpga, row.cgc_count) for row in PAPER_TABLE2_OFDM]


@pytest.mark.parametrize("afpga,cgc_count", CONFIGS)
def test_table2_configuration(benchmark, ofdm, afpga, cgc_count):
    constraint, _ = scaled_constraint(
        ofdm, PAPER_TABLE2_OFDM, OFDM_TIMING_CONSTRAINT
    )
    paper_row = next(
        r for r in PAPER_TABLE2_OFDM
        if (r.afpga, r.cgc_count) == (afpga, cgc_count)
    )

    def run_greedy():
        partitioner = GreedyPartitioner(ofdm, paper_platform(afpga, cgc_count))
        return partitioner.run(constraint)

    result = benchmark(run_greedy)
    assert result.constraint_met
    assert result.moved_bb_ids == list(paper_row.moved_bbs)


def test_table2_full_reproduction(benchmark, capsys):
    table = benchmark(reproduce_table2)
    assert table.all_sets_match and table.all_constraints_met
    with capsys.disabled():
        print()
        print(render_partition_table(table))
