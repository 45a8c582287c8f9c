"""OFDM transmitter partitioning — reproduces the paper's Tables 1 and 2.

Two parts:

1. The calibrated workload (exact Table 1 statistics) through the
   Figure 2 partitioning loop on all four platform configurations of §4 —
   regenerating Table 2's rows.
2. The *real* mini-C OFDM transmitter (QAM -> IFFT64 -> cyclic prefix)
   compiled, interpreted, profiled and partitioned end to end, showing the
   flow on genuine source code.

Run:  python examples/ofdm_partitioning.py
"""

from repro import GreedyPartitioner, paper_platform, workload_from_cdfg
from repro.reporting import (
    render_partition_table,
    render_table1,
    reproduce_table1_ofdm,
    reproduce_table2,
)
from repro.workloads import BITS_PER_SYMBOL, OFDMTransmitterApp, random_bits


def reproduce_paper_tables() -> None:
    print("=" * 72)
    print("Part 1: calibrated Table 1/Table 2 reproduction")
    print("=" * 72)
    print(render_table1(reproduce_table1_ofdm(), "Table 1 (OFDM, top 8 kernels)"))
    print()
    print(render_partition_table(reproduce_table2()))
    print()


def partition_real_transmitter() -> None:
    print("=" * 72)
    print("Part 2: the mini-C 802.11a transmitter through the full flow")
    print("=" * 72)
    app = OFDMTransmitterApp()
    print(f"compiled {app.cdfg.block_count} basic blocks from mini-C source")

    # Dynamic analysis over 6 payload symbols, like the paper's experiment.
    symbols = [random_bits(BITS_PER_SYMBOL, seed=s) for s in range(6)]
    profile = app.profile_symbols(symbols)
    workload = workload_from_cdfg(app.cdfg, profile, "ofdm-minic")

    platform = paper_platform(1500, 2)
    partitioner = GreedyPartitioner(workload, platform)
    initial = partitioner.initial_cycles()
    result = partitioner.run(int(initial * 0.5))

    print(f"all-FPGA: {initial} cycles; after partitioning: "
          f"{result.final_cycles} cycles "
          f"({result.reduction_percent:.1f}% reduction)")
    print("kernels moved to the CGC data-path:")
    for bb_id in result.moved_bb_ids:
        key = app.cdfg.key_for_id(bb_id)
        freq = profile.exec_freq(bb_id)
        print(f"  BB {bb_id}: {key.function}/{key.label} "
              f"(executed {freq} times)")


if __name__ == "__main__":
    reproduce_paper_tables()
    partition_real_transmitter()
