"""Ablation benches for the model choices DESIGN.md calls out.

Each ablation flips one modelling decision and checks the direction of the
effect, quantifying how much of the headline result each mechanism
carries:

* configuration caching (single-partition blocks skip per-invocation
  reconfiguration) — drives the A_FPGA sensitivity of the initial cycles;
* intra-CGC chaining (chain depth = rows) — drives the CGC's advantage on
  serial code;
* shared-memory latency seen by the CGC — drives the memory-bound
  behaviour of the JPEG kernels;
* communication cost — the t_comm term of Eq. 2.
"""

import pytest

from repro.coarsegrain import schedule_dfg, standard_datapath
from repro.coarsegrain.cgc import make_cgc_array
from repro.coarsegrain.datapath import CGCDatapath
from repro.partition import EngineConfig
from repro.platform import SharedMemory, paper_platform
from repro.reporting import scaled_constraint
from repro.search import GreedyPartitioner
from repro.workloads import (
    OFDM_TIMING_CONSTRAINT,
    PAPER_TABLE2_OFDM,
    SyntheticBlockProfile,
    generate_dfg,
)


def test_ablation_configuration_caching(benchmark, ofdm, capsys):
    """Without caching, every block pays reconfiguration per invocation and
    the area sensitivity of the initial cycles collapses."""
    def initial_ratio(charge):
        config = EngineConfig(charge_single_partition_reconfig=charge)
        small = GreedyPartitioner(
            ofdm, paper_platform(1500, 2), config=config
        ).initial_cycles()
        large = GreedyPartitioner(
            ofdm, paper_platform(5000, 2), config=config
        ).initial_cycles()
        return small / large

    cached = benchmark(initial_ratio, False)
    uncached = initial_ratio(True)
    with capsys.disabled():
        print(
            f"\n  initial(A=1500)/initial(A=5000): cached={cached:.2f}, "
            f"uncached={uncached:.2f} (paper: 2.12)"
        )
    assert cached > uncached


def test_ablation_chaining(benchmark, capsys):
    """Chain depth = rows halves serial-chain latency vs a 1-row array."""
    profile = SyntheticBlockProfile(
        bb_id=3001, exec_freq=1, alu_ops=24, mul_ops=8,
        load_ops=0, store_ops=1, width=1.0,
    )
    dfg = generate_dfg(profile)
    chained = CGCDatapath(cgcs=make_cgc_array(2, rows=2, cols=2))
    unchained = CGCDatapath(cgcs=make_cgc_array(2, rows=1, cols=4))

    fast = benchmark(schedule_dfg, dfg, chained)
    slow = schedule_dfg(dfg, unchained)
    with capsys.disabled():
        print(
            f"\n  serial chain of 32 ops: chained makespan {fast.makespan}, "
            f"unchained {slow.makespan}"
        )
    assert fast.makespan < slow.makespan


def test_ablation_memory_latency(benchmark, capsys):
    """A shared memory as fast as the CGC clock would overstate the gain
    on memory-bound kernels by ~2-3x."""
    profile = SyntheticBlockProfile(
        bb_id=3002, exec_freq=1, alu_ops=8, mul_ops=4,
        load_ops=24, store_ops=8, width=2.0,
    )
    dfg = generate_dfg(profile)
    realistic = standard_datapath(2)  # latency 3 (one FPGA cycle)
    idealized = CGCDatapath(cgcs=make_cgc_array(2), memory_latency=1)
    slow = benchmark(schedule_dfg, dfg, realistic)
    fast = schedule_dfg(dfg, idealized)
    with capsys.disabled():
        print(
            f"\n  memory-bound kernel: latency-3 makespan {slow.makespan}, "
            f"latency-1 makespan {fast.makespan}"
        )
    assert slow.makespan > fast.makespan


def test_ablation_communication_cost(benchmark, ofdm, capsys):
    """Slower shared memory for boundary transfers erodes the reduction."""
    constraint, _ = scaled_constraint(
        ofdm, PAPER_TABLE2_OFDM, OFDM_TIMING_CONSTRAINT
    )

    def run(read_latency):
        platform = paper_platform(
            1500, 2, memory=SharedMemory(
                read_latency=read_latency, write_latency=read_latency
            )
        )
        return GreedyPartitioner(ofdm, platform).run(constraint)

    cheap = benchmark(run, 1)
    expensive = run(8)
    with capsys.disabled():
        print(
            f"\n  reduction at mem latency 1: {cheap.reduction_percent:.1f}%"
            f", at latency 8: {expensive.reduction_percent:.1f}%"
        )
    assert expensive.final_cycles > cheap.final_cycles


@pytest.mark.parametrize("ratio", [2, 3, 4])
def test_ablation_clock_ratio(benchmark, ofdm, ratio, capsys):
    """T_FPGA/T_CGC scales the coarse-grain advantage almost linearly."""
    constraint, _ = scaled_constraint(
        ofdm, PAPER_TABLE2_OFDM, OFDM_TIMING_CONSTRAINT
    )

    def run():
        platform = paper_platform(1500, 2, clock_ratio=ratio)
        return GreedyPartitioner(ofdm, platform).run(constraint)

    result = benchmark(run)
    with capsys.disabled():
        print(
            f"\n  clock ratio {ratio}: final {result.final_cycles} "
            f"({result.reduction_percent:.1f}%)"
        )
    assert result.cycles_in_cgc > 0
