"""Integration: the complete Figure 2 flow on real mini-C programs."""

import pytest

from repro.analysis import WeightModel, extract_kernels, profile_cdfg
from repro.partition import workload_from_cdfg
from repro.platform import paper_platform
from repro.ir import cdfg_from_source
from repro.search import GreedyPartitioner

FIR_SOURCE = """
// A small FIR filter: the inner MAC loop is the obvious kernel.
const int TAPS[8] = {1, 2, 4, 8, 8, 4, 2, 1};

void fir(int input[128], int output[128]) {
    for (int n = 8; n < 128; n++) {
        int acc = 0;
        for (int k = 0; k < 8; k++) {
            acc += TAPS[k] * input[n - k];
        }
        output[n] = acc >> 5;
    }
}
"""


@pytest.fixture(scope="module")
def fir_workload():
    cdfg = cdfg_from_source(FIR_SOURCE, "fir.c")
    samples = [((i * 37) % 256) - 128 for i in range(128)]
    profile = profile_cdfg(cdfg, "fir", samples, [0] * 128)
    return cdfg, workload_from_cdfg(cdfg, profile, "fir")


class TestFigure2Flow:
    def test_analysis_finds_mac_loop(self, fir_workload):
        cdfg, workload = fir_workload
        kernels = workload.kernel_candidates(WeightModel())
        assert kernels
        top = kernels[0]
        # The MAC body runs 120 * 8 = 960 times.
        assert top.exec_freq == 960

    def test_all_fpga_exit_when_constraint_loose(self, fir_workload):
        __, workload = fir_workload
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        result = partitioner.run(partitioner.initial_cycles())
        assert result.constraint_met and not result.moved_bb_ids

    def test_partitioning_accelerates(self, fir_workload):
        """Moving the MAC kernel lowers total time.  (Note: the FIR blocks
        are tiny — a handful of cycles each — so per-invocation shared
        memory traffic caps the achievable gain; the engine meets a ~4%
        tighter deadline by moving the heaviest kernel.)"""
        __, workload = fir_workload
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        initial = partitioner.initial_cycles()
        result = partitioner.run(int(initial * 0.96))
        assert result.moved_bb_ids
        assert result.constraint_met
        assert result.final_cycles < initial

    def test_engine_consistent_across_platforms(self, fir_workload):
        __, workload = fir_workload
        finals = {}
        for cgc_count in (2, 3):
            partitioner = GreedyPartitioner(workload, paper_platform(1500, cgc_count))
            finals[cgc_count] = partitioner.run(1).final_cycles
        assert finals[3] <= finals[2]

    def test_extract_kernels_equivalent_path(self, fir_workload):
        cdfg, workload = fir_workload
        samples = [((i * 37) % 256) - 128 for i in range(128)]
        profile = profile_cdfg(cdfg, "fir", samples, [0] * 128)
        analysis = extract_kernels(cdfg, profile)
        engine_order = [
            b.bb_id for b in workload.kernel_candidates(WeightModel())
        ]
        assert analysis.kernel_order() == engine_order


class TestOFDMEndToEnd:
    def test_ofdm_minic_partitioning(self):
        """The real mini-C OFDM transmitter through the whole flow."""
        from repro.workloads import (
            BITS_PER_SYMBOL,
            OFDMTransmitterApp,
            random_bits,
        )

        app = OFDMTransmitterApp()
        profile = app.profile_symbols(
            [random_bits(BITS_PER_SYMBOL, seed=s) for s in range(2)]
        )
        workload = workload_from_cdfg(app.cdfg, profile, "ofdm-minic")
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        initial = partitioner.initial_cycles()
        result = partitioner.run(int(initial * 0.5))
        assert result.moved_bb_ids, "expected at least one kernel moved"
        assert result.final_cycles < initial
        # The moved kernels should be IFFT butterfly blocks.
        top_key = app.cdfg.key_for_id(result.moved_bb_ids[0])
        assert top_key.function == "ifft64"
