"""Bring your own C code: the full Figure 2 flow on a custom application.

Shows every stage explicitly on a 2-D convolution kernel written in the
mini-C subset: parse -> semantic check -> CDFG -> interpret/profile ->
static analysis -> kernel ordering -> fine/coarse-grain mapping ->
the Figure 2 partitioning loop.

Run:  python examples/custom_application.py
"""

from repro import (
    GreedyPartitioner,
    WeightModel,
    cdfg_from_source,
    extract_kernels,
    paper_platform,
    profile_cdfg,
    workload_from_cdfg,
)
from repro.coarsegrain import block_cgc_timing
from repro.finegrain import block_fpga_timing

CONV_SOURCE = """
// 3x3 convolution over a 16x16 frame (edge rows/cols skipped).
const int K[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};

void conv3x3(int src[256], int dst[256]) {
    for (int y = 1; y < 15; y++) {
        for (int x = 1; x < 15; x++) {
            int acc = 0;
            for (int ky = 0; ky < 3; ky++) {
                for (int kx = 0; kx < 3; kx++) {
                    int pixel = src[(y + ky - 1) * 16 + (x + kx - 1)];
                    acc += pixel * K[3 * ky + kx];
                }
            }
            dst[y * 16 + x] = acc >> 4;
        }
    }
}
"""


def main() -> None:
    # Step 1: CDFG creation (parse, check, lower, number blocks).
    cdfg = cdfg_from_source(CONV_SOURCE, "conv.c")
    print(f"step 1 — CDFG: {cdfg.block_count} basic blocks")

    # Step 3a: dynamic analysis (interpret with a representative input).
    frame = [(x * 7 + 13) % 256 for x in range(256)]
    profile = profile_cdfg(cdfg, "conv3x3", frame, [0] * 256)
    print(f"step 3 — profile: hottest blocks {profile.hottest(3)}")

    # Step 3b: static analysis + kernel ordering (Eq. 1).
    analysis = extract_kernels(cdfg, profile, WeightModel())
    print("         kernel ordering (BB, freq, weight, total):")
    for kernel in analysis.kernels[:4]:
        print(f"           {kernel.table_row()}")

    # Steps 2/5: per-kernel mapping costs on both fabrics.
    platform = paper_platform(1500, 2)
    top = analysis.kernels[0]
    dfg = cdfg.dfg_by_id(top.bb_id)
    fine = block_fpga_timing(dfg, platform.fpga, platform.characterization)
    coarse = block_cgc_timing(dfg, platform.datapath)
    print(
        f"steps 2/5 — hottest kernel BB {top.bb_id}: "
        f"FPGA {fine.total_cycles} cycles/invocation "
        f"({fine.partition_count} temporal partition(s)); "
        f"CGC {coarse.cgc_cycles} CGC-cycles/invocation"
    )

    # Step 4: the Figure 2 partitioning loop against a timing constraint.
    workload = workload_from_cdfg(cdfg, profile, "conv3x3")
    partitioner = GreedyPartitioner(workload, platform)
    initial = partitioner.initial_cycles()
    result = partitioner.run(int(initial * 0.55))
    print(f"step 4 — {result.summary()}")


if __name__ == "__main__":
    main()
