"""JPEG encoder partitioning — reproduces the paper's Tables 1 and 3.

Part 1 regenerates Table 3 from the calibrated workload; part 2 compiles
the real mini-C JPEG encoder (DCT -> quantize -> zig-zag -> entropy),
encodes a test frame, profiles it and partitions the result.

Run:  python examples/jpeg_partitioning.py
"""

from repro import GreedyPartitioner, paper_platform, workload_from_cdfg
from repro.reporting import (
    render_partition_table,
    render_table1,
    reproduce_table1_jpeg,
    reproduce_table3,
)
from repro.workloads import JPEGEncoderApp, test_image


def reproduce_paper_tables() -> None:
    print("=" * 72)
    print("Part 1: calibrated Table 1/Table 3 reproduction")
    print("=" * 72)
    print(render_table1(reproduce_table1_jpeg(), "Table 1 (JPEG, top 8 kernels)"))
    print()
    print(render_partition_table(reproduce_table3()))
    print()


def partition_real_encoder() -> None:
    print("=" * 72)
    print("Part 2: the mini-C JPEG encoder through the full flow")
    print("=" * 72)
    app = JPEGEncoderApp()
    print(f"compiled {app.cdfg.block_count} basic blocks from mini-C source")

    image = test_image()
    encoded = app.encode_image(image)
    print(f"encoded a {image.shape[0]}x{image.shape[1]} frame into "
          f"{encoded.total_bits} bits "
          f"({encoded.steps} interpreted operations)")

    profile = app.profile_image(image)
    workload = workload_from_cdfg(app.cdfg, profile, "jpeg-minic")
    platform = paper_platform(1500, 2)
    partitioner = GreedyPartitioner(workload, platform)
    initial = partitioner.initial_cycles()
    result = partitioner.run(int(initial * 0.97))

    print(f"all-FPGA: {initial} cycles; after partitioning: "
          f"{result.final_cycles} cycles "
          f"({result.reduction_percent:.1f}% reduction)")
    print("kernels moved to the CGC data-path:")
    for bb_id in result.moved_bb_ids[:6]:
        key = app.cdfg.key_for_id(bb_id)
        print(f"  BB {bb_id}: {key.function}/{key.label} "
              f"(executed {profile.exec_freq(bb_id)} times)")
    print()
    print("note on granularity: this rolled-loop encoder has tiny basic")
    print("blocks (the DCT inner loop body weighs ~3), so per-invocation")
    print("shared-memory transfers cap the achievable gain.  The paper's")
    print("JPEG reaches blocks of weight 85 (Table 1) — its source was")
    print("unrolled/fused so each block holds a whole DCT pass, which is")
    print("exactly what the calibrated Table 1 workload models (and why")
    print("Table 3 shows 43% there).  Kernel granularity, not the engine,")
    print("is the limiting factor here.")


if __name__ == "__main__":
    reproduce_paper_tables()
    partition_real_encoder()
