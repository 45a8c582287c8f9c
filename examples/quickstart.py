"""Quickstart: partition a small application between the FPGA and the CGCs.

Builds a three-block workload by hand, instantiates one of the paper's
platform configurations (A_FPGA = 1500 area units, two 2x2 CGCs,
T_FPGA = 3*T_CGC) and runs the Figure 2 partitioning loop against a timing
constraint.

Run:  python examples/quickstart.py
"""

from repro import GreedyPartitioner, paper_platform
from repro.partition import ApplicationWorkload, BlockWorkload
from repro.workloads import generate_dfg, make_profile


def build_workload() -> ApplicationWorkload:
    """Three synthetic basic blocks: one hot MAC kernel and two light ones.

    ``make_profile`` fixes each block's analysis weight exactly
    (weight = ALU ops + 2 x MUL ops, the paper's model) and shapes the DFG
    (parallelism width, memory traffic).
    """
    blocks = []
    for bb_id, freq, weight, width in [
        (1, 2000, 60, 3.0),   # hot kernel: 2000 invocations, weight 60
        (2, 400, 18, 2.0),
        (3, 100, 9, 2.0),
    ]:
        profile = make_profile(
            bb_id, freq, weight, mul_fraction=0.4, width=width, mem_factor=0.5
        )
        blocks.append(
            BlockWorkload(
                bb_id=bb_id,
                exec_freq=freq,
                dfg=generate_dfg(profile),
                comm_words_in=profile.live_in_words,
                comm_words_out=profile.live_out_words,
                name=f"kernel{bb_id}",
            )
        )
    return ApplicationWorkload(name="quickstart", blocks=blocks)


def main() -> None:
    workload = build_workload()
    platform = paper_platform(afpga=1500, cgc_count=2)
    print(f"platform: {platform.describe()}")

    partitioner = GreedyPartitioner(workload, platform)
    initial = partitioner.initial_cycles()
    print(f"all-FPGA execution time: {initial} cycles")

    constraint = int(initial * 0.4)
    print(f"timing constraint:       {constraint} cycles")
    result = partitioner.run(constraint)

    print()
    print(result.summary())
    print()
    print("step-by-step (Figure 2 loop):")
    for step in result.steps:
        status = "met" if step.constraint_met else "not met"
        print(
            f"  moved BB {step.moved_bb_id}: total={step.total_cycles} "
            f"(fpga={step.fpga_cycles}, cgc={step.cgc_fpga_cycles}, "
            f"comm={step.comm_cycles}) -> constraint {status}"
        )


if __name__ == "__main__":
    main()
