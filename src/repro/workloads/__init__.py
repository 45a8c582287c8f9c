"""Evaluation workloads: Table 1 statistics, synthetic DFGs, mini-C apps.

Names resolve on first use, so a run loads only the workloads it uses.
The one numpy user in the library is :func:`.jpeg.test_image`, which
imports it when called: the measured OFDM transmitter, the two mini-C
sources and every other workload never import numpy.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .filterbank import (
        filterbank_profiles as filterbank_profiles,
        filterbank_workload as filterbank_workload,
        filterbank_workload_name as filterbank_workload_name,
    )
    from .jpeg import (
        JPEGEncoderApp as JPEGEncoderApp,
        jpeg_source as jpeg_source,
        test_image as test_image,
    )
    from .ofdm import (
        BITS_PER_SYMBOL as BITS_PER_SYMBOL,
        OFDMTransmitterApp as OFDMTransmitterApp,
        ofdm_source as ofdm_source,
        random_bits as random_bits,
    )
    from .profiles import (
        JPEG_FILLERS as JPEG_FILLERS,
        JPEG_TABLE1 as JPEG_TABLE1,
        JPEG_TIMING_CONSTRAINT as JPEG_TIMING_CONSTRAINT,
        JPEG_TOTAL_BLOCKS as JPEG_TOTAL_BLOCKS,
        OFDM_FILLERS as OFDM_FILLERS,
        OFDM_TABLE1 as OFDM_TABLE1,
        OFDM_TIMING_CONSTRAINT as OFDM_TIMING_CONSTRAINT,
        OFDM_TOTAL_BLOCKS as OFDM_TOTAL_BLOCKS,
        PAPER_TABLE2_OFDM as PAPER_TABLE2_OFDM,
        PAPER_TABLE3_JPEG as PAPER_TABLE3_JPEG,
        PaperKernelRow as PaperKernelRow,
        PaperPartitionRow as PaperPartitionRow,
        jpeg_profiles as jpeg_profiles,
        jpeg_workload as jpeg_workload,
        make_profile as make_profile,
        ofdm_profiles as ofdm_profiles,
        ofdm_workload as ofdm_workload,
        workload_from_profiles as workload_from_profiles,
    )
    from .synthetic import (
        SyntheticBlockProfile as SyntheticBlockProfile,
        generate_block as generate_block,
        generate_dfg as generate_dfg,
        minic_application as minic_application,
        minic_cdfg as minic_cdfg,
        minic_input as minic_input,
        minic_workload_name as minic_workload_name,
        synthetic_application as synthetic_application,
        synthetic_program_source as synthetic_program_source,
        synthetic_workload_name as synthetic_workload_name,
        verify_profile_realization as verify_profile_realization,
    )
    from .viterbi import (
        viterbi_profiles as viterbi_profiles,
        viterbi_workload as viterbi_workload,
        viterbi_workload_name as viterbi_workload_name,
    )

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".filterbank": (
        "filterbank_profiles", "filterbank_workload", "filterbank_workload_name",
    ),
    ".jpeg": ("JPEGEncoderApp", "jpeg_source", "test_image"),
    ".ofdm": ("BITS_PER_SYMBOL", "OFDMTransmitterApp", "ofdm_source", "random_bits"),
    ".profiles": (
        "JPEG_FILLERS", "JPEG_TABLE1", "JPEG_TIMING_CONSTRAINT", "JPEG_TOTAL_BLOCKS",
        "OFDM_FILLERS", "OFDM_TABLE1", "OFDM_TIMING_CONSTRAINT", "OFDM_TOTAL_BLOCKS",
        "PAPER_TABLE2_OFDM", "PAPER_TABLE3_JPEG", "PaperKernelRow", "PaperPartitionRow",
        "jpeg_profiles", "jpeg_workload", "make_profile", "ofdm_profiles",
        "ofdm_workload", "workload_from_profiles",
    ),
    ".synthetic": (
        "SyntheticBlockProfile", "generate_block", "generate_dfg", "minic_application",
        "minic_cdfg", "minic_input", "minic_workload_name", "synthetic_application",
        "synthetic_program_source", "synthetic_workload_name",
        "verify_profile_realization",
    ),
    ".viterbi": ("viterbi_profiles", "viterbi_workload", "viterbi_workload_name"),
})
