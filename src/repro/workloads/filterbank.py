"""FIR/IIR filter-bank pipeline workload.

A kernel-rich multi-channel filter bank in the style of the paper's DSP
applications: a windowing stage feeds ``channels`` parallel FIR band
filters, each band is smoothed by an IIR biquad cascade (a serial
recurrence — the classic structure the CGC handles poorly), the bands are
decimated and recombined polyphase-style, and a final energy
normalization closes the frame.

The per-block statistics are *derived*, not guessed: the FIR blocks carry
exactly the multiply/accumulate counts of a ``taps``-tap direct-form
filter, the biquad blocks the 5-multiply/4-add per-section cost of a
Direct Form II section, and the decimator the adder-tree cost of a
``channels``-way polyphase recombination.  DFG *shapes* reuse the
calibrated synthetic generator, so every block is a real layered DFG the
mapping algorithms schedule unmodified.

Fully deterministic for a given parameter set.
"""

from __future__ import annotations

from ..partition.workload import ApplicationWorkload
from .profiles import workload_from_profiles
from .synthetic import SyntheticBlockProfile

#: Default shape of the pipeline (8 bands of a 16-tap analysis bank,
#: 3 biquad sections of smoothing, 64 frames per invocation).
DEFAULT_CHANNELS = 8
DEFAULT_TAPS = 16
DEFAULT_SECTIONS = 3
DEFAULT_FRAMES = 64


def filterbank_workload_name(
    channels: int = DEFAULT_CHANNELS,
    taps: int = DEFAULT_TAPS,
    sections: int = DEFAULT_SECTIONS,
    frames: int = DEFAULT_FRAMES,
) -> str:
    """Canonical name; parameters deviating from the defaults are
    encoded so two parameterizations never share a report key."""
    name = "filterbank-pipeline"
    for tag, value, default in (
        ("c", channels, DEFAULT_CHANNELS),
        ("t", taps, DEFAULT_TAPS),
        ("x", sections, DEFAULT_SECTIONS),
        ("f", frames, DEFAULT_FRAMES),
    ):
        if value != default:
            name += f"-{tag}{value}"
    return name


def filterbank_profiles(
    channels: int = DEFAULT_CHANNELS,
    taps: int = DEFAULT_TAPS,
    sections: int = DEFAULT_SECTIONS,
    frames: int = DEFAULT_FRAMES,
) -> list[SyntheticBlockProfile]:
    """Per-block profiles of the whole pipeline."""
    if channels < 1 or taps < 2 or sections < 1 or frames < 1:
        raise ValueError(
            "filterbank needs channels/sections/frames >= 1 and taps >= 2"
        )
    profiles: list[SyntheticBlockProfile] = []

    # BB1: input windowing/DMA — one multiply (window coefficient) and a
    # couple of address adds per fetched sample burst.
    profiles.append(
        SyntheticBlockProfile(
            bb_id=1,
            exec_freq=frames,
            alu_ops=8,
            mul_ops=4,
            load_ops=6,
            store_ops=2,
            width=3.0,
            live_in_words=2,
            live_out_words=2,
            name="fb_window",
        )
    )

    # BB10..: one FIR band filter per channel.  A taps-tap direct-form
    # filter costs exactly `taps` multiplies and `taps - 1` accumulator
    # adds per output sample, plus delay-line index updates; wide MAC
    # trees parallelize well (the kernels the CGC exists for).
    for channel in range(channels):
        profiles.append(
            SyntheticBlockProfile(
                bb_id=10 + channel,
                exec_freq=frames,
                alu_ops=taps - 1 + 4,
                mul_ops=taps,
                load_ops=max(2, taps // 2),
                store_ops=2,
                width=4.0,
                live_in_words=2 + taps // 8,
                live_out_words=2,
                name=f"fb_fir_ch{channel}",
            )
        )

    # BB40..: IIR biquad smoothing per channel pair.  Direct Form II:
    # 5 multiplies + 4 adds per section, but the recurrence serializes
    # the whole chain (width 1.0) — these blocks regress on the slow
    # CGC clock and exercise the engine's revert path.
    biquad_blocks = max(1, channels // 2)
    for index in range(biquad_blocks):
        profiles.append(
            SyntheticBlockProfile(
                bb_id=40 + index,
                exec_freq=frames * 2,
                alu_ops=4 * sections,
                mul_ops=5 * sections,
                load_ops=2 * sections,
                store_ops=sections,
                width=1.0,
                live_in_words=2 * sections,
                live_out_words=2,
                name=f"fb_biquad{index}",
            )
        )

    # BB60: polyphase decimator/recombiner — a channels-way adder tree
    # per retained sample (channels - 1 adds) plus phase rotation muls.
    profiles.append(
        SyntheticBlockProfile(
            bb_id=60,
            exec_freq=frames,
            alu_ops=4 * (channels - 1) + 4,
            mul_ops=channels,
            load_ops=channels,
            store_ops=max(1, channels // 4),
            width=3.5,
            live_in_words=channels,
            live_out_words=2,
            name="fb_decimate",
        )
    )

    # BB61: output energy normalization — square/accumulate then scale.
    profiles.append(
        SyntheticBlockProfile(
            bb_id=61,
            exec_freq=frames,
            alu_ops=6,
            mul_ops=6,
            load_ops=4,
            store_ops=2,
            width=2.0,
            live_in_words=2,
            live_out_words=1,
            name="fb_normalize",
        )
    )

    # Control/glue blocks below the kernel cut-off (loop headers,
    # parameter reloads) — light, like the paper apps' filler blocks.
    for index, (freq, alu) in enumerate(
        [(frames, 3), (frames, 2), (channels, 5), (1, 7)]
    ):
        profiles.append(
            SyntheticBlockProfile(
                bb_id=80 + index,
                exec_freq=freq,
                alu_ops=alu,
                mul_ops=0,
                load_ops=1,
                store_ops=1,
                width=1.5,
                live_in_words=1,
                live_out_words=1,
                name=f"fb_ctrl{index}",
            )
        )
    return profiles


def filterbank_workload(
    channels: int = DEFAULT_CHANNELS,
    taps: int = DEFAULT_TAPS,
    sections: int = DEFAULT_SECTIONS,
    frames: int = DEFAULT_FRAMES,
) -> ApplicationWorkload:
    """The FIR/IIR filter-bank pipeline as an engine-ready workload."""
    return workload_from_profiles(
        filterbank_workload_name(channels, taps, sections, frames),
        filterbank_profiles(channels, taps, sections, frames),
    )
