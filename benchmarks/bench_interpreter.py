"""Interpreter throughput bench: walker vs block-compiled engine.

Profiles the two paper applications (the JPEG encoder on the standard
test frame, the OFDM transmitter on payload symbols) under both
execution engines and reports interpreted instructions/second.  Asserts
the PR's headline claim — ≥ 5x interpreted-instruction throughput on the
JPEG encode profiling run — and emits ``BENCH_interp.json`` at the repo
root so the perf trajectory is tracked from this PR on (CI uploads the
file as an artifact).

The profile-cache effect is also measured: a content-keyed warm lookup
replaces the whole profiling run with a dict hit.
"""

import json
import time
from pathlib import Path

import pytest

from repro.interp import BlockProfiler, Interpreter, ProfileCache
from repro.workloads import (
    BITS_PER_SYMBOL,
    JPEGEncoderApp,
    OFDMTransmitterApp,
    random_bits,
)
from repro.workloads import test_image as make_test_image
from repro.workloads.ofdm import CP_LEN, FFT_SIZE

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_interp.json"

#: The acceptance floor; measured speedups land well above it.
REQUIRED_JPEG_SPEEDUP = 5.0


def _profiled_run(cdfg, mode, entry, *args):
    """One profiling run; returns (seconds, steps)."""
    profiler = BlockProfiler()
    interpreter = Interpreter(cdfg, profiler, mode=mode)
    started = time.perf_counter()
    result = interpreter.run(entry, *args)
    return time.perf_counter() - started, result.steps


def _bench_app(cdfg, entry, *args, best_of: int = 3):
    """Walker vs compiled on one profiling run.

    The walker is timed once (it is the slow side by an order of
    magnitude); the compiled engine is warmed by one untimed run, then
    timed ``best_of`` times keeping the fastest run.
    """
    walker_seconds, steps = _profiled_run(cdfg, "walker", entry, *args)
    # Blocks compile on their first entry, so only a run warms them.
    _profiled_run(cdfg, "compiled", entry, *args)
    compiled_seconds = min(
        _profiled_run(cdfg, "compiled", entry, *args)[0]
        for _ in range(best_of)
    )
    return {
        "steps": steps,
        "walker_seconds": round(walker_seconds, 6),
        "compiled_seconds": round(compiled_seconds, 6),
        "walker_ips": round(steps / walker_seconds),
        "compiled_ips": round(steps / compiled_seconds),
        "speedup": round(walker_seconds / compiled_seconds, 2),
    }


@pytest.fixture(scope="module")
def report():
    """Run both app benches once; individual tests assert on slices."""
    jpeg = JPEGEncoderApp()
    pixels = [int(p) for p in make_test_image().ravel()]
    jpeg_row = _bench_app(jpeg.cdfg, "encode_image", list(pixels))

    ofdm = OFDMTransmitterApp()
    bits = [int(b) for b in random_bits(BITS_PER_SYMBOL)]
    out_len = FFT_SIZE + CP_LEN
    ofdm_row = _bench_app(
        ofdm.cdfg, "ofdm_symbol", list(bits), [0] * out_len, [0] * out_len
    )

    # Content-keyed cache: cold miss (one compiled run) vs warm hit.
    cache = ProfileCache()
    started = time.perf_counter()
    cache.profile(jpeg.cdfg, "encode_image", list(pixels))
    cold = time.perf_counter() - started
    started = time.perf_counter()
    cache.profile(jpeg.cdfg, "encode_image", list(pixels))
    warm = time.perf_counter() - started
    cache_row = {
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "hit_speedup": round(cold / max(warm, 1e-9), 1),
    }

    return {
        "bench": "interpreter_throughput",
        "required_jpeg_speedup": REQUIRED_JPEG_SPEEDUP,
        "jpeg_encode_profile": jpeg_row,
        "ofdm_symbol_profile": ofdm_row,
        "profile_cache": cache_row,
    }


def test_jpeg_compiled_speedup(report, capsys):
    row = report["jpeg_encode_profile"]
    with capsys.disabled():
        print(
            f"\n  JPEG encode profile: {row['steps']} instructions — "
            f"walker {row['walker_ips']:,} ips, "
            f"compiled {row['compiled_ips']:,} ips "
            f"({row['speedup']}x)"
        )
    assert row["speedup"] >= REQUIRED_JPEG_SPEEDUP


def test_ofdm_compiled_faster(report, capsys):
    row = report["ofdm_symbol_profile"]
    with capsys.disabled():
        print(
            f"\n  OFDM symbol profile: {row['steps']} instructions — "
            f"walker {row['walker_ips']:,} ips, "
            f"compiled {row['compiled_ips']:,} ips "
            f"({row['speedup']}x)"
        )
    # The OFDM run is ~25k instructions, so per-run constant costs are a
    # bigger slice; require a conservative floor rather than the JPEG one.
    assert row["speedup"] >= 2.0


def test_profile_cache_hit_is_fast(report, capsys):
    row = report["profile_cache"]
    with capsys.disabled():
        print(
            f"\n  profile cache: cold {row['cold_seconds']}s, warm "
            f"{row['warm_seconds']}s ({row['hit_speedup']}x)"
        )
    assert row["warm_seconds"] < row["cold_seconds"]


def test_write_bench_json(report):
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert json.loads(BENCH_PATH.read_text())["jpeg_encode_profile"][
        "speedup"
    ] >= REQUIRED_JPEG_SPEEDUP
