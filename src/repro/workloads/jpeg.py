"""Mini-C implementation of the JPEG encoder front-end.

The paper's second benchmark: "the main parts of the JPEG encoder are the
DCT transformation unit, the quantizer, the zig-zag scanning unit and the
entropy (Huffman) encoder" (§4).  All four stages are implemented in the
project's C subset: an integer separable 8x8 DCT (Q10), divide-free
reciprocal-multiply quantization (the paper notes the DFGs contain no
divisions), table-driven zig-zag scanning, and the run-length/size-category
entropy model whose emitted bit count the hot loop computes.

Constant tables are generated from the NumPy references in
:mod:`repro.workloads.dsp` so tests can demand bit-exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.dynamic_analysis import DynamicProfile, profile_cdfg
from ..interp.cache import ProfileCache
from ..interp.interpreter import Interpreter
from ..ir.cdfg import CDFG, cdfg_from_source
from .dsp.dct import DCT_FRAC_BITS, dct_matrix_fixed
from .dsp.quantize import RECIP_SHIFT, reciprocal_table
from .dsp.zigzag import zigzag_indices

IMAGE_SIZE = 32  # 32x32 test frame = 16 of the 8x8 blocks
BLOCKS_PER_SIDE = IMAGE_SIZE // 8
LEVEL_SHIFT = 128


def _table(values) -> str:
    return ", ".join(str(int(v)) for v in values)


def jpeg_source() -> str:
    """The mini-C source of the encoder."""
    dct_matrix = dct_matrix_fixed().ravel()
    recip = reciprocal_table().ravel()
    zigzag = zigzag_indices()
    return f"""
// JPEG encoder front-end: level shift -> 8x8 integer DCT (Q10) ->
// reciprocal-multiply quantizer -> zig-zag scan -> run-length/size entropy.

const int DCTM[64] = {{{_table(dct_matrix)}}};
const int RECIP[64] = {{{_table(recip)}}};
const int ZZ[64] = {{{_table(zigzag)}}};

// Separable 2-D DCT: row pass then column pass, truncating Q10 shifts.
void dct8x8(int block[64], int coeffs[64]) {{
    int tmp[64];
    for (int r = 0; r < 8; r++) {{
        for (int k = 0; k < 8; k++) {{
            int acc = 0;
            for (int i = 0; i < 8; i++) {{
                acc += DCTM[8 * k + i] * block[8 * r + i];
            }}
            tmp[8 * r + k] = acc >> {DCT_FRAC_BITS};
        }}
    }}
    for (int k = 0; k < 8; k++) {{
        for (int c = 0; c < 8; c++) {{
            int acc = 0;
            for (int r = 0; r < 8; r++) {{
                acc += DCTM[8 * k + r] * tmp[8 * r + c];
            }}
            coeffs[8 * k + c] = acc >> {DCT_FRAC_BITS};
        }}
    }}
}}

// Divide-free quantization: q = (|c| * recip) >> {RECIP_SHIFT}, sign restored.
void quantize(int coeffs[64], int out[64]) {{
    for (int i = 0; i < 64; i++) {{
        int value = coeffs[i];
        int negative = 0;
        if (value < 0) {{
            negative = 1;
            value = 0 - value;
        }}
        int q = (value * RECIP[i]) >> {RECIP_SHIFT};
        if (negative) {{
            q = 0 - q;
        }}
        out[i] = q;
    }}
}}

void zigzag(int quantized[64], int scanned[64]) {{
    for (int i = 0; i < 64; i++) {{
        scanned[i] = quantized[ZZ[i]];
    }}
}}

// JPEG 'SSSS' size category: bits needed for |v|.
int size_category(int value) {{
    int magnitude = value;
    if (magnitude < 0) {{
        magnitude = 0 - magnitude;
    }}
    int size = 0;
    while (magnitude > 0) {{
        size = size + 1;
        magnitude = magnitude >> 1;
    }}
    return size;
}}

// Static code-length book (baseline-shaped): 4 bits for run/EOB classes,
// otherwise 2 + run + size capped at 16.
int code_length(int run, int size) {{
    if (size == 0) {{
        return 4;
    }}
    int length = 2 + run + size;
    if (length > 16) {{
        length = 16;
    }}
    return length;
}}

// Run-length entropy model over one zig-zag block; returns emitted bits.
int entropy_bits(int scanned[64]) {{
    int bits = 0;
    int dc_size = size_category(scanned[0]);
    bits = bits + code_length(0, dc_size) + dc_size;
    int run = 0;
    for (int i = 1; i < 64; i++) {{
        int value = scanned[i];
        if (value == 0) {{
            run = run + 1;
            if (run == 16) {{
                bits = bits + code_length(15, 0);
                run = 0;
            }}
        }} else {{
            int size = size_category(value);
            bits = bits + code_length(run, size) + size;
            run = 0;
        }}
    }}
    if (run > 0) {{
        bits = bits + code_length(0, 0);
    }}
    return bits;
}}

// One 8x8 block through all four stages; returns its bit cost.
int encode_block(int block[64]) {{
    int coeffs[64];
    int quantized[64];
    int scanned[64];
    dct8x8(block, coeffs);
    quantize(coeffs, quantized);
    zigzag(quantized, scanned);
    return entropy_bits(scanned);
}}

// Whole {IMAGE_SIZE}x{IMAGE_SIZE} frame: level-shift, block, encode.
int encode_image(int image[{IMAGE_SIZE * IMAGE_SIZE}]) {{
    int block[64];
    int total_bits = 0;
    for (int by = 0; by < {BLOCKS_PER_SIDE}; by++) {{
        for (int bx = 0; bx < {BLOCKS_PER_SIDE}; bx++) {{
            for (int y = 0; y < 8; y++) {{
                for (int x = 0; x < 8; x++) {{
                    int pixel = image[(8 * by + y) * {IMAGE_SIZE} + 8 * bx + x];
                    block[8 * y + x] = pixel - {LEVEL_SHIFT};
                }}
            }}
            total_bits = total_bits + encode_block(block);
        }}
    }}
    return total_bits;
}}
"""


@dataclass
class JPEGEncodeResult:
    total_bits: int
    steps: int


class JPEGEncoderApp:
    """Runnable wrapper: compile once, encode frames, profile.

    Execution uses the block-compiled interpreter fast path; profiling
    runs are memoized through ``profile_cache`` (a fresh
    :class:`ProfileCache` by default — pass a shared one to reuse
    profiles across app instances).
    """

    def __init__(self, profile_cache: ProfileCache | None = None) -> None:
        self.source = jpeg_source()
        self.cdfg: CDFG = cdfg_from_source(self.source, "jpeg_enc.c")
        self.profile_cache = (
            profile_cache if profile_cache is not None else ProfileCache()
        )

    def encode_image(self, image: np.ndarray) -> JPEGEncodeResult:
        """Encode one IMAGE_SIZE×IMAGE_SIZE greyscale frame."""
        pixels = self._flatten(image)
        interpreter = Interpreter(self.cdfg)
        result = interpreter.run("encode_image", pixels)
        assert result.return_value is not None
        return JPEGEncodeResult(
            total_bits=int(result.return_value), steps=result.steps
        )

    def encode_block(self, block: np.ndarray) -> int:
        """Encode one level-shifted 8x8 block; returns its bit cost."""
        block = np.asarray(block, dtype=np.int64)
        if block.shape != (8, 8):
            raise ValueError("expected an 8x8 block")
        interpreter = Interpreter(self.cdfg)
        result = interpreter.run(
            "encode_block", [int(v) for v in block.ravel()]
        )
        assert result.return_value is not None
        return int(result.return_value)

    def profile_image(self, image: np.ndarray) -> DynamicProfile:
        """Dynamic analysis over one frame (cached, counter-only)."""
        pixels = self._flatten(image)
        return profile_cdfg(
            self.cdfg, "encode_image", pixels, cache=self.profile_cache
        )

    @staticmethod
    def _flatten(image: np.ndarray) -> list[int]:
        image = np.asarray(image, dtype=np.int64)
        if image.shape != (IMAGE_SIZE, IMAGE_SIZE):
            raise ValueError(
                f"expected a {IMAGE_SIZE}x{IMAGE_SIZE} greyscale image"
            )
        if image.min() < 0 or image.max() > 255:
            raise ValueError("pixel values must be 8-bit")
        return [int(p) for p in image.ravel()]


def test_image(seed: int = 1994) -> np.ndarray:
    """A deterministic smooth-plus-noise greyscale test frame."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]
    smooth = 128 + 60 * np.sin(x / 5.0) * np.cos(y / 7.0)
    noisy = smooth + rng.normal(0, 8, size=smooth.shape)
    return np.clip(np.round(noisy), 0, 255).astype(np.int64)
