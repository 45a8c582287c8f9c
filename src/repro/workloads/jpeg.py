"""Mini-C implementation of the JPEG encoder front-end.

The paper's second benchmark: "the main parts of the JPEG encoder are the
DCT transformation unit, the quantizer, the zig-zag scanning unit and the
entropy (Huffman) encoder" (§4).  All four stages are implemented in the
project's C subset: an integer separable 8x8 DCT (Q10), divide-free
reciprocal-multiply quantization (the paper notes the DFGs contain no
divisions), table-driven zig-zag scanning, and the run-length/size-category
entropy model whose emitted bit count the hot loop computes.

Constant tables are built here with :mod:`math` and integer arithmetic;
the tests hold the interpreted program bit-exact against independent
NumPy references.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.dynamic_analysis import DynamicProfile, profile_cdfg
from ..interp.cache import ProfileCache
from ..interp.interpreter import Interpreter
from ..ir.cdfg import CDFG, cdfg_from_source

if TYPE_CHECKING:
    import numpy as np

IMAGE_SIZE = 32  # 32x32 test frame = 16 of the 8x8 blocks
BLOCKS_PER_SIDE = IMAGE_SIZE // 8
LEVEL_SHIFT = 128
#: The DCT matrix is Q10 fixed point.
DCT_FRAC_BITS = 10
#: Quantizer reciprocals are ``round(2^16 / q)``.
RECIP_SHIFT = 16
#: The ISO/IEC 10918-1 Annex K luminance quantization table, row-major.
LUMA_QUANT_TABLE = (
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
)


def dct_matrix_fixed() -> list[int]:
    """The Q10 orthonormal 8x8 DCT-II coefficient matrix, row-major."""
    return [
        round(
            math.sqrt((1.0 if k == 0 else 2.0) / 8)
            * math.cos((2 * i + 1) * k * math.pi / 16)
            * (1 << DCT_FRAC_BITS)
        )
        for k in range(8)
        for i in range(8)
    ]


def reciprocal_table() -> list[int]:
    """The quantizer's fixed-point reciprocals, row-major."""
    return [round((1 << RECIP_SHIFT) / q) for q in LUMA_QUANT_TABLE]


def zigzag_indices() -> list[int]:
    """The 64 row-major positions in JPEG zig-zag order."""
    order = []
    for diagonal in range(15):
        cells = [r * 8 + diagonal - r for r in range(8) if 0 <= diagonal - r < 8]
        # Even diagonals run bottom-left to top-right.
        order.extend(reversed(cells) if diagonal % 2 == 0 else cells)
    return order


def _table(values: Iterable[int]) -> str:
    return ", ".join(map(str, values))


def jpeg_source() -> str:
    """The mini-C source of the encoder."""
    dct_matrix = dct_matrix_fixed()
    recip = reciprocal_table()
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

    def encode_image(self, image: Sequence[Sequence[int]]) -> JPEGEncodeResult:
        """Encode one IMAGE_SIZE×IMAGE_SIZE greyscale frame (rows of
        pixels: nested lists or a 2-D array)."""
        pixels = self._flatten(image)
        interpreter = Interpreter(self.cdfg)
        result = interpreter.run("encode_image", pixels)
        assert result.return_value is not None
        return JPEGEncodeResult(
            total_bits=int(result.return_value), steps=result.steps
        )

    def encode_block(self, block: Sequence[Sequence[int]]) -> int:
        """Encode one level-shifted 8x8 block; returns its bit cost."""
        values = _rows(block, 8, "expected an 8x8 block")
        interpreter = Interpreter(self.cdfg)
        result = interpreter.run("encode_block", values)
        assert result.return_value is not None
        return int(result.return_value)

    def profile_image(self, image: Sequence[Sequence[int]]) -> DynamicProfile:
        """Dynamic analysis over one frame (cached, counter-only)."""
        pixels = self._flatten(image)
        return profile_cdfg(
            self.cdfg, "encode_image", pixels, cache=self.profile_cache
        )

    @staticmethod
    def _flatten(image: Sequence[Sequence[int]]) -> list[int]:
        pixels = _rows(
            image, IMAGE_SIZE,
            f"expected a {IMAGE_SIZE}x{IMAGE_SIZE} greyscale image",
        )
        if min(pixels) < 0 or max(pixels) > 255:
            raise ValueError("pixel values must be 8-bit")
        return pixels


def _rows(square: Sequence[Sequence[int]], side: int, message: str) -> list[int]:
    """A ``side``×``side`` grid's values in row-major order, as ints."""
    rows = list(square)
    if len(rows) != side or any(len(row) != side for row in rows):
        raise ValueError(message)
    return [int(value) for row in rows for value in row]


def test_image(seed: int = 1994) -> np.ndarray:
    """A deterministic smooth-plus-noise greyscale test frame."""
    import numpy as np

    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]
    smooth = 128 + 60 * np.sin(x / 5.0) * np.cos(y / 7.0)
    noisy = smooth + rng.normal(0, 8, size=smooth.shape)
    return np.clip(np.round(noisy), 0, 255).astype(np.int64)
