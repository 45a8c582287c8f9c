"""Mini-C implementation of the IEEE 802.11a OFDM transmitter front-end.

The paper's first benchmark: "the front-end consists of the Quadrature
Amplitude Modulation (QAM) unit, the IFFT block and the cyclic prefix
unit" (§4).  This is a complete, runnable implementation in the project's
C subset — 16-QAM mapping, a 64-point Q12 fixed-point radix-2 IFFT and the
16-sample cyclic prefix — exercising the whole pipeline: frontend, CDFG,
interpreter profiling, analysis and partitioning.

The constant tables (bit-reversal permutation, Q12 twiddles) are built
here with :mod:`math` and integer arithmetic; the tests hold the
interpreted program bit-exact against an independent NumPy reference.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..analysis.dynamic_analysis import DynamicProfile, profile_cdfg_many
from ..interp.cache import ProfileCache
from ..interp.interpreter import Interpreter
from ..interp.values import ArrayStorage
from ..ir.cdfg import CDFG, cdfg_from_source

FFT_SIZE = 64
CP_LEN = 16
BITS_PER_SYMBOL = FFT_SIZE * 4  # 16-QAM: 4 bits per subcarrier
#: QAM outputs are Q8 fixed point.
QAM_SCALE = 256
#: Twiddles are Q12 fixed point.
TWIDDLE_FRAC_BITS = 12


def bit_reverse_indices(n: int) -> list[int]:
    """The bit-reversal permutation of a power-of-two ``n``."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def twiddle_tables(n: int) -> tuple[list[int], list[int]]:
    """Q12 cos/sin tables of the inverse FFT (positive exponent)."""
    scale = 1 << TWIDDLE_FRAC_BITS
    angles = [2.0 * math.pi * k / n for k in range(n // 2)]
    return (
        [round(math.cos(a) * scale) for a in angles],
        [round(math.sin(a) * scale) for a in angles],
    )


def _table(values: Iterable[int]) -> str:
    return ", ".join(map(str, values))


def ofdm_source() -> str:
    """The mini-C source of the transmitter front-end."""
    bitrev = bit_reverse_indices(FFT_SIZE)
    cos_table, sin_table = twiddle_tables(FFT_SIZE)
    return f"""
// IEEE 802.11a OFDM transmitter front-end: 16-QAM -> IFFT64 -> cyclic prefix.
// Fixed point: QAM outputs Q8, twiddles Q12, per-stage IFFT scaling by 1/2.

const int QAM_LEVELS[4] = {{-3, -1, 3, 1}};
const int BITREV[{FFT_SIZE}] = {{{_table(bitrev)}}};
const int WCOS[{FFT_SIZE // 2}] = {{{_table(cos_table)}}};
const int WSIN[{FFT_SIZE // 2}] = {{{_table(sin_table)}}};

// Map 4 bits (Gray-coded I/Q pairs) to one 16-QAM symbol, Q8 scale.
void qam16_map(int bits[{BITS_PER_SYMBOL}], int sym_re[{FFT_SIZE}], int sym_im[{FFT_SIZE}]) {{
    for (int s = 0; s < {FFT_SIZE}; s++) {{
        int b0 = bits[4 * s];
        int b1 = bits[4 * s + 1];
        int b2 = bits[4 * s + 2];
        int b3 = bits[4 * s + 3];
        int level_i = QAM_LEVELS[(b0 << 1) | b1];
        int level_q = QAM_LEVELS[(b2 << 1) | b3];
        sym_re[s] = level_i * {QAM_SCALE};
        sym_im[s] = level_q * {QAM_SCALE};
    }}
}}

// In-place 64-point radix-2 DIT IFFT, Q12 twiddles, 1/2 scaling per stage.
void ifft64(int re[{FFT_SIZE}], int im[{FFT_SIZE}]) {{
    int tr[{FFT_SIZE}];
    int ti[{FFT_SIZE}];
    for (int i = 0; i < {FFT_SIZE}; i++) {{
        tr[i] = re[BITREV[i]];
        ti[i] = im[BITREV[i]];
    }}
    for (int i = 0; i < {FFT_SIZE}; i++) {{
        re[i] = tr[i];
        im[i] = ti[i];
    }}
    int size = 2;
    int step = {FFT_SIZE // 2};
    while (size <= {FFT_SIZE}) {{
        int half = size >> 1;
        for (int start = 0; start < {FFT_SIZE}; start += size) {{
            for (int k = 0; k < half; k++) {{
                int wc = WCOS[k * step];
                int ws = WSIN[k * step];
                int bot = start + k + half;
                int top = start + k;
                int br = re[bot];
                int bi = im[bot];
                int prod_r = (br * wc - bi * ws) >> 12;
                int prod_i = (br * ws + bi * wc) >> 12;
                int ar = re[top];
                int ai = im[top];
                re[top] = (ar + prod_r) >> 1;
                im[top] = (ai + prod_i) >> 1;
                re[bot] = (ar - prod_r) >> 1;
                im[bot] = (ai - prod_i) >> 1;
            }}
        }}
        size = size << 1;
        step = step >> 1;
    }}
}}

// Prepend the last CP_LEN time-domain samples (802.11a guard interval).
void cyclic_prefix(int re[{FFT_SIZE}], int im[{FFT_SIZE}],
                   int out_re[{FFT_SIZE + CP_LEN}], int out_im[{FFT_SIZE + CP_LEN}]) {{
    for (int i = 0; i < {CP_LEN}; i++) {{
        out_re[i] = re[{FFT_SIZE - CP_LEN} + i];
        out_im[i] = im[{FFT_SIZE - CP_LEN} + i];
    }}
    for (int i = 0; i < {FFT_SIZE}; i++) {{
        out_re[{CP_LEN} + i] = re[i];
        out_im[{CP_LEN} + i] = im[i];
    }}
}}

// One payload symbol through the whole front-end.
void ofdm_symbol(int bits[{BITS_PER_SYMBOL}],
                 int out_re[{FFT_SIZE + CP_LEN}], int out_im[{FFT_SIZE + CP_LEN}]) {{
    int re[{FFT_SIZE}];
    int im[{FFT_SIZE}];
    qam16_map(bits, re, im);
    ifft64(re, im);
    cyclic_prefix(re, im, out_re, out_im);
}}
"""


@dataclass
class OFDMSymbolResult:
    """Output of one transmitted symbol plus execution metadata."""

    out_re: list[int]
    out_im: list[int]
    steps: int


class OFDMTransmitterApp:
    """Runnable wrapper: compile once, transmit symbols, profile.

    Execution uses the block-compiled interpreter fast path; profiling
    runs are memoized through ``profile_cache`` (content-keyed per
    symbol, so re-profiling a superset of symbols only executes the new
    ones).
    """

    def __init__(self, profile_cache: ProfileCache | None = None) -> None:
        self.source = ofdm_source()
        self.cdfg: CDFG = cdfg_from_source(self.source, "ofdm_tx.c")
        self.profile_cache = (
            profile_cache if profile_cache is not None else ProfileCache()
        )

    def transmit_symbol(self, bits: Iterable[int]) -> OFDMSymbolResult:
        """Run one 256-bit payload symbol through the interpreted design."""
        interpreter = Interpreter(self.cdfg)
        out_re = ArrayStorage.allocate("out_re", _int_array(FFT_SIZE + CP_LEN))
        out_im = ArrayStorage.allocate("out_im", _int_array(FFT_SIZE + CP_LEN))
        result = interpreter.run("ofdm_symbol", _symbol(bits), out_re, out_im)
        return OFDMSymbolResult(
            out_re=list(out_re.data), out_im=list(out_im.data), steps=result.steps
        )

    def profile_symbols(
        self, symbol_bits: Sequence[Iterable[int]]
    ) -> DynamicProfile:
        """Dynamic analysis over several payload symbols (paper: 6)."""
        out_len = FFT_SIZE + CP_LEN
        input_sets = [
            (_symbol(bits), [0] * out_len, [0] * out_len) for bits in symbol_bits
        ]
        return profile_cdfg_many(
            self.cdfg, "ofdm_symbol", input_sets, cache=self.profile_cache
        )


def _symbol(bits: Iterable[int]) -> list[int]:
    """One symbol's payload bits as plain ints."""
    symbol = [int(b) for b in bits]
    if len(symbol) != BITS_PER_SYMBOL:
        raise ValueError(f"need {BITS_PER_SYMBOL} bits per symbol")
    return symbol


def _int_array(size: int):
    from ..frontend.ast_nodes import ArrayType, Type

    return ArrayType(Type.INT, (size,))


def random_bits(count: int, seed: int = 2004) -> list[int]:
    """Deterministic pseudo-random payload bits."""
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(count)]
