"""Reference integer 8x8 DCT-II matching the mini-C JPEG encoder.

The mini-C encoder uses a separable matrix DCT in Q10 fixed point
(row pass then column pass, truncating shifts), the standard
divide-free integer formulation.  ``dct2d_fixed`` is the bit-exact model;
``dct2d_reference`` is the orthonormal floating DCT for tolerance checks.
"""

from __future__ import annotations

import numpy as np

DCT_FRAC_BITS = 10
DCT_SCALE = 1 << DCT_FRAC_BITS


def _dct_matrix() -> np.ndarray:
    """The unrounded orthonormal 8x8 DCT-II matrix ``C`` (row ``k`` is
    frequency ``k``), so the 2-D DCT of ``x`` is ``C @ x @ C.T``."""
    n = 8
    matrix = np.zeros((n, n), dtype=np.float64)
    for k in range(n):
        for i in range(n):
            alpha = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
            matrix[k, i] = alpha * np.cos((2 * i + 1) * k * np.pi / (2 * n))
    return matrix


def dct_matrix_fixed() -> np.ndarray:
    """Q10 integer 8x8 DCT-II (orthonormal) coefficient matrix."""
    return np.round(_dct_matrix() * DCT_SCALE).astype(np.int64)


def _shift_round_toward_zero(value: np.ndarray, bits: int) -> np.ndarray:
    """C-style ``>>`` on possibly negative ints is implementation lore; the
    mini-C code uses arithmetic shifts, which floor — model exactly that."""
    return value >> bits


def dct2d_fixed(block: np.ndarray) -> np.ndarray:
    """Bit-exact model of the mini-C separable integer DCT.

    Row pass: ``tmp = (C · blockᵀ-ish) >> 10``; column pass likewise.
    """
    block = np.asarray(block, dtype=np.int64)
    if block.shape != (8, 8):
        raise ValueError("DCT operates on 8x8 blocks")
    c = dct_matrix_fixed()
    # Row pass: for each row r of the image block, coefficients over i.
    tmp = np.zeros((8, 8), dtype=np.int64)
    for r in range(8):
        for k in range(8):
            acc = np.int64(0)
            for i in range(8):
                acc += c[k, i] * block[r, i]
            tmp[r, k] = _shift_round_toward_zero(acc, DCT_FRAC_BITS)
    out = np.zeros((8, 8), dtype=np.int64)
    for k in range(8):
        for col in range(8):
            acc = np.int64(0)
            for r in range(8):
                acc += c[k, r] * tmp[r, col]
            out[k, col] = _shift_round_toward_zero(acc, DCT_FRAC_BITS)
    return out


def dct2d_reference(block: np.ndarray) -> np.ndarray:
    """Floating orthonormal 2-D DCT-II (for tolerance comparisons)."""
    c = _dct_matrix()
    return c @ np.asarray(block, dtype=np.float64) @ c.T
