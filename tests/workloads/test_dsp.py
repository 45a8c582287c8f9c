"""Tests of the NumPy DSP reference implementations."""

import numpy as np
import pytest

from oracles.dsp import (
    bit_reverse_indices,
    code_length,
    dct2d_fixed,
    dct2d_reference,
    dct_matrix_fixed,
    encode_block,
    ifft_fixed,
    ifft_reference,
    inverse_zigzag,
    qam16_map_bits,
    qam16_map_bits_fixed,
    quantize_fixed,
    quantize_reference,
    reciprocal_table,
    size_category,
    twiddle_tables,
    zigzag_indices,
    zigzag_scan,
)


class TestQAM:
    def test_all_levels_produced(self):
        bits = np.array(
            [0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0], dtype=np.int64
        )
        symbols = qam16_map_bits(bits)
        assert list(symbols) == [-3 - 3j, -1 - 1j, 1 + 1j, 3 + 3j]

    def test_bit_count_validation(self):
        with pytest.raises(ValueError):
            qam16_map_bits(np.array([0, 1, 0]))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            qam16_map_bits(np.array([0, 1, 2, 1]))

    def test_fixed_point_scale(self):
        bits = np.zeros(8, dtype=np.int64)
        i_vals, q_vals = qam16_map_bits_fixed(bits)
        assert list(i_vals) == [-768, -768]


class TestIFFT:
    def test_bit_reverse_involution(self):
        order = bit_reverse_indices(64)
        assert np.array_equal(order[order], np.arange(64))

    def test_bit_reverse_power_of_two_only(self):
        with pytest.raises(ValueError):
            bit_reverse_indices(48)

    def test_twiddle_magnitudes(self):
        cos_t, sin_t = twiddle_tables(64)
        assert cos_t[0] == 4096 and sin_t[0] == 0
        assert np.all(np.abs(cos_t) <= 4096)

    def test_impulse_gives_flat_output(self):
        real = np.zeros(64, dtype=np.int64)
        imag = np.zeros(64, dtype=np.int64)
        real[0] = 64 << 6  # large impulse at DC
        out_re, out_im = ifft_fixed(real, imag)
        # IFFT of DC impulse = constant (impulse/64)
        assert np.all(out_re == out_re[0])
        assert np.all(out_im == 0)

    def test_close_to_float_reference(self):
        rng = np.random.default_rng(3)
        real = rng.integers(-3 * 256, 3 * 256, 64)
        imag = rng.integers(-3 * 256, 3 * 256, 64)
        fixed_re, fixed_im = ifft_fixed(real, imag)
        reference = ifft_reference(real, imag)
        # Q12 twiddles + truncating shifts: small absolute error.
        assert np.max(np.abs(fixed_re - reference.real)) < 8
        assert np.max(np.abs(fixed_im - reference.imag)) < 8


class TestDCT:
    def test_matrix_orthogonality(self):
        matrix = dct_matrix_fixed().astype(np.float64) / 1024
        identity = matrix @ matrix.T
        assert np.allclose(identity, np.eye(8), atol=0.01)

    def test_constant_block_energy_in_dc(self):
        block = np.full((8, 8), 100, dtype=np.int64)
        coeffs = dct2d_fixed(block)
        assert abs(coeffs[0, 0]) > 100
        assert np.all(np.abs(coeffs.ravel()[1:]) <= 2)

    def test_close_to_float_reference(self):
        rng = np.random.default_rng(5)
        block = rng.integers(-128, 128, (8, 8))
        fixed = dct2d_fixed(block)
        reference = dct2d_reference(block)
        assert np.max(np.abs(fixed - reference)) < 4

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            dct2d_fixed(np.zeros((4, 4)))


class TestZigzag:
    def test_permutation(self):
        order = zigzag_indices()
        assert sorted(order) == list(range(64))

    def test_known_prefix(self):
        # Standard JPEG zig-zag starts 0, 1, 8, 16, 9, 2, 3, 10, ...
        assert list(zigzag_indices()[:8]) == [0, 1, 8, 16, 9, 2, 3, 10]

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        block = rng.integers(-50, 50, (8, 8))
        assert np.array_equal(inverse_zigzag(zigzag_scan(block)), block)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            zigzag_scan(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            inverse_zigzag(np.zeros(32))


class TestQuantize:
    def test_reciprocal_table_values(self):
        recip = reciprocal_table()
        assert recip.ravel()[0] == round((1 << 16) / 16)

    def test_matches_division_closely(self):
        rng = np.random.default_rng(11)
        coeffs = rng.integers(-1000, 1000, (8, 8))
        fixed = quantize_fixed(coeffs)
        reference = quantize_reference(coeffs)
        assert np.max(np.abs(fixed - reference)) <= 1

    def test_sign_symmetry(self):
        coeffs = np.full((8, 8), 333, dtype=np.int64)
        positive = quantize_fixed(coeffs)
        negative = quantize_fixed(-coeffs)
        assert np.array_equal(negative, -positive)

    def test_zero_maps_to_zero(self):
        assert np.all(quantize_fixed(np.zeros((8, 8), dtype=np.int64)) == 0)


class TestEntropy:
    def test_size_category(self):
        assert size_category(0) == 0
        assert size_category(1) == 1
        assert size_category(-1) == 1
        assert size_category(255) == 8
        assert size_category(-256) == 9

    def test_code_length_caps(self):
        assert code_length(15, 10) == 16
        assert code_length(0, 0) == 4

    def test_all_zero_block(self):
        symbols, bits = encode_block(np.zeros(64, dtype=np.int64))
        # DC symbol + 3 ZRLs (48 zeros) + EOB for the remaining 15.
        assert len(symbols) == 5
        assert bits == code_length(0, 0) * 5

    def test_zrl_emitted_for_long_runs(self):
        coeffs = np.zeros(64, dtype=np.int64)
        coeffs[0] = 5
        coeffs[20] = 1  # 19 zeros before -> one ZRL + run 3
        symbols, _ = encode_block(coeffs)
        assert any(s.run == 15 and s.size == 0 for s in symbols)

    def test_bits_positive_for_nonzero(self):
        coeffs = np.zeros(64, dtype=np.int64)
        coeffs[0] = -100
        coeffs[1] = 30
        __, bits = encode_block(coeffs)
        assert bits > 10

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode_block(np.zeros(63, dtype=np.int64))
