"""End-to-end tests of the mini-C OFDM and JPEG applications."""

import numpy as np
import pytest

from repro.analysis import WeightModel, extract_kernels
from repro.workloads import (
    BITS_PER_SYMBOL,
    JPEGEncoderApp,
    OFDMTransmitterApp,
    random_bits,
)
from repro.workloads import test_image as make_test_image  # avoid pytest collection
from oracles.dsp import (
    dct2d_fixed,
    encode_block,
    ifft_fixed,
    qam16_map_bits_fixed,
    quantize_fixed,
    zigzag_scan,
)
from repro.workloads.jpeg import IMAGE_SIZE, LEVEL_SHIFT
from repro.workloads.ofdm import CP_LEN, FFT_SIZE


@pytest.fixture(scope="module")
def ofdm_app():
    return OFDMTransmitterApp()


@pytest.fixture(scope="module")
def jpeg_app():
    return JPEGEncoderApp()


class TestOFDMApp:
    def test_bit_exact_vs_reference(self, ofdm_app):
        bits = random_bits(BITS_PER_SYMBOL, seed=5)
        result = ofdm_app.transmit_symbol(bits)
        i_sym, q_sym = qam16_map_bits_fixed(bits)
        re, im = ifft_fixed(i_sym, q_sym)
        assert np.array_equal(result.out_re, np.concatenate([re[-CP_LEN:], re]))
        assert np.array_equal(result.out_im, np.concatenate([im[-CP_LEN:], im]))

    def test_cyclic_prefix_property(self, ofdm_app):
        result = ofdm_app.transmit_symbol(random_bits(BITS_PER_SYMBOL, seed=9))
        assert np.array_equal(result.out_re[:CP_LEN], result.out_re[FFT_SIZE:])
        assert np.array_equal(result.out_im[:CP_LEN], result.out_im[FFT_SIZE:])

    def test_output_length(self, ofdm_app):
        result = ofdm_app.transmit_symbol(random_bits(BITS_PER_SYMBOL))
        assert len(result.out_re) == FFT_SIZE + CP_LEN

    def test_wrong_bit_count_rejected(self, ofdm_app):
        with pytest.raises(ValueError):
            ofdm_app.transmit_symbol(np.zeros(10, dtype=np.int64))

    def test_profile_scales_with_symbols(self, ofdm_app):
        one = ofdm_app.profile_symbols([random_bits(BITS_PER_SYMBOL, seed=1)])
        two = ofdm_app.profile_symbols(
            [random_bits(BITS_PER_SYMBOL, seed=s) for s in (1, 2)]
        )
        hot_one = dict(one.hottest(3))
        hot_two = dict(two.hottest(3))
        for bb_id, freq in hot_one.items():
            assert hot_two[bb_id] == 2 * freq

    def test_kernels_are_ifft_blocks(self, ofdm_app):
        profile = ofdm_app.profile_symbols(
            [random_bits(BITS_PER_SYMBOL, seed=3)]
        )
        analysis = extract_kernels(ofdm_app.cdfg, profile, WeightModel())
        assert analysis.kernels
        top = analysis.kernels[0]
        assert top.function == "ifft64"  # butterfly loop dominates


class TestJPEGApp:
    def test_bit_exact_vs_reference(self, jpeg_app):
        image = make_test_image(seed=21)
        expected = 0
        for by in range(IMAGE_SIZE // 8):
            for bx in range(IMAGE_SIZE // 8):
                block = (
                    image[8 * by : 8 * by + 8, 8 * bx : 8 * bx + 8].astype(
                        np.int64
                    )
                    - LEVEL_SHIFT
                )
                zz = zigzag_scan(quantize_fixed(dct2d_fixed(block)))
                expected += encode_block(zz)[1]
        assert jpeg_app.encode_image(image).total_bits == expected

    def test_single_block_encode(self, jpeg_app):
        block = np.zeros((8, 8), dtype=np.int64)
        bits = jpeg_app.encode_block(block)
        zz = zigzag_scan(quantize_fixed(dct2d_fixed(block)))
        assert bits == encode_block(zz)[1]

    def test_smooth_image_fewer_bits_than_noise(self, jpeg_app):
        smooth = np.full((IMAGE_SIZE, IMAGE_SIZE), 128, dtype=np.int64)
        rng = np.random.default_rng(4)
        noisy = rng.integers(0, 256, (IMAGE_SIZE, IMAGE_SIZE))
        assert (
            jpeg_app.encode_image(smooth).total_bits
            < jpeg_app.encode_image(noisy).total_bits
        )

    def test_pixel_range_validated(self, jpeg_app):
        bad = np.full((IMAGE_SIZE, IMAGE_SIZE), 300, dtype=np.int64)
        with pytest.raises(ValueError):
            jpeg_app.encode_image(bad)

    def test_shape_validated(self, jpeg_app):
        with pytest.raises(ValueError):
            jpeg_app.encode_image(np.zeros((8, 8), dtype=np.int64))

    def test_kernels_in_hot_functions(self, jpeg_app):
        profile = jpeg_app.profile_image(make_test_image(seed=2))
        analysis = extract_kernels(jpeg_app.cdfg, profile, WeightModel())
        top_functions = {k.function for k in analysis.kernels[:4]}
        assert "dct8x8" in top_functions
