"""The measured applications build their constant tables and payload bits
without numpy, and nothing they feed the flow changes with that.

The mini-C sources embed the tables the apps build with ``math`` and
integer arithmetic; the NumPy references in ``oracles.dsp`` build the same
tables their own way.  The OFDM transmitter has no data-dependent control
flow, so its profile, priced table and search results do not depend on
which payload bits it is fed.
"""

import hashlib

import numpy as np
import pytest

from oracles import dsp
from repro.explore.space import PlatformSpec, WorkloadSpec
from repro.job import Job, run_job
from repro.partition.costs import CostModel
from repro.partition.packed import PackedCostTable
from repro.partition.workload import workload_from_cdfg
from repro.search import AlgorithmSpec
from repro.workloads import jpeg, ofdm

#: sha256 of each source as the NumPy-derived tables first built it.
SOURCE_SHA256 = {
    "ofdm": "4f9d210c9b25aa3c49212433cd77e1715ff6462f22ecbea9c206e5b90ad56675",
    "jpeg": "682384a81d5deed7c4726fcee8f71be17c54b5533a5a2d4c33df9677328089f7",
}


class TestTablesMatchTheOracles:
    def test_ofdm_tables(self):
        assert ofdm.bit_reverse_indices(ofdm.FFT_SIZE) == list(
            dsp.bit_reverse_indices(ofdm.FFT_SIZE)
        )
        cos_table, sin_table = ofdm.twiddle_tables(ofdm.FFT_SIZE)
        oracle_cos, oracle_sin = dsp.twiddle_tables(ofdm.FFT_SIZE)
        assert cos_table == list(oracle_cos)
        assert sin_table == list(oracle_sin)
        assert ofdm.QAM_SCALE == dsp.QAM_SCALE
        assert ofdm.TWIDDLE_FRAC_BITS == dsp.TWIDDLE_FRAC_BITS

    def test_jpeg_tables(self):
        assert jpeg.dct_matrix_fixed() == list(dsp.dct_matrix_fixed().ravel())
        assert jpeg.reciprocal_table() == list(dsp.reciprocal_table().ravel())
        assert jpeg.zigzag_indices() == list(dsp.zigzag_indices())
        assert jpeg.LUMA_QUANT_TABLE == tuple(dsp.LUMA_QUANT_TABLE.ravel())
        assert jpeg.DCT_FRAC_BITS == dsp.DCT_FRAC_BITS
        assert jpeg.RECIP_SHIFT == dsp.RECIP_SHIFT

    @pytest.mark.parametrize("table", [
        ofdm.bit_reverse_indices(ofdm.FFT_SIZE),
        *ofdm.twiddle_tables(ofdm.FFT_SIZE),
        jpeg.dct_matrix_fixed(),
        jpeg.reciprocal_table(),
        jpeg.zigzag_indices(),
    ], ids=["BITREV", "WCOS", "WSIN", "DCTM", "RECIP", "ZZ"])
    def test_tables_hold_plain_ints(self, table):
        assert all(type(value) is int for value in table)

    @pytest.mark.parametrize("name", sorted(SOURCE_SHA256))
    def test_sources_are_unchanged(self, name):
        source = {"ofdm": ofdm.ofdm_source, "jpeg": jpeg.jpeg_source}[name]()
        assert hashlib.sha256(source.encode()).hexdigest() == SOURCE_SHA256[name]


class TestPayloadBits:
    def test_random_bits_are_seeded_plain_ints(self):
        bits = ofdm.random_bits(ofdm.BITS_PER_SYMBOL, seed=7)
        assert len(bits) == ofdm.BITS_PER_SYMBOL
        assert {type(b) for b in bits} == {int}
        assert set(bits) == {0, 1}
        assert bits == ofdm.random_bits(ofdm.BITS_PER_SYMBOL, seed=7)
        assert bits != ofdm.random_bits(ofdm.BITS_PER_SYMBOL, seed=8)

    def test_symbols_of_any_int_sequence_transmit_alike(self):
        app = ofdm.OFDMTransmitterApp()
        bits = ofdm.random_bits(ofdm.BITS_PER_SYMBOL, seed=3)
        as_list = app.transmit_symbol(bits)
        as_array = app.transmit_symbol(np.array(bits, dtype=np.int64))
        assert as_list == as_array
        assert {type(v) for v in as_list.out_re + as_list.out_im} == {int}

    @pytest.mark.parametrize("symbols", [1, 6, 12])
    def test_numpy_payload_bits_give_the_same_results(self, symbols):
        """``ofdm-measured`` fed the payload bits numpy used to draw has
        the same profile, table and search results as the stdlib draw."""
        spec = WorkloadSpec.ofdm_measured(symbols=symbols)
        platform = PlatformSpec()
        numpy_bits = [
            np.random.default_rng(2004 + index).integers(
                0, 2, size=ofdm.BITS_PER_SYMBOL, dtype=np.int64
            )
            for index in range(symbols)
        ]
        stdlib_bits = [
            ofdm.random_bits(ofdm.BITS_PER_SYMBOL, seed=2004 + index)
            for index in range(symbols)
        ]
        assert list(numpy_bits[0]) != stdlib_bits[0]
        app = ofdm.OFDMTransmitterApp()
        numpy_profile = app.profile_symbols(numpy_bits)
        stdlib_profile = ofdm.OFDMTransmitterApp().profile_symbols(stdlib_bits)
        assert numpy_profile == stdlib_profile
        assert numpy_profile.runs == symbols

        built = platform.build()
        numpy_workload = workload_from_cdfg(
            app.cdfg, numpy_profile, name=spec.label
        )
        numpy_table = PackedCostTable.from_model(
            CostModel(numpy_workload, built)
        )
        stdlib_workload = spec.build()
        stdlib_table = PackedCostTable.from_model(
            CostModel(stdlib_workload, built)
        )
        assert numpy_table == stdlib_table
        for algorithm in (AlgorithmSpec.greedy(), AlgorithmSpec.exhaustive()):
            job = Job(spec, platform, algorithm,
                      constraint_fractions=(0.3, 0.5, 0.8))
            numpy_run = run_job(job, (numpy_workload, built, numpy_table))
            stdlib_run = run_job(job, (stdlib_workload, built, stdlib_table))
            assert numpy_run.results == stdlib_run.results
            assert (numpy_run.partitioner.pareto_front()
                    == stdlib_run.partitioner.pareto_front())

