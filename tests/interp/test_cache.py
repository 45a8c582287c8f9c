"""Content-keyed profile cache: hits, invalidation, and the one
profiling path checked against the walker interpreter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dynamic_analysis import profile_cdfg, profile_cdfg_many
from repro.interp import (
    BlockProfiler,
    Interpreter,
    ProfileCache,
    args_digest,
    profile_key,
)
from repro.ir import cdfg_from_source
from repro.ir.operations import Const
from repro.ir.passes import optimize_cdfg
from repro.workloads.synthetic import minic_input, synthetic_program_source

LOOP_SRC = """
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; }
    return s;
}
"""


def loop_cdfg():
    return cdfg_from_source(LOOP_SRC)


class TestMemoryLayer:
    def test_second_lookup_hits(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        first = cache.profile(cdfg, "f", 10)
        second = cache.profile(cdfg, "f", 10)
        assert first.frequencies == second.frequencies
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_different_args_miss(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        cache.profile(cdfg, "f", 10)
        cache.profile(cdfg, "f", 11)
        assert cache.stats.misses == 2

    def test_different_entry_miss(self):
        src = LOOP_SRC + "\nint g(int n) { return f(n) + 1; }"
        cache = ProfileCache()
        cdfg = cdfg_from_source(src)
        cache.profile(cdfg, "f", 5)
        cache.profile(cdfg, "g", 5)
        assert cache.stats.misses == 2

    def test_equivalent_programs_share_entries(self):
        # Content keying: two CDFG instances from identical source hit
        # the same cache slot.
        cache = ProfileCache()
        cache.profile(loop_cdfg(), "f", 10)
        cache.profile(loop_cdfg(), "f", 10)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_mutated_cdfg_misses(self):
        cache = ProfileCache()
        cdfg = cdfg_from_source(
            "int f(int n) { int s = 0;"
            " for (int i = 0; i < 10; i++) { s += n; } return s; }"
        )
        before = cache.profile(cdfg, "f", 10)
        # Shrink the loop bound 10 -> 4 in the IR.
        mutated = False
        for block in cdfg.all_blocks():
            for ins in block.instructions:
                if any(
                    isinstance(op, Const) and op.value == 10
                    for op in ins.operands
                ):
                    ins.operands = tuple(
                        Const(4) if isinstance(op, Const) and op.value == 10
                        else op
                        for op in ins.operands
                    )
                    mutated = True
        assert mutated
        after = cache.profile(cdfg, "f", 10)
        assert cache.stats.misses == 2
        assert before.frequencies != after.frequencies

    def test_profile_many_accumulates_per_input(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        combined = profile_cdfg_many(
            cdfg, "f", [(3,), (5,), (3,)], cache=cache
        )
        assert cache.stats.misses == 2  # (3,) cached after the first run
        assert cache.stats.hits == 1
        direct = profile_cdfg_many(cdfg, "f", [(3,), (5,), (3,)])
        assert combined.frequencies == direct.frequencies
        assert combined.runs == direct.runs == 3

    def test_block_profiles_derived(self):
        cache = ProfileCache()
        cdfg = loop_cdfg()
        profiles = cache.block_profiles(cdfg, "f", 6)
        total_instructions = sum(
            p.dynamic_instructions for p in profiles.values()
        )
        record = cache.get_or_run(cdfg, "f", 6)
        assert total_instructions == record.steps
        assert all(p.exec_freq > 0 for p in profiles.values())


class TestArgsDigest:
    def test_value_kinds_distinguished(self):
        assert args_digest((1,)) != args_digest((1.0,))
        assert args_digest((True,)) != args_digest((1,))
        assert args_digest(([1, 2],)) != args_digest(([2, 1],))
        assert args_digest(([1, 2],)) != args_digest(([1], [2]))

    def test_key_stable_across_instances(self):
        assert profile_key(loop_cdfg(), "f", (10,)) == profile_key(
            loop_cdfg(), "f", (10,)
        )


class TestWorkloadIntegration:
    def test_jpeg_profile_image_cached(self):
        from repro.workloads import JPEGEncoderApp
        from repro.workloads import test_image as make_test_image

        app = JPEGEncoderApp()
        image = make_test_image(seed=8)
        first = app.profile_image(image)
        second = app.profile_image(image)
        assert first.frequencies == second.frequencies
        assert app.profile_cache.stats.misses == 1
        assert app.profile_cache.stats.hits == 1

    def test_ofdm_symbol_superset_reuses_prefix(self):
        from repro.workloads import (
            BITS_PER_SYMBOL,
            OFDMTransmitterApp,
            random_bits,
        )

        app = OFDMTransmitterApp()
        symbols = [random_bits(BITS_PER_SYMBOL, seed=s) for s in (1, 2, 3)]
        one = app.profile_symbols(symbols[:1])
        all_three = app.profile_symbols(symbols)
        assert app.profile_cache.stats.misses == 3  # not 4
        assert app.profile_cache.stats.hits == 1
        hot_one = dict(one.hottest(3))
        hot_three = dict(all_three.hottest(3))
        for bb_id, freq in hot_one.items():
            assert hot_three[bb_id] == 3 * freq

    def test_explore_measured_workload_repeats_identically(self):
        from repro.explore import (
            DesignSpace,
            PlatformSpec,
            WorkloadSpec,
            explore,
        )

        space = DesignSpace(
            workloads=(WorkloadSpec.ofdm_measured(symbols=1),),
            platforms=(PlatformSpec(afpga=1500, cgc_count=2),),
            constraint_fractions=(0.8,),
        )
        first = explore(space, max_workers=1)
        second = explore(space, max_workers=1)
        assert first.results == second.results
        result = first.results[0]
        assert result.workload == "ofdm-transmitter-measured-s1"
        assert result.reduction_percent >= 0

    def test_measured_labels_encode_params(self):
        from repro.explore import WorkloadSpec

        assert (
            WorkloadSpec.ofdm_measured(symbols=3).label
            != WorkloadSpec.ofdm_measured(symbols=6).label
        )
        assert (
            WorkloadSpec.jpeg_measured(image_seed=1).label
            != WorkloadSpec.jpeg_measured(image_seed=2).label
        )


def walker_frequencies(cdfg, entry, input_sets):
    """Block counts of the tree-walking reference interpreter, summed
    over ``input_sets``."""
    profiler = BlockProfiler()
    for args in input_sets:
        Interpreter(cdfg, profiler, mode="walker").run(entry, *args)
    return profiler.frequencies()


class TestProfilesMatchWalker:
    """``profile_cdfg`` runs one path (a content-keyed cache over the
    block-compiled counter-only engine); the walker is its reference."""

    @given(
        seed=st.integers(0, 63),
        mixers=st.integers(2, 8),
        rounds=st.integers(2, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_optimized_program_profile_matches_walker(
        self, seed, mixers, rounds
    ):
        # The flow-minic item shape: generate, lower, optimize, profile.
        cdfg = cdfg_from_source(
            synthetic_program_source(seed, mixers, rounds)
        )
        optimize_cdfg(cdfg)
        args = (minic_input(seed),)
        profile = profile_cdfg(cdfg, "entry", *args, cache=ProfileCache())
        assert profile.frequencies == walker_frequencies(
            cdfg, "entry", [args]
        )

    def test_ofdm_profile_symbols_match_walker(self):
        from repro.workloads import (
            BITS_PER_SYMBOL,
            OFDMTransmitterApp,
            random_bits,
        )
        from repro.workloads.ofdm import CP_LEN, FFT_SIZE

        app = OFDMTransmitterApp()
        symbols = [random_bits(BITS_PER_SYMBOL, seed=s) for s in (1, 2, 1)]
        profile = app.profile_symbols(symbols)
        out_len = FFT_SIZE + CP_LEN
        input_sets = [
            ([int(b) for b in bits], [0] * out_len, [0] * out_len)
            for bits in symbols
        ]
        assert profile.frequencies == walker_frequencies(
            app.cdfg, "ofdm_symbol", input_sets
        )
        assert profile.runs == 3
