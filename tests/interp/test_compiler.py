"""Differential tests: the block-compiled engine vs the tree walker.

The compiled fast path must be bit-identical to the walker on every
workload — same return values, step counts, block counts, array state,
global state, block frequencies and raised exceptions.
"""

import builtins
import sys
import threading

import pytest

from repro.frontend.ast_nodes import ArrayType, Type
from repro.interp import (
    ArrayStorage,
    BlockProfiler,
    ExecutionLimitExceeded,
    Interpreter,
    cdfg_fingerprint,
    compile_cdfg,
    run_function,
)
from repro.interp import compiler as compiler_module
from repro.ir import Const, Instruction, Opcode, cdfg_from_source
from repro.workloads import (
    BITS_PER_SYMBOL,
    JPEGEncoderApp,
    OFDMTransmitterApp,
    minic_input,
    random_bits,
    synthetic_program_source,
)
from repro.workloads import test_image as make_test_image


def run_both(source, fn, *args):
    """Run a program under both engines; return (walker, compiled)."""
    cdfg = cdfg_from_source(source)
    walker = run_function(cdfg, fn, *args, mode="walker")
    compiled = run_function(cdfg, fn, *args, mode="compiled")
    return walker, compiled


def assert_identical(source, fn, *args):
    walker, compiled = run_both(source, fn, *args)
    assert walker == compiled
    return compiled


class TestLanguageSemantics:
    @pytest.mark.parametrize(
        "expr",
        [
            "1 + 2 * 3",
            "7 / 2",
            "-7 / 2",
            "7 % 3",
            "-7 % 3",
            "1 << 5",
            "-16 >> 2",
            "12 & 10",
            "12 | 10",
            "12 ^ 10",
            "~0",
            "!5",
            "1 ? 10 : 20",
            "abs(0 - 9)",
            "min(4, 2)",
            "max(4, 2)",
            "(int) 3.99",
            "round(2.5)",
            "round(0.0 - 2.5)",
        ],
    )
    def test_constant_expressions(self, expr):
        assert_identical(f"int f() {{ return {expr}; }}", "f")

    def test_float_arithmetic_and_casts(self):
        src = """
        float f(float x) {
            float y = sqrt(x) * 0.5 + (float)((int) x);
            return y + floor(x / 2.0);
        }
        """
        assert_identical(src, "f", 6.25)

    def test_float_truncation_on_int_assign(self):
        assert_identical("int f() { int a = 0; a = 7 / 2; return a; }", "f")

    def test_control_flow_and_loops(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 1) { continue; }
                int j = 0;
                while (j <= i) { s += j; j++; }
                if (s > 400) { break; }
            }
            do { s++; } while (0);
            return s;
        }
        """
        for n in (0, 1, 7, 40):
            assert_identical(src, "f", n)

    def test_recursion(self):
        src = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        """
        result = assert_identical(src, "fib", 12)
        assert result.return_value == 144

    def test_global_scalar_mutation(self):
        src = """
        int counter = 3;
        void bump() { counter = counter + 2; }
        int f() { bump(); bump(); return counter; }
        """
        cdfg = cdfg_from_source(src)
        walker = Interpreter(cdfg, mode="walker")
        compiled = Interpreter(cdfg, mode="compiled")
        assert walker.run("f") == compiled.run("f")
        assert walker.global_scalar("counter") == compiled.global_scalar(
            "counter"
        ) == 7

    def test_local_shadowing_global(self):
        src = """
        int x = 41;
        int f() { int x = 5; return x + 1; }
        int g() { return x; }
        """
        assert_identical(src, "f")
        assert_identical(src, "g")

    def test_array_param_mutation_visible(self):
        src = """
        void fill(int a[6], int v) {
            for (int i = 0; i < 6; i++) { a[i] = v * i - 3; }
        }
        """
        cdfg = cdfg_from_source(src)
        storages = []
        for mode in ("walker", "compiled"):
            storage = ArrayStorage.allocate("a", ArrayType(Type.INT, (6,)))
            Interpreter(cdfg, mode=mode).run("fill", storage, 7)
            storages.append(storage.snapshot())
        assert storages[0] == storages[1]

    def test_global_array_mutation(self):
        src = """
        int buf[8];
        void poke(int i, int v) { buf[i] = v; }
        int peek(int i) { return buf[i]; }
        """
        cdfg = cdfg_from_source(src)
        results = []
        for mode in ("walker", "compiled"):
            interp = Interpreter(cdfg, mode=mode)
            for i in range(8):
                interp.run("poke", i, 3 * i - 5)
            results.append(interp.global_array("buf").snapshot())
        assert results[0] == results[1]


class TestErrorParity:
    def test_out_of_bounds_raises_index_error(self):
        src = "int f() { int a[2]; return a[5]; }"
        for mode in ("walker", "compiled"):
            with pytest.raises(IndexError):
                run_function(cdfg_from_source(src), "f", mode=mode)

    def test_wrong_arity_message_identical(self):
        src = "int f(int a) { return a; }"
        messages = []
        for mode in ("walker", "compiled"):
            with pytest.raises(TypeError) as excinfo:
                run_function(cdfg_from_source(src), "f", mode=mode)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_unknown_function_raises_key_error(self):
        for mode in ("walker", "compiled"):
            with pytest.raises(KeyError):
                run_function(
                    cdfg_from_source("int f() { return 1; }"), "g", mode=mode
                )

    def test_scalar_where_array_expected(self):
        src = "int first(int a[3]) { return a[0]; }"
        for mode in ("walker", "compiled"):
            with pytest.raises(TypeError):
                run_function(cdfg_from_source(src), "first", 3, mode=mode)

    def test_step_budget_enforced(self):
        cdfg = cdfg_from_source("void f() { while (1) { } }")
        for mode in ("walker", "compiled"):
            with pytest.raises(ExecutionLimitExceeded):
                run_function(cdfg, "f", max_steps=10_000, mode=mode)

    def test_step_budget_boundary_identical(self):
        # The budget at which a terminating program first fails must
        # agree between engines (same total step accounting).
        src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }"
        cdfg = cdfg_from_source(src)
        steps = run_function(cdfg, "f", 9, mode="walker").steps
        for mode in ("walker", "compiled"):
            assert run_function(cdfg, "f", 9, max_steps=steps, mode=mode)
            with pytest.raises(ExecutionLimitExceeded):
                run_function(cdfg, "f", 9, max_steps=steps - 1, mode=mode)

    def test_compiled_mode_rejects_custom_hooks(self):
        class Custom:
            def on_block_enter(self, block, function): ...

            def on_instruction(self, instruction, function): ...

        cdfg = cdfg_from_source("int f() { return 1; }")
        with pytest.raises(ValueError):
            Interpreter(cdfg, Custom(), mode="compiled")
        # auto mode falls back to the walker instead.
        assert Interpreter(cdfg, Custom()).run("f").return_value == 1

    def test_unknown_mode_rejected(self):
        cdfg = cdfg_from_source("int f() { return 1; }")
        with pytest.raises(ValueError):
            Interpreter(cdfg, mode="jit")

    def test_undefined_temp_read_fails_loudly(self):
        # Malformed IR (a temp read that no instruction wrote) must fail
        # loudly in both engines, not silently treat the unwritten slot
        # as a value.  The compiled engine sanitizes the IR before
        # compiling, so it rejects the program up front; with the
        # sanitizer off it keeps the walker's runtime diagnostic.
        from repro.ir import VerificationError, set_sanitizer
        from repro.ir.operations import Opcode, Temp

        cdfg = cdfg_from_source("int f(int n) { return n + 1; }")
        block = cdfg.cfg("f").entry
        for ins in block.instructions:
            if ins.opcode not in (Opcode.BR, Opcode.CBR, Opcode.RET):
                ins.operands = (Temp(99),) + ins.operands[1:]
                break
        with pytest.raises(RuntimeError, match="undefined temp %t99"):
            run_function(cdfg, "f", 3, mode="walker")
        with pytest.raises(VerificationError, match="t99"):
            run_function(cdfg, "f", 3, mode="compiled")
        set_sanitizer(False)
        try:
            with pytest.raises(RuntimeError, match="undefined temp %t99"):
                run_function(cdfg, "f", 3, mode="compiled")
        finally:
            set_sanitizer(None)


class TestProfilingParity:
    def _frequencies(self, cdfg, fn, *args):
        out = []
        for mode in ("walker", "compiled"):
            profiler = BlockProfiler()
            Interpreter(cdfg, profiler, mode=mode).run(fn, *args)
            out.append(profiler)
        return out

    def test_frequencies_identical(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += i; }
            return s;
        }
        """
        walker, compiled = self._frequencies(cdfg_from_source(src), "f", 10)
        assert walker.frequencies() == compiled.frequencies()
        assert (
            walker.total_blocks_executed() == compiled.total_blocks_executed()
        )

    def test_per_block_statistics_identical_without_calls(self):
        # On call-free programs the walker's per-instruction attribution
        # and the compiled engine's static derivation agree per block.
        src = """
        int f(int a[8]) {
            int s = 0;
            for (int i = 0; i < 8; i++) { s += a[i]; a[i] = s; }
            return s;
        }
        """
        walker, compiled = self._frequencies(
            cdfg_from_source(src), "f", list(range(8))
        )
        assert walker.profiles.keys() == compiled.profiles.keys()
        for bb_id, wp in walker.profiles.items():
            cp = compiled.profiles[bb_id]
            assert (wp.exec_freq, wp.dynamic_instructions,
                    wp.dynamic_memory_accesses) == (
                cp.exec_freq, cp.dynamic_instructions,
                cp.dynamic_memory_accesses,
            )

    def test_instruction_totals_identical_with_calls(self):
        # With calls the walker misattributes a caller's post-call
        # instructions to the callee's last block; frequencies and
        # whole-program totals must still agree exactly.
        src = """
        int inc(int x) { return x + 1; }
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s = inc(s) + inc(i); }
            return s;
        }
        """
        walker, compiled = self._frequencies(cdfg_from_source(src), "f", 6)
        assert walker.frequencies() == compiled.frequencies()
        for attr in ("dynamic_instructions", "dynamic_memory_accesses"):
            assert sum(
                getattr(p, attr) for p in walker.profiles.values()
            ) == sum(getattr(p, attr) for p in compiled.profiles.values())

    def test_profiler_accumulates_across_runs(self):
        src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }"
        cdfg = cdfg_from_source(src)
        results = []
        for mode in ("walker", "compiled"):
            profiler = BlockProfiler()
            interp = Interpreter(cdfg, profiler, mode=mode)
            interp.run("f", 4)
            interp.run("f", 9)
            results.append(profiler.frequencies())
        assert results[0] == results[1]


class TestWorkloadParity:
    def test_ofdm_symbol_bit_identical(self):
        app = OFDMTransmitterApp()
        bits = [int(b) for b in random_bits(BITS_PER_SYMBOL, seed=77)]
        outputs = []
        for mode in ("walker", "compiled"):
            out_re = ArrayStorage.allocate("o_re", ArrayType(Type.INT, (80,)))
            out_im = ArrayStorage.allocate("o_im", ArrayType(Type.INT, (80,)))
            result = Interpreter(app.cdfg, mode=mode).run(
                "ofdm_symbol", list(bits), out_re, out_im
            )
            outputs.append((result, out_re.snapshot(), out_im.snapshot()))
        assert outputs[0] == outputs[1]

    def test_jpeg_image_bit_identical(self):
        app = JPEGEncoderApp()
        pixels = [int(p) for p in make_test_image(seed=11).ravel()]
        walker = Interpreter(app.cdfg, mode="walker").run(
            "encode_image", list(pixels)
        )
        compiled = Interpreter(app.cdfg, mode="compiled").run(
            "encode_image", list(pixels)
        )
        assert walker == compiled

    def test_jpeg_profile_frequencies_identical(self):
        app = JPEGEncoderApp()
        pixels = [int(p) for p in make_test_image(seed=5).ravel()]
        profilers = []
        for mode in ("walker", "compiled"):
            profiler = BlockProfiler()
            Interpreter(app.cdfg, profiler, mode=mode).run(
                "encode_image", list(pixels)
            )
            profilers.append(profiler)
        assert profilers[0].frequencies() == profilers[1].frequencies()

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_synthetic_programs(self, seed):
        source = synthetic_program_source(seed)
        cdfg = cdfg_from_source(source, f"synth{seed}.c")
        data = [((seed * 37 + i * 13) % 256) - 128 for i in range(32)]
        states = []
        for mode in ("walker", "compiled"):
            storage = ArrayStorage.allocate("d", ArrayType(Type.INT, (32,)))
            for index, value in enumerate(data):
                storage.store(index, value)
            profiler = BlockProfiler()
            interp = Interpreter(cdfg, profiler, mode=mode)
            result = interp.run("entry", storage)
            states.append(
                (
                    result,
                    storage.snapshot(),
                    interp.global_scalar("g_acc"),
                    profiler.frequencies(),
                )
            )
        assert states[0] == states[1]


class TestCompilationCache:
    def test_program_cached_on_cdfg(self):
        cdfg = cdfg_from_source("int f() { return 2; }")
        assert compile_cdfg(cdfg) is compile_cdfg(cdfg)

    def test_mutation_triggers_recompile(self):
        from repro.ir.operations import Const

        cdfg = cdfg_from_source("int f() { return 2 + 0; }")
        first = compile_cdfg(cdfg)
        before = run_function(cdfg, "f", mode="compiled").return_value
        mutated = False
        for block in cdfg.all_blocks():
            for ins in block.instructions:
                if any(
                    isinstance(op, Const) and op.value == 2
                    for op in ins.operands
                ):
                    ins.operands = tuple(
                        Const(9) if isinstance(op, Const) and op.value == 2
                        else op
                        for op in ins.operands
                    )
                    mutated = True
        assert mutated
        assert compile_cdfg(cdfg) is not first
        after = run_function(cdfg, "f", mode="compiled").return_value
        assert (before, after) == (2, 9)

    def test_fingerprint_stable_and_content_sensitive(self):
        a = cdfg_from_source("int f() { return 1 + 2; }")
        b = cdfg_from_source("int f() { return 1 + 2; }")
        c = cdfg_from_source("int f() { return 1 + 3; }")
        assert cdfg_fingerprint(a) == cdfg_fingerprint(b)
        assert cdfg_fingerprint(a) != cdfg_fingerprint(c)


LAZY_SOURCE = """
int unused(int x) {
    int y = x * 3;
    if (y > 5) { y = y - 5; }
    return y;
}

int depth(int n) {
    if (n <= 0) { return 0; }
    int r = depth(n - 1);
    return r + n;
}

int f(int n) {
    int s = 1;
    if (n > 100) {
        s = s + 40;
    } else {
        s = s + depth(n);
    }
    return s;
}
"""


@pytest.fixture
def compiles(monkeypatch):
    """Filenames passed to ``compile`` by the block compiler, in order."""
    seen: list[str] = []

    def counting_compile(source, filename, mode):
        seen.append(filename)
        return builtins.compile(source, filename, mode)

    monkeypatch.setattr(
        compiler_module, "compile", counting_compile, raising=False
    )
    return seen


def profiled_run(cdfg, program, fn, *args):
    profiler = BlockProfiler()
    result = Interpreter(
        cdfg, profiler, mode="compiled", compiled_program=program
    ).run(fn, *args)
    return result, profiler


class TestFirstEntryCompilation:
    def test_only_entered_blocks_compile(self, compiles):
        cdfg = cdfg_from_source(LAZY_SOURCE, "lazy.c")
        program = compile_cdfg(cdfg)
        assert compiles == []
        result, profiler = profiled_run(cdfg, program, "f", 4)
        entered = {
            f"<compiled {p.function}/{p.label}>"
            for p in profiler.profiles.values()
        }
        # depth() recurses into blocks whose first call has not returned;
        # each block still compiles exactly once.
        assert sorted(compiles) == sorted(entered)
        assert len(entered) < len(program.slots)
        assert not any("unused/" in name for name in compiles)
        compiles.clear()
        assert profiled_run(cdfg, program, "f", 4)[0] == result
        assert compiles == []

    def test_recursive_blocks_match_walker(self):
        cdfg = cdfg_from_source(LAZY_SOURCE, "lazy.c")
        for n in (0, 1, 9, 200):
            walker = BlockProfiler()
            expected = Interpreter(cdfg, walker, mode="walker").run("f", n)
            result, profiler = profiled_run(
                cdfg, compile_cdfg(cdfg, force=True), "f", n
            )
            assert result == expected
            assert profiler.frequencies() == walker.frequencies()

    def test_entry_block_that_heads_a_loop(self):
        # Fold the do-while latch into the body and make the body the
        # entry: the entry block then branches back to itself.
        cdfg = cdfg_from_source(
            "int f(int n) { do { n = n - 1; } while (n > 0); return n; }"
        )
        cfg = cdfg.cfg("f")
        body, latch = cfg.blocks["do_body1"], cfg.blocks["do_latch2"]
        body.instructions[-1:] = [
            *latch.instructions[:-1],
            Instruction(
                Opcode.CBR,
                operands=latch.terminator.operands,
                targets=("do_body1", "do_exit3"),
            ),
        ]
        del cfg.blocks["entry0"], cfg.blocks["do_latch2"]
        cfg.entry_label = "do_body1"
        cdfg.prune_removed_blocks()
        for n in (1, 5):
            walker = BlockProfiler()
            expected = Interpreter(cdfg, walker, mode="walker").run("f", n)
            result, profiler = profiled_run(
                cdfg, compile_cdfg(cdfg, force=True), "f", n
            )
            assert result == expected
            assert profiler.frequencies() == walker.frequencies()
            assert expected.blocks_executed == n + 1

    def test_threads_share_one_program(self):
        # Four threads (more than cores) run each program together behind
        # a barrier, 20 times; every time the program is fresh, so they
        # race through the first-entry compiles of the same blocks.
        cdfg = cdfg_from_source(synthetic_program_source(3, 8, 6), "synth.c")
        data = minic_input(3)

        def outcome(program):
            result, profiler = profiled_run(cdfg, program, "entry", data)
            return result, profiler.frequencies()

        expected = outcome(compile_cdfg(cdfg, force=True))
        programs = [compile_cdfg(cdfg, force=True) for _ in range(20)]
        barrier = threading.Barrier(4)
        outcomes: list[list] = [[] for _ in range(4)]

        def worker(index):
            for program in programs:
                barrier.wait(timeout=30)
                outcomes[index].append(outcome(program))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [[expected] * 20] * 4

    def test_program_runs_its_codegen_snapshot(self):
        cdfg = cdfg_from_source(LAZY_SOURCE, "lazy.c")
        program = compile_cdfg(cdfg)
        assert profiled_run(cdfg, program, "f", 3)[0].return_value == 7
        # The n > 100 side has not run yet; change its constant.
        then_block = next(
            block
            for block in cdfg.cfg("f")
            if any(Const(40) in ins.operands for ins in block.instructions)
        )
        for ins in then_block.instructions:
            ins.operands = tuple(
                Const(99) if op == Const(40) else op for op in ins.operands
            )
        pinned = Interpreter(cdfg, mode="compiled", compiled_program=program)
        assert pinned.run("f", 200).return_value == 41
        assert Interpreter(cdfg, mode="compiled").run("f", 200).return_value == 100
        assert Interpreter(cdfg, mode="walker").run("f", 200).return_value == 100
