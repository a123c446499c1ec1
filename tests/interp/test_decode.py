"""The decoded form, and the slow tier resuming from it.

The compiled tier translates :class:`~repro.interp.decode.DecodedFunction`
images, never the original code, and reports everything in original
coordinates through the decoded maps: ``pc_map`` turns a decoded pc into
an original pc, and ``regs`` turns a dense register index back into its
:class:`Reg`.  A compiled-tier bail leans on both at once: it resumes the
slow dispatch loop at ``pc_map[pc]`` with the register file re-keyed
through ``regs``.

The first half checks the maps structurally on every bench program and
the CI fuzz seeds.  The second half runs hand-built images hitting every
fault class at their natural budget *and* at every smaller budget, so a
bail lands on the slow tier at each point the run reaches; the compiled
tier must report the same fault, coordinates and counters as the slow
tier every time.
"""

import pytest

from repro.bench.suite import all_programs
from repro.compiler import compile_source
from repro.interp import decode
from repro.interp.decode import OP_CBR, OP_JMP, decode_image
from repro.interp.machine import (
    FunctionImage,
    Machine,
    ProgramImage,
    Tracer,
)
from repro.interp.memory import MachineFault
from repro.ir import iloc
from repro.ir.iloc import Instr, Op, Symbol, vreg
from repro.resilience import faults
from repro.testing import random_source


def opcodes_for(op):
    """Decoded opcodes an original op may become (ldm/stm split by space)."""
    names = (f"OP_{op.name}", f"OP_{op.name}_SPILL", f"OP_{op.name}_GLOBAL")
    return {getattr(decode, name) for name in names if hasattr(decode, name)}


def assert_decoded_maps_hold(function_image):
    decoded = decode_image(function_image)
    code = function_image.code
    n = len(decoded.code)
    # pc_map lists exactly the non-label instructions, in order.
    assert list(decoded.pc_map) == [
        index for index, instr in enumerate(code) if instr.op is not Op.LABEL
    ]
    for ins, original in zip(decoded.code, decoded.pc_map):
        assert ins[0] in opcodes_for(code[original].op)
    # regs is a bijection onto the registers the original code mentions.
    mentioned = set()
    for instr in code:
        mentioned.update(instr.srcs)
        if instr.dst is not None:
            mentioned.add(instr.dst)
    assert len(set(decoded.regs)) == len(decoded.regs)
    assert set(decoded.regs) == mentioned

    # Branch targets resolve to the first instruction after the label.
    def resolved(label):
        following = [
            pc
            for pc, original in enumerate(decoded.pc_map)
            if original >= function_image.labels[label]
        ]
        return following[0] if following else n

    for ins, original in zip(decoded.code, decoded.pc_map):
        instr = code[original]
        if ins[0] == OP_CBR:
            assert ins[2:] == (resolved(instr.label), resolved(instr.label_false))
        elif ins[0] == OP_JMP:
            assert ins[1] == resolved(instr.label)


class TestBenchEquivalence:
    @pytest.mark.parametrize(
        "bench", all_programs(), ids=lambda b: b.name
    )
    def test_reference_image_equivalence(self, bench):
        image = compile_source(
            bench.source(), filename=bench.filename
        ).reference_image()
        for function_image in image.functions.values():
            assert_decoded_maps_hold(function_image)


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_seed_equivalence(self, seed):
        # Mirrors the CI fuzz configuration (25 seeds, size="small").
        image = compile_source(random_source(seed, "small")).reference_image()
        for function_image in image.functions.values():
            assert_decoded_maps_hold(function_image)


def execute(image, tier, entry, max_cycles):
    """Run one tier; returns (stats, fault-or-None)."""
    machine = Machine(image, max_cycles=max_cycles, tier=tier)
    fault = None
    try:
        machine.run(entry)
    except MachineFault as err:
        fault = (err.message, err.function, err.pc, err.cycles)
    return machine.stats, fault


def assert_paths_agree(image, entry="f", max_cycles=5_000_000):
    """Slow vs compiled at ``max_cycles`` and at every smaller budget the
    run reaches; returns the fault at ``max_cycles`` (or None)."""
    stats, fault = execute(image, "slow", entry, max_cycles)
    reached = fault[3] if fault else stats.total.cycles
    for budget in range(1, min(reached, max_cycles) + 1):
        slow_stats, slow_fault = execute(image, "slow", entry, budget)
        comp_stats, comp_fault = execute(image, "compiled", entry, budget)
        assert comp_fault == slow_fault, budget
        assert comp_stats.output == slow_stats.output
        assert comp_stats.total == slow_stats.total
        assert comp_stats.per_function == slow_stats.per_function
    return fault


def single_image(code, globals_=(), params=(), extra=None):
    functions = {"f": FunctionImage("f", code, list(params))}
    if extra:
        functions.update(extra)
    return ProgramImage(list(globals_), functions)


class TestFaultEquivalence:
    """Hand-built images hitting every fault class, at every budget."""

    def test_uninitialized_register(self):
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                iloc.binary(Op.ADD, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_paths_agree(image)
        assert fault == ("read of uninitialized register %v9 in f", "f", 1, 2)

    @pytest.mark.parametrize("op", [Op.DIV, Op.MOD])
    def test_division_by_zero(self, op):
        image = single_image(
            [
                iloc.loadi(7, vreg(0)),
                iloc.loadi(0, vreg(1)),
                iloc.binary(op, vreg(0), vreg(1), vreg(2)),
                Instr(Op.RET, srcs=[vreg(2)]),
            ]
        )
        fault = assert_paths_agree(image)
        assert fault is not None
        assert "by zero" in fault[0]
        assert fault[1:] == ("f", 2, 3)

    def test_cycle_budget_exceeded(self):
        image = single_image(
            [
                iloc.label("spin"),
                iloc.jmp("spin"),
            ]
        )
        fault = assert_paths_agree(image, max_cycles=1000)
        assert fault == ("cycle budget exceeded in f", "f", 1, 1001)

    def test_unknown_function(self):
        image = single_image([Instr(Op.CALL, callee="nope"), Instr(Op.RET)])
        fault = assert_paths_agree(image)
        assert fault is not None
        assert "nope" in fault[0]
        assert fault[1:] == ("f", 0, 1)

    def test_too_few_queued_params(self):
        callee = FunctionImage(
            "g", [Instr(Op.RET)], ["g.%arg0", "g.%arg1"]
        )
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                Instr(Op.PARAM, srcs=[vreg(0)]),
                Instr(Op.CALL, callee="g"),
                Instr(Op.RET),
            ],
            extra={"g": callee},
        )
        fault = assert_paths_agree(image)
        assert fault == ("call to g with too few queued params", "f", 2, 3)

    def test_bad_heap_address(self):
        image = single_image(
            [
                iloc.loadi(-1, vreg(0)),
                iloc.load(vreg(0), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_paths_agree(image)
        assert fault is not None
        assert fault[1:] == ("f", 1, 2)

    def test_unknown_global_array(self):
        image = single_image(
            [
                Instr(Op.LOADA, addr=Symbol("ghost", "global"), dst=vreg(0)),
                Instr(Op.RET, srcs=[vreg(0)]),
            ]
        )
        fault = assert_paths_agree(image)
        assert fault == ("unknown global array 'ghost'", "f", 0, 1)

    def test_fault_pc_is_original_coordinates(self):
        """Labels precede the faulting instruction: decoded code strips
        them, yet every tier and every bail must report the original pc."""
        image = single_image(
            [
                iloc.loadi(1, vreg(0)),
                iloc.label("a"),
                iloc.label("b"),
                iloc.binary(Op.ADD, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_paths_agree(image)
        # pc 3 in original code (after two labels); labels cost no cycles.
        assert fault == ("read of uninitialized register %v9 in f", "f", 3, 2)

    @pytest.mark.parametrize(
        "op,first,expected",
        [
            (Op.AND, 0, 0),  # falsy left: right operand never read
            (Op.OR, 1, 1),   # truthy left: right operand never read
        ],
    )
    def test_short_circuit_skips_uninitialized_operand(
        self, op, first, expected
    ):
        image = single_image(
            [
                iloc.loadi(first, vreg(0)),
                iloc.binary(op, vreg(0), vreg(9), vreg(1)),
                Instr(Op.RET, srcs=[vreg(1)]),
            ]
        )
        fault = assert_paths_agree(image)
        assert fault is None
        assert Machine(image, tier="compiled").run("f") == expected


class TestSlowPathForcing:
    """Tracing and fault injection demote execution to the slow tier
    without decoding anything; the compiled tier decodes on first use."""

    def source_image(self):
        return compile_source(
            "void main() { int i; int s; s = 0;"
            " for (i = 0; i < 10; i = i + 1) { s = s + i; }"
            " print(s); }"
        ).reference_image()

    def test_tracer_forces_slow_path(self):
        image = self.source_image()
        tracer = Tracer()
        machine = Machine(image, tracer=tracer)
        assert machine.interp_tier() == "slow"
        machine.run("main")
        assert machine.stats.output == [45]
        assert tracer.events  # the slow path actually recorded
        assert image.functions["main"]._decoded is None

    def test_armed_fault_probe_forces_slow_path(self):
        image = self.source_image()
        with faults.injected(faults.FaultSpec("rap.region.raise", "nope")):
            machine = Machine(image)
            assert machine.interp_tier() == "slow"
            machine.run("main")
        assert machine.stats.output == [45]
        assert image.functions["main"]._decoded is None

    def test_slow_tier_decodes_nothing(self):
        image = self.source_image()
        machine = Machine(image, tier="slow")
        assert machine.interp_tier() == "slow"
        machine.run("main")
        assert machine.stats.output == [45]
        assert image.functions["main"]._decoded is None

    def test_compiled_tier_populates_decode_cache(self):
        image = self.source_image()
        machine = Machine(image)
        assert machine.interp_tier() == "compiled"
        machine.run("main")
        assert machine.stats.output == [45]
        assert image.functions["main"]._decoded is not None
        assert machine.decode_seconds > 0.0
