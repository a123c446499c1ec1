"""Tests for the rematerialization extension."""

import pytest

from repro.compiler import compile_source, param_slots
from repro.interp.machine import FunctionImage, ProgramImage, run_program
from repro.ir import iloc
from repro.ir.iloc import Instr, Op, vreg
from repro.pdg.linearize import linearize
from repro.regalloc import allocate_gra, allocate_rap
from repro.regalloc.remat import (
    constant_registers,
    rematerialize_linear,
    sweep_dead_defs_linear,
)
from repro.testing import random_source

# Six loop-invariant constants force spilling at k=3; all are
# rematerializable, so remat should wipe out the spill memory traffic.
CONSTANT_PRESSURE = """
void main() {
    int a; int b; int c; int d; int e; int f; int i; int s;
    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6;
    s = 0;
    for (i = 0; i < 20; i = i + 1) {
        s = s + a + b + c + d + e + f;
    }
    print(s);
    print(a + b - c + d - e + f);
}
"""


def run_with(source, allocator, k, **kwargs):
    prog = compile_source(source)
    reference = run_program(prog.reference_image())
    module = prog.fresh_module()
    functions = {}
    results = {}
    for name, func in module.functions.items():
        result = allocator(func, k, **kwargs)
        functions[name] = FunctionImage(name, result.code, param_slots(func))
        results[name] = result
    stats = run_program(ProgramImage(list(module.globals.values()), functions))
    assert stats.output == reference.output
    return stats, results


class TestConstantAnalysis:
    def test_loadi_is_constant(self):
        code = [iloc.loadi(5, vreg(0))]
        assert constant_registers(code) == {vreg(0): 5}

    def test_copy_chain_resolves(self):
        code = [
            iloc.loadi(5, vreg(0)),
            iloc.copy(vreg(0), vreg(1)),
            iloc.copy(vreg(1), vreg(2)),
        ]
        constants = constant_registers(code)
        assert constants[vreg(2)] == 5

    def test_conflicting_defs_not_constant(self):
        code = [
            iloc.loadi(5, vreg(0)),
            iloc.loadi(6, vreg(0)),
        ]
        assert vreg(0) not in constant_registers(code)

    def test_same_constant_from_two_defs_ok(self):
        code = [
            iloc.loadi(5, vreg(0)),
            iloc.loadi(5, vreg(0)),
        ]
        assert constant_registers(code)[vreg(0)] == 5

    def test_computed_value_not_constant(self):
        code = [
            iloc.loadi(5, vreg(0)),
            iloc.binary(Op.ADD, vreg(0), vreg(0), vreg(1)),
        ]
        assert vreg(1) not in constant_registers(code)

    def test_int_float_distinguished(self):
        code = [iloc.loadi(5, vreg(0)), iloc.loadi(5.0, vreg(1))]
        constants = constant_registers(code)
        assert type(constants[vreg(0)]) is int
        assert type(constants[vreg(1)]) is float

    def test_mixed_int_float_defs_not_constant(self):
        code = [iloc.loadi(5, vreg(0)), iloc.loadi(5.0, vreg(0))]
        assert vreg(0) not in constant_registers(code)


class TestLinearTransform:
    def test_uses_fed_by_fresh_loadis(self):
        counter = [10]

        def new_vreg():
            counter[0] += 1
            return vreg(counter[0])

        code = [
            iloc.loadi(5, vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.PRINT, srcs=[vreg(0)]),
        ]
        out, temps = rematerialize_linear(code, vreg(0), 5, new_vreg)
        assert [i.op for i in out] == [Op.LOADI, Op.PRINT, Op.LOADI, Op.PRINT]
        assert len(temps) == 2
        assert all(i.imm == 5 for i in out if i.op is Op.LOADI)

    def test_defs_deleted(self):
        code = [iloc.loadi(5, vreg(0)), Instr(Op.RET)]
        out, temps = rematerialize_linear(code, vreg(0), 5, lambda: vreg(99))
        assert [i.op for i in out] == [Op.RET]
        assert temps == set()

    def test_sweep_removes_dead_chains(self):
        code = [
            iloc.loadi(5, vreg(0)),
            iloc.copy(vreg(0), vreg(1)),   # v1 dead after v2's removal
            iloc.copy(vreg(1), vreg(2)),   # v2 dead
            Instr(Op.RET),
        ]
        out = sweep_dead_defs_linear(code)
        assert [i.op for i in out] == [Op.RET]

    def test_sweep_keeps_impure_defs(self):
        code = [
            iloc.loadi(4096, vreg(0)),
            iloc.load(vreg(0), vreg(1)),  # heap load: not swept
            Instr(Op.RET),
        ]
        out = sweep_dead_defs_linear(code)
        assert Op.LOAD in [i.op for i in out]


class TestAllocatorsWithRemat:
    @pytest.mark.parametrize("allocator", [allocate_gra, allocate_rap])
    def test_behaviour_preserved(self, allocator):
        run_with(CONSTANT_PRESSURE, allocator, 3, remat=True)

    def test_gra_remat_eliminates_spill_memory_traffic(self):
        plain, _ = run_with(CONSTANT_PRESSURE, allocate_gra, 3)
        remat, _ = run_with(CONSTANT_PRESSURE, allocate_gra, 3, remat=True)
        assert remat.total.loads < plain.total.loads
        assert remat.total.stores <= plain.total.stores
        assert remat.total.cycles <= plain.total.cycles

    def test_rap_remat_reduces_loads(self):
        plain, _ = run_with(CONSTANT_PRESSURE, allocate_rap, 3)
        remat, results = run_with(CONSTANT_PRESSURE, allocate_rap, 3, remat=True)
        assert remat.total.loads < plain.total.loads
        assert results["main"].rematerialized

    def test_remat_log_records_constants(self):
        _, results = run_with(CONSTANT_PRESSURE, allocate_rap, 3, remat=True)
        for reg, value in results["main"].rematerialized:
            assert value in (1, 2, 3, 4, 5, 6, 0)

    def test_no_remat_without_flag(self):
        _, results = run_with(CONSTANT_PRESSURE, allocate_rap, 3)
        assert not results["main"].rematerialized

    def test_non_constant_values_still_spill(self):
        # s accumulates: not rematerializable; must still work at k=3.
        source = """
        void main() {
            int a; int b; int c; int d; int i;
            a = 1; b = 2; c = 3; d = 4;
            for (i = 0; i < 5; i = i + 1) {
                a = a + b; b = b + c; c = c + d; d = d + a;
            }
            print(a + b + c + d);
        }
        """
        for allocator in (allocate_gra, allocate_rap):
            run_with(source, allocator, 3, remat=True)

    def test_rap_spills_victim_swept_by_same_round_remat(self):
        # In this program an earlier rematerialization of a round sweeps
        # away every reference to a later victim of the same round; its
        # spill must see empty chains, not a missing register.
        run_with(random_source(12123, "small"), allocate_rap, 3, remat=True)
