"""Tests for all-registers reaching definitions (ud/du chains)."""

import pytest

import repro.cfg.reachdefs as reachdefs
from repro.bench.suite import all_programs, program
from repro.cfg.graph import CFG
from repro.cfg.reachdefs import chains_for
from repro.compiler import compile_source
from repro.ir import iloc
from repro.ir.iloc import Instr, Op, vreg
from repro.pdg.linearize import linearize
from repro.regalloc.rap.allocator import allocate_rap
from repro.regalloc.ssaspill import allocate_ssaspill
from repro.resilience.pipeline import PassPipeline
from repro.resilience.validators import validate_ssa_construction
from repro.testing import random_source


def chains(code, reg):
    return chains_for(CFG(code))[reg]


class TestStraightline:
    def test_single_def_reaches_use(self):
        code = [
            iloc.loadi(1, vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[1]) == [code[0]]
        assert result.uses_reached_by(code[0]) == [code[1]]

    def test_redefinition_kills_earlier_def(self):
        code = [
            iloc.loadi(1, vreg(0)),
            iloc.loadi(2, vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[2]) == [code[1]]
        assert result.uses_reached_by(code[0]) == []

    def test_use_and_def_in_same_instruction(self):
        code = [
            iloc.loadi(1, vreg(0)),
            iloc.binary(Op.ADD, vreg(0), vreg(0), vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[1]) == [code[0]]
        assert result.defs_reaching(code[2]) == [code[1]]
        # Read twice by one instruction, listed once.
        assert result.all_uses() == [code[1], code[2]]
        assert result.uses_reached_by(code[0]) == [code[1]]

    def test_registers_are_independent(self):
        code = [
            iloc.loadi(1, vreg(0)),
            iloc.loadi(2, vreg(1)),
            iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
            Instr(Op.PRINT, srcs=[vreg(1)]),
            Instr(Op.RET),
        ]
        result = chains_for(CFG(code))
        assert set(result) == {vreg(0), vreg(1)}
        assert result[vreg(0)].all_defs() == [code[0], code[2]]
        assert result[vreg(1)].all_defs() == [code[1]]
        assert result[vreg(1)].uses_reached_by(code[1]) == [code[2], code[3]]

    def test_use_without_def_has_no_reaching_defs(self):
        code = [Instr(Op.PRINT, srcs=[vreg(0)]), Instr(Op.RET)]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[0]) == []
        assert result.all_defs() == []


class TestBranching:
    def test_both_arms_reach_join(self):
        code = [
            iloc.loadi(1, vreg(9)),
            iloc.cbr(vreg(9), "T", "F"),
            iloc.label("T"),
            iloc.loadi(1, vreg(0)),
            iloc.jmp("E"),
            iloc.label("F"),
            iloc.loadi(2, vreg(0)),
            iloc.label("E"),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            Instr(Op.RET),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[8]) == [code[3], code[6]]
        assert result.uses_reached_by(code[3]) == [code[8]]
        assert result.uses_reached_by(code[6]) == [code[8]]

    def test_loop_carried_def_reaches_header_use(self):
        code = [
            iloc.loadi(0, vreg(0)),
            iloc.label("H"),
            Instr(Op.PRINT, srcs=[vreg(0)]),
            iloc.loadi(1, vreg(1)),
            iloc.binary(Op.ADD, vreg(0), vreg(1), vreg(0)),
            iloc.jmp("H"),
        ]
        result = chains(code, vreg(0))
        assert result.defs_reaching(code[2]) == [code[0], code[4]]
        assert result.defs_reaching(code[4]) == [code[0], code[4]]
        assert result.uses_reached_by(code[4]) == [code[2], code[4]]


# ---------------------------------------------------------------------------
# Oracle: every use of every register against a backward CFG walk
# ---------------------------------------------------------------------------


def walk_back(cfg, position, reg):
    """Positions of the defs of ``reg`` reaching ``position``: follow every
    CFG path backwards and stop at the first def of ``reg`` on each."""
    code = cfg.code
    found = set()
    pending = []

    def scan(block, stop):
        for index in range(stop - 1, block.start - 1, -1):
            if code[index].dst == reg:
                found.add(index)
                return
        pending.extend(block.preds)

    scan(cfg.block_at[position], position)
    entered = set()
    while pending:
        block = pending.pop()
        if block.index not in entered:
            entered.add(block.index)
            scan(block, block.end)
    return found


def _oracle_sources():
    for bench in all_programs():
        yield pytest.param(bench.source(), id=bench.name)
    for seed in range(25):
        yield pytest.param(random_source(seed, "small"), id=f"fuzz{seed}")


@pytest.mark.parametrize("source", _oracle_sources())
def test_every_use_matches_backward_walk(source):
    for func in compile_source(source).module.functions.values():
        code = linearize(func).instrs
        cfg = CFG(code)
        result = chains_for(cfg)
        position_of = {id(instr): index for index, instr in enumerate(code)}
        assert set(result) == {reg for instr in code for reg in instr.regs()}
        for reg, reg_chains in result.items():
            uses = [i for i in code if reg in i.srcs]
            defs = [i for i in code if i.dst == reg]
            assert reg_chains.all_uses() == uses
            assert reg_chains.all_defs() == defs
            for use in uses:
                reaching = [position_of[id(d)] for d in reg_chains.defs_reaching(use)]
                assert reaching == sorted(walk_back(cfg, position_of[id(use)], reg))
            for definition in defs:
                assert reg_chains.uses_reached_by(definition) == [
                    use for use in uses if definition in reg_chains.defs_reaching(use)
                ]


# ---------------------------------------------------------------------------
# One solve per function body
# ---------------------------------------------------------------------------


@pytest.fixture
def solves(monkeypatch):
    calls = []
    original = reachdefs.chains_for

    def counting(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(reachdefs, "chains_for", counting)
    return calls


def test_ssa_construction_validator_solves_once(solves):
    pipeline = PassPipeline()
    module = compile_source(program("livermore").source()).fresh_module()
    for func in module.functions.values():
        cert = allocate_ssaspill(func, 3).cert
        context = pipeline.context(
            "validate", function=func.name, allocator="ssaspill", k=3
        )
        del solves[:]
        validate_ssa_construction(cert, context)
        assert len(solves) == 1, func.name


@pytest.mark.parametrize("paranoid", [False, True])
def test_rap_solves_at_most_once_per_analysis_build(solves, paranoid):
    module = compile_source(program("livermore").source()).fresh_module()
    spilled = False
    for func in module.functions.values():
        del solves[:]
        result = allocate_rap(func, 3, paranoid_analysis=paranoid)
        assert len(solves) <= result.analysis_builds, func.name
        spilled = spilled or bool(result.spill_log)
    assert spilled, "livermore no longer spills at k=3; pick another cell"
