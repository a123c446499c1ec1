"""Reaching definitions for every register of one function body.

RAP's spill-code insertion (§3.1.4 of the paper) must place stores after
definitions *outside* the spilled region that feed loads inside it, and
loads before uses *outside* the region whose definitions were renamed
inside it.  That requires ud/du chains for the register being spilled;
the PDG's flow-dependence edges and the SSA construction validator need
the same facts for every register.

One forward fixpoint answers them all.  A definition site is an
instruction position (an instruction defines at most its ``dst``), and
block gen/kill and in/out sets are Python-int bitsets over positions.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.iloc import Instr, Reg
from .graph import CFG


class RegChains:
    """ud/du chains of one register; uses and defs in code order."""

    def __init__(self, reg: Reg):
        self.reg = reg
        self._uses: List[Instr] = []
        self._defs: List[Instr] = []
        #: id(use) -> reaching defs; id(def) -> reached uses
        self._ud: Dict[int, List[Instr]] = {}
        self._du: Dict[int, List[Instr]] = {}

    def defs_reaching(self, use: Instr) -> List[Instr]:
        return self._ud.get(id(use), [])

    def uses_reached_by(self, definition: Instr) -> List[Instr]:
        return self._du.get(id(definition), [])

    def all_uses(self) -> List[Instr]:
        return self._uses

    def all_defs(self) -> List[Instr]:
        return self._defs


def chains_for(cfg: CFG) -> Dict[Reg, RegChains]:
    """ud/du chains of every register referenced in ``cfg``'s code."""
    code = cfg.code
    chains: Dict[Reg, RegChains] = {}
    def_bits: Dict[Reg, int] = {}
    for position, instr in enumerate(code):
        for reg in instr.regs():
            if reg not in chains:
                chains[reg] = RegChains(reg)
        if instr.dst is not None:
            chains[instr.dst]._defs.append(instr)
            def_bits[instr.dst] = def_bits.get(instr.dst, 0) | (1 << position)

    # Block gen (the last def of each register) and kill (all its defs).
    gen = [0] * len(cfg.blocks)
    kill = [0] * len(cfg.blocks)
    for block in cfg.blocks:
        for position in block.instr_indices():
            bits = def_bits.get(code[position].dst, 0)
            if bits:
                gen[block.index] = (gen[block.index] & ~bits) | (1 << position)
                kill[block.index] |= bits

    reach_in = [0] * len(cfg.blocks)
    reach_out = list(gen)
    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for block in order:
            index = block.index
            in_bits = 0
            for pred in block.preds:
                in_bits |= reach_out[pred.index]
            reach_in[index] = in_bits
            out_bits = gen[index] | (in_bits & ~kill[index])
            if out_bits != reach_out[index]:
                reach_out[index] = out_bits
                changed = True

    # Walk each block forward to attach per-use chains.
    for block in cfg.blocks:
        current = reach_in[block.index]
        for position in block.instr_indices():
            instr = code[position]
            for reg in instr.srcs:
                reg_chains = chains[reg]
                if id(instr) in reg_chains._ud:
                    continue  # register read twice by one instruction
                reaching = _sites(code, current & def_bits.get(reg, 0))
                reg_chains._uses.append(instr)
                reg_chains._ud[id(instr)] = reaching
                for definition in reaching:
                    reg_chains._du.setdefault(id(definition), []).append(instr)
            if instr.dst is not None:
                current = (current & ~def_bits[instr.dst]) | (1 << position)
    return chains


def _sites(code, bits: int) -> List[Instr]:
    """The instructions at the set positions of ``bits``, in code order."""
    sites = []
    while bits:
        low = bits & -bits
        sites.append(code[low.bit_length() - 1])
        bits ^= low
    return sites
