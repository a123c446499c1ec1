"""Data-dependence edges of the PDG.

The PDG proper carries both control dependence (our region hierarchy) and
data dependence.  The allocators consume liveness rather than explicit
dependence edges, but the edges themselves are part of the representation
the paper builds on (Figure 1 draws them), are exported by the DOT
renderer, and give the test suite an independent view to validate the
ud/du machinery against.

Three classic kinds over registers:

* **flow** (true) dependence: definition reaches a use;
* **anti** dependence: use followed by a redefinition;
* **output** dependence: definition followed by a redefinition.

Edges connect iloc instructions (by identity); region-level edges can be
derived by mapping instructions to their owning regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..ir.iloc import Instr, Reg
from .graph import PDGFunction
from .liveness import FunctionAnalysis


@dataclass(frozen=True)
class DataDep:
    """One data-dependence edge ``source -> sink`` on register ``reg``."""

    source: Instr
    sink: Instr
    reg: Reg
    kind: str  # "flow" | "anti" | "output"


def flow_dependences(analysis: FunctionAnalysis) -> List[DataDep]:
    """All def→use (true) dependences of a function."""
    reaching = analysis.reaching
    return [
        DataDep(definition, use, reg, "flow")
        for reg in sorted(reaching)
        for definition in reaching[reg].all_defs()
        for use in reaching[reg].uses_reached_by(definition)
    ]


def all_dependences(analysis: FunctionAnalysis) -> List[DataDep]:
    """Flow, anti, and output dependences.

    Anti and output edges are derived from the same reaching information
    computed on the reversed role: a use (or def) *anti/output-depends* on
    a later redefinition when the redefinition can follow it on some path.
    For the structured code our front end emits, a simple ordered-scan per
    basic block plus the flow chains covers the cases the PDG literature
    draws; cross-block anti/output edges are approximated through block
    order in the linearization (sufficient for rendering and testing — the
    allocators never consume these edges).
    """
    edges = flow_dependences(analysis)
    code = analysis.linear.instrs
    last_def: Dict[Reg, Instr] = {}
    last_uses: Dict[Reg, List[Instr]] = {}
    for instr in code:
        for reg in instr.defs:
            previous = last_def.get(reg)
            if previous is not None:
                edges.append(DataDep(previous, instr, reg, "output"))
            for use in last_uses.get(reg, []):
                if use is not instr:
                    edges.append(DataDep(use, instr, reg, "anti"))
            last_def[reg] = instr
            last_uses[reg] = []
        for reg in instr.uses:
            last_uses.setdefault(reg, []).append(instr)
    return edges


def region_level_dependences(
    func: PDGFunction, analysis: FunctionAnalysis
) -> Set[Tuple[str, str, str]]:
    """Dependences lifted to region names: ``(source_region, sink_region,
    kind)`` — the granularity at which Figure 1 draws its arrows."""
    locations = func.instr_locations()
    lifted: Set[Tuple[str, str, str]] = set()
    for dep in flow_dependences(analysis):
        src = locations.get(id(dep.source))
        dst = locations.get(id(dep.sink))
        if src is None or dst is None:
            continue
        lifted.add((src[0].name, dst[0].name, dep.kind))
    return lifted
