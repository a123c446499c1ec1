"""Per-region dataflow facts for a PDG function.

RAP needs, for every region and at several points inside it (§3.1 of the
paper): live-on-entry and live-on-exit sets, per-instruction live sets for
interference construction, reference sets, and locality ("a virtual
register is *local* to a region if all references to that virtual register
can be found in intermediate code within the region; otherwise it is
*global* to that region").

Rather than running a bespoke hierarchical analysis over the region tree,
we exploit the identity-sharing linearization (:mod:`repro.pdg.linearize`):
one ordinary CFG liveness pass over the linear code answers every
region-level query, because each structured region occupies one contiguous
linear span.  Loop-carried liveness falls out of the CFG fixpoint for
free.

A :class:`FunctionAnalysis` is a snapshot — rebuild it after mutating the
PDG (RAP rebuilds one per allocation round, mirroring the paper's
"the interference graph is rebuilt" loop).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Set

from ..cfg import reachdefs
from ..cfg.graph import CFG
from ..cfg.liveness import LivenessResult, compute_liveness
from ..ir.iloc import Instr, Reg
from .graph import PDGFunction
from .linearize import LinearCode, linearize
from .nodes import Region


class FunctionAnalysis:
    """Linearization + CFG + liveness snapshot of one PDG function."""

    def __init__(self, func: PDGFunction):
        self.func = func
        #: the function's mutation counter at snapshot time (consumers
        #: key their caches on it — see ``RAPContext.analysis``).
        self.version = getattr(func, "version", 0)
        self.linear: LinearCode = linearize(func)
        self.cfg = CFG(self.linear.instrs)
        self.live: LivenessResult = compute_liveness(self.cfg)
        self._referenced: Dict[int, Set[Reg]] = {}
        self._ref_counts: Optional[Dict[Reg, int]] = None
        self._region_ref_counts: Dict[int, Dict[Reg, int]] = {}

    # -- per-instruction ----------------------------------------------------

    def live_before(self, instr: Instr) -> Set[Reg]:
        return self.live.live_before(instr)

    def live_after(self, instr: Instr) -> Set[Reg]:
        return self.live.live_after(instr)

    # -- per-region -----------------------------------------------------------

    def live_in(self, region: Region) -> Set[Reg]:
        start, _ = self.linear.region_span[region]
        return self.live.live_at[start]

    def live_out(self, region: Region) -> Set[Reg]:
        _, end = self.linear.region_span[region]
        return self.live.live_at[end]

    def referenced(self, region: Region) -> Set[Reg]:
        """Registers referenced anywhere in the region (cached)."""
        cached = self._referenced.get(id(region))
        if cached is None:
            cached = region.referenced_regs()
            self._referenced[id(region)] = cached
        return cached

    def is_local_to(self, reg: Reg, region: Region) -> bool:
        """True if *all* references of ``reg`` are inside ``region``.

        Parameter home registers are defined by the entry prologue's
        ``ldm``, so they are naturally global to every proper subregion.
        """
        if self._ref_counts is None:
            self._ref_counts = self.func.reference_counts()
        counts = self._region_ref_counts.get(id(region))
        if counts is None:
            # One walk per region per snapshot (memoized) instead of one
            # walk per (register, region) query.
            counts = {}
            for instr in region.walk_instrs():
                for operand in instr.regs():
                    counts[operand] = counts.get(operand, 0) + 1
            self._region_ref_counts[id(region)] = counts
        return counts.get(reg, 0) == self._ref_counts.get(reg, 0)

    def is_global_to(self, reg: Reg, region: Region) -> bool:
        """Referenced (or arriving as a parameter) outside ``region``."""
        return not self.is_local_to(reg, region)

    # -- chains ---------------------------------------------------------------

    @cached_property
    def reaching(self) -> Dict[Reg, reachdefs.RegChains]:
        """ud/du chains of every register: one reaching-definitions solve
        per snapshot, computed on first use."""
        return reachdefs.chains_for(self.cfg)
