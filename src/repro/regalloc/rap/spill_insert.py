"""Hierarchical spill-code insertion (paper §3.1.4).

Spilling a virtual register *within a region* — not throughout the whole
procedure — is the heart of RAP's local-spill advantage: "a variable may
be assigned to register R1 in one region, register R2 in another region,
and spilled in another region" (§1).

For a victim register ``v`` spilled while allocating region ``V``:

1. **Parent region code**: a load is inserted before each use and a store
   after each definition in V's directly attached statements, and ``v`` is
   renamed there (one fresh name for the parent region).
2. **Each subregion** ``Ri`` referencing ``v``: if ``v`` is live on
   entrance, a load is inserted before the first item referencing it; a
   store is inserted after each definition whose value can reach a spill
   load (the paper's "definition which has a corresponding use outside of
   the subregion", extended with a CFG-reachability test so that
   loop-carried values crossing a re-executed load are also stored — the
   extra stores this adds are exactly the "excess spill code" §4 blames on
   small regions and later cleans up).  ``v`` is renamed inside ``Ri``,
   "making it completely local to the subregion", and the renamed register
   replaces ``v`` in the subregion's saved interference graph.
3. **Outside the region** (the paper's recursive patch-up): every outside
   definition that feeds a load inside the region — or that co-reaches an
   outside use whose defining instruction was renamed away — gets a store;
   every outside use whose reaching definitions include a renamed-away
   inside definition gets a load.  These reference the original ``v``,
   which remains a live register candidate outside the region.

All spill traffic of one source register shares a single per-function slot
(named after the *original* register), so loads and stores issued by
different regions stay mutually consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...cfg.graph import CFG, BasicBlock
from ...cfg.reachdefs import RegChains
from ...ir.iloc import Instr, Op, Reg, Symbol, ldm, stm
from ...pdg.liveness import FunctionAnalysis
from ...pdg.nodes import Item, Predicate, Region
from ...resilience import faults


class _Reachability:
    """Memoized forward block reachability over a CFG."""

    def __init__(self, cfg: CFG):
        self._cfg = cfg
        self._cache: Dict[int, Set[int]] = {}

    def from_successors(self, block: BasicBlock) -> Set[int]:
        cached = self._cache.get(block.index)
        if cached is not None:
            return cached
        seen: Set[int] = set()
        stack = [succ for succ in block.succs]
        while stack:
            current = stack.pop()
            if current.index in seen:
                continue
            seen.add(current.index)
            stack.extend(current.succs)
        self._cache[block.index] = seen
        return seen

    def reaches(self, cfg: CFG, from_index: int, to_index: int) -> bool:
        from_block = cfg.block_at[from_index]
        to_block = cfg.block_at[to_index]
        if from_block is None or to_block is None:
            return False
        if from_block is to_block and from_index < to_index:
            return True
        return to_block.index in self.from_successors(from_block)


def _item_references(item: Item, reg: Reg) -> bool:
    if isinstance(item, Instr):
        return reg in item.regs()
    if isinstance(item, Predicate):
        if reg in item.branch.regs():
            return True
        return any(reg in sub.referenced_regs() for sub in item.regions())
    return reg in item.referenced_regs()


def _first_instr_of(item: Item) -> Optional[Instr]:
    if isinstance(item, Instr):
        return item
    if isinstance(item, Predicate):
        return item.branch
    for instr in item.walk_instrs():
        return instr
    return None


def _first_snapshot_instr_of(item: Item, linear) -> Optional[Instr]:
    """Like :func:`_first_instr_of`, but restricted to instructions the
    analysis snapshot knows about.

    When a same-round sibling spill already inserted spill code, an
    item's literal first instruction may be a fresh ``ldm`` absent from
    the round-start snapshot.  The first *snapshot* instruction of the
    item anchors the same position in snapshot coordinates: the skipped
    instructions are non-branch insertions sitting immediately before it,
    so block membership and reachability are unchanged.
    """
    first = _first_instr_of(item)
    if first is None or linear.contains(first):
        return first
    if isinstance(item, Region):
        for instr in item.walk_instrs():
            if linear.contains(instr):
                return instr
    return None


def spill_register(ctx, region: Region, victim: Reg) -> None:
    """Insert spill code for one victim register spilled at ``region``.

    ``ctx`` is the :class:`~repro.regalloc.rap.allocator.RAPContext`; the
    function mutates the PDG, records rename origins, and patches saved
    subregion graphs.
    """
    # The round-start snapshot: safely shared by every victim of this
    # round's spill list (see RAPContext.planning_analysis for why pure
    # spill insertions keep it valid for the *other* victims).
    analysis: FunctionAnalysis = ctx.planning_analysis()
    func = ctx.func
    slot = ctx.slot_for(victim)
    # Loads normally reference the same slot as the stores; the fault
    # probe can desynchronize them for one spill event to model a
    # slot-naming bug (spill-discipline validation must catch it).
    load_slot = slot
    if faults.active() is not None:
        corrupted = faults.maybe_corrupt_slot(
            "rap.spill.corrupt-slot", func.name, slot.name
        )
        if corrupted != slot.name:
            load_slot = Symbol(corrupted, "spill")
    # A victim whose references an earlier rematerialization of this round
    # swept away as dead has no defs or uses left: its chains are empty.
    chains = analysis.reaching.get(victim) or RegChains(victim)

    inside_ids = {id(instr) for instr in region.walk_instrs()}
    direct = region.direct_instrs()
    direct_ids = {id(instr) for instr in direct}
    subregions = region.subregions()

    inside_defs = [d for d in chains.all_defs() if id(d) in inside_ids]
    outside_defs = [d for d in chains.all_defs() if id(d) not in inside_ids]
    outside_uses = [u for u in chains.all_uses() if id(u) not in inside_ids]

    # ---- patch-up sets (step 3) --------------------------------------------
    uses_needing_load = [
        use
        for use in outside_uses
        if any(id(site) in inside_ids for site in chains.defs_reaching(use))
    ]
    patched_use_ids = {id(use) for use in uses_needing_load}
    defs_needing_store: List[Instr] = []
    for definition in outside_defs:
        reached = chains.uses_reached_by(definition)
        if any(id(use) in inside_ids for use in reached) or any(
            id(use) in patched_use_ids for use in reached
        ):
            defs_needing_store.append(definition)

    # ---- plan instruction-anchored edits --------------------------------------
    # Each edit is (anchor_instr, "before"|"after", new_instr).
    edits: List[Tuple[Instr, str, Instr]] = []

    parent_name = func.new_vreg()
    ctx.record_rename(parent_name, victim)
    load_anchor_instrs: List[Instr] = []

    for instr in direct:
        if victim in instr.uses:
            edits.append((instr, "before", ldm(load_slot, parent_name)))
            load_anchor_instrs.append(instr)
        if victim in instr.defs:
            edits.append((instr, "after", stm(slot, parent_name)))

    # Subregion planning: renames, entry loads, and reachability anchors.
    sub_renames: List[Tuple[Region, Reg]] = []
    entry_loads: List[Tuple[Region, Reg]] = []
    for sub in subregions:
        if victim not in analysis.referenced(sub):
            continue
        sub_name = func.new_vreg()
        ctx.record_rename(sub_name, victim)
        sub_renames.append((sub, sub_name))
        if victim in analysis.live_in(sub):
            entry_loads.append((sub, sub_name))
            for item in sub.items:
                if _item_references(item, victim):
                    anchor = _first_snapshot_instr_of(item, analysis.linear)
                    if anchor is not None:
                        load_anchor_instrs.append(anchor)
                    break

    for use in uses_needing_load:
        load_anchor_instrs.append(use)

    # Stores after inside definitions.  Parent-region definitions always
    # store; subregion definitions store when their value can reach a
    # spill load (see module docstring).
    reach = _Reachability(analysis.cfg)
    linear = analysis.linear
    load_positions = [linear.index_of(instr) for instr in load_anchor_instrs]
    rename_of_sub: Dict[int, Reg] = {id(sub): name for sub, name in sub_renames}

    def sub_containing(instr: Instr) -> Optional[Region]:
        for sub in subregions:
            if any(existing is instr for existing in sub.walk_instrs()):
                return sub
        return None

    for definition in inside_defs:
        if id(definition) in direct_ids:
            continue  # already planned above
        owner = sub_containing(definition)
        if owner is None:  # pragma: no cover - defensive
            continue
        def_pos = linear.index_of(definition)
        if any(
            reach.reaches(analysis.cfg, def_pos, pos) for pos in load_positions
        ):
            edits.append(
                (definition, "after", stm(slot, rename_of_sub[id(owner)]))
            )

    # Patch-up edits outside the region (reference the original register).
    for use in uses_needing_load:
        edits.append((use, "before", ldm(load_slot, victim)))
    for definition in defs_needing_store:
        edits.append((definition, "after", stm(slot, victim)))

    _apply_edits(ctx.func, edits)

    # Entry loads are positional: before the first item that still
    # references the (not yet renamed) victim.
    for sub, sub_name in entry_loads:
        index = len(sub.items)
        for position, item in enumerate(sub.items):
            if _item_references(item, victim):
                index = position
                break
        sub.items.insert(index, ldm(load_slot, sub_name))

    # ---- renames ------------------------------------------------------------------
    for instr in direct:
        instr.rewrite_regs({victim: parent_name})
    for sub, sub_name in sub_renames:
        mapping = {victim: sub_name}
        for instr in sub.walk_instrs():
            instr.rewrite_regs(mapping)
        ctx.patch_subregion_graph(sub, victim, sub_name)

    ctx.mark_dirty()


def _apply_edits(func, edits: Sequence[Tuple[Instr, str, Instr]]) -> None:
    """Insert new instructions around identity-anchored existing ones.

    Skips an insertion when the neighbouring item is already an identical
    ``ldm``/``stm`` (deduplicating patch-up code across successive spills
    of the same register by sibling regions).
    """
    if not edits:
        return
    locations = func.instr_locations()
    per_slot: Dict[Tuple[int, int], Dict[str, List[Instr]]] = {}
    region_by_id: Dict[int, Region] = {}
    for anchor, where, new_instr in edits:
        owner, index = locations[id(anchor)]
        region_by_id[id(owner)] = owner
        bucket = per_slot.setdefault((id(owner), index), {"before": [], "after": []})
        bucket[where].append(new_instr)

    by_region: Dict[int, List[Tuple[int, Dict[str, List[Instr]]]]] = {}
    for (owner_id, index), bucket in per_slot.items():
        by_region.setdefault(owner_id, []).append((index, bucket))

    for owner_id, entries in by_region.items():
        owner = region_by_id[owner_id]
        for index, bucket in sorted(entries, key=lambda e: e[0], reverse=True):
            afters = [
                instr
                for instr in bucket["after"]
                if not _same_mem_instr(owner.items, index + 1, instr)
            ]
            owner.items[index + 1:index + 1] = afters
            befores = [
                instr
                for instr in bucket["before"]
                if not _same_mem_instr(owner.items, index - 1, instr)
            ]
            owner.items[index:index] = befores


def _same_mem_instr(items: List[Item], index: int, instr: Instr) -> bool:
    if index < 0 or index >= len(items):
        return False
    existing = items[index]
    if not isinstance(existing, Instr) or existing.op is not instr.op:
        return False
    return (
        existing.addr == instr.addr
        and existing.srcs == instr.srcs
        and existing.dst == instr.dst
    )
