"""Which calls into ``src/repro`` the traced run wraps, and how the spans
become per-layer metrics.

Each wrapped call is named ``<layer>.<function>`` after the module that
defines it.  Allocator calls run in the ``allocate`` phase and
``PassPipeline.validate`` in the ``validate`` phase; analyses called
under either (reaching-definition chains, liveness) inherit the phase,
which is how their call counts are split.
"""

from __future__ import annotations

import importlib
from typing import Dict

from .metrics import ALLOCATORS, PHASES
from .trace import Tracer

_MODULES = (
    "repro.bench.harness",
    "repro.cfg.liveness",
    "repro.cfg.reachdefs",
    "repro.compiler",
    "repro.frontend",
    "repro.interp.machine",
    "repro.interp.pycompile",
    "repro.ir.builder",
    "repro.pdg.datadeps",
    "repro.pdg.liveness",
    "repro.regalloc",
    "repro.resilience.pipeline",
    "repro.resilience.validators",
    "repro.ssa",
    "repro.ssa.construct",
    "repro.ssa.liveness",
)

_ALL_ALLOCATORS = ALLOCATORS + ("linearscan", "spillall")


def _after_allocation(allocator: str):
    def after(tracer: Tracer, args, result) -> None:
        counters = result.telemetry()
        tracer.count(f"regalloc.{allocator}.rounds", counters.get("rounds", 0))
        tracer.count(f"regalloc.{allocator}.spills", counters.get("spills", 0))
        tracer.count(
            f"regalloc.{allocator}.analysis_builds",
            counters.get("analysis_builds", 0),
        )

    return after


def _after_run(tracer: Tracer, args, result) -> None:
    machine = args[0]
    tracer.count("interp.instrs", machine.stats.total.cycles)


def instrument(tracer: Tracer) -> None:
    """Install span wrappers around every traced layer call."""
    modules = {name: importlib.import_module(name) for name in _MODULES}
    frontend = modules["repro.frontend"]
    regalloc = modules["repro.regalloc"]
    pipeline_cls = modules["repro.resilience.pipeline"].PassPipeline
    machine_cls = modules["repro.interp.machine"].Machine
    program_cls = modules["repro.compiler"].CompiledProgram
    harness_cls = modules["repro.bench.harness"].Harness

    plain = {
        frontend.parse: "frontend.parse",
        frontend.analyze: "frontend.analyze",
        modules["repro.ir.builder"].build_module: "ir.build_module",
        modules["repro.cfg.reachdefs"].chains_for: "cfg.reachdefs.chains_for",
        modules["repro.cfg.liveness"].compute_liveness: "cfg.liveness.compute_liveness",
        modules["repro.ssa.liveness"].ssa_liveness: "ssa.liveness.ssa_liveness",
        modules["repro.interp.pycompile"].compile_decoded: "interp.compile_decoded",
    }
    for func, name in plain.items():
        tracer.patch_everywhere(func, tracer.wrap(name, func))
    for allocator in _ALL_ALLOCATORS:
        func = getattr(regalloc, f"allocate_{allocator}")
        wrapper = tracer.wrap(
            f"regalloc.{allocator}",
            func,
            phase="allocate",
            after=_after_allocation(allocator),
        )
        tracer.patch_everywhere(func, wrapper)
    tracer.patch_attr(
        pipeline_cls,
        "validate",
        tracer.wrap(
            "validate",
            pipeline_cls.validate,
            phase="validate",
            name_of=lambda self, func, allocator, *a, **kw: f"validate.{allocator}",
        ),
    )
    tracer.patch_attr(
        program_cls,
        "fresh_module",
        tracer.wrap("compiler.fresh_module", program_cls.fresh_module),
    )
    tracer.patch_attr(
        machine_cls, "run", tracer.wrap("interp.run", machine_cls.run, after=_after_run)
    )
    harness_run = harness_cls.run

    def cell(self, bench, allocator, k, *args, **kwargs):
        with tracer.span("bench.cell", trace=f"{bench.name}/{allocator}/k{k}"):
            return harness_run(self, bench, allocator, k, *args, **kwargs)

    tracer.patch_attr(harness_cls, "run", cell)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics derived from the spans and counts of one run."""
    out: Dict[str, float] = {
        "frontend.s": tracer.total("frontend.parse", "frontend.analyze"),
        "ir.build_s": tracer.total("ir.build_module"),
        "compiler.fresh_module_s": tracer.total("compiler.fresh_module"),
        "compiler.fresh_module.calls": tracer.calls("compiler.fresh_module"),
    }
    functions = sum(tracer.calls(f"regalloc.{a}") for a in _ALL_ALLOCATORS)
    for a in ALLOCATORS:
        out[f"regalloc.{a}.s"] = tracer.total(f"regalloc.{a}")
        out[f"regalloc.{a}.calls"] = tracer.calls(f"regalloc.{a}")
        out[f"regalloc.{a}.rounds"] = tracer.counts.get(f"regalloc.{a}.rounds", 0)
        out[f"regalloc.{a}.spills"] = tracer.counts.get(f"regalloc.{a}.spills", 0)
        out[f"validate.{a}.s"] = tracer.total(f"validate.{a}")
    out["regalloc.rap.analysis_builds"] = tracer.counts.get(
        "regalloc.rap.analysis_builds", 0
    )
    for phase in PHASES:
        solves = tracer.calls("cfg.reachdefs.chains_for", phase)
        out[f"cfg.reachdefs.solves.{phase}"] = solves
        out[f"cfg.reachdefs.solves_per_function.{phase}"] = (
            solves / functions if functions else 0.0
        )
        out[f"ssa.liveness.solves.{phase}"] = tracer.calls(
            "ssa.liveness.ssa_liveness", phase
        )
        out[f"cfg.liveness.solves.{phase}"] = tracer.calls(
            "cfg.liveness.compute_liveness", phase
        )
    execute_s = tracer.total("interp.run")
    instrs = tracer.counts.get("interp.instrs", 0)
    out["interp.execute_s"] = execute_s
    out["interp.instrs"] = instrs
    out["interp.minstr_per_s"] = instrs / execute_s / 1e6 if execute_s else 0.0
    out["interp.translations"] = tracer.calls("interp.compile_decoded")
    out["trace.spans"] = len(tracer.spans)
    return out
