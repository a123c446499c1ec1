"""Every metric the benchmark reports: name, unit, direction and, for
end-to-end metrics, the bound by which the median may worsen.
``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: The Table-1 competitors every workload runs, and the register counts
#: of the paper's Table 1.
ALLOCATORS = ("gra", "rap", "ssaspill")
K_VALUES = (3, 5, 7, 9)
PHASES = ("allocate", "validate")

#: name -> (unit, better, bound).  Every workload reports every one of
#: them; an "operation" is a sweep cell (table1), one function's allocate
#: + validate (compile) or a cold request (service).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "cycles_gra": ("count", "lower", 0.01),
    "cycles_rap": ("count", "lower", 0.01),
    "cycles_ssaspill": ("count", "lower", 0.01),
    "code_bytes": ("bytes", "lower", 0.01),
}


def _per_layer() -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {
        "frontend.s": ("s", "lower"),
        "ir.build_s": ("s", "lower"),
        "ir.instrs": ("count", "lower"),
        "compiler.fresh_module_s": ("s", "lower"),
        "compiler.fresh_module.calls": ("count", "lower"),
    }
    for a in ALLOCATORS:
        out[f"regalloc.{a}.s"] = ("s", "lower")
        out[f"regalloc.{a}.calls"] = ("count", "lower")
        out[f"regalloc.{a}.rounds"] = ("count", "lower")
        out[f"regalloc.{a}.spills"] = ("count", "lower")
    out["regalloc.rap.analysis_builds"] = ("count", "lower")
    out["regalloc.fallbacks"] = ("count", "lower")
    for a in ALLOCATORS:
        out[f"validate.{a}.s"] = ("s", "lower")
    for phase in PHASES:
        out[f"cfg.reachdefs.solves.{phase}"] = ("count", "lower")
        out[f"cfg.reachdefs.solves_per_function.{phase}"] = ("count/fn", "lower")
        out[f"ssa.liveness.solves.{phase}"] = ("count", "lower")
        out[f"cfg.liveness.solves.{phase}"] = ("count", "lower")
    out.update(
        {
            "interp.translate_s": ("s", "lower"),
            "interp.execute_s": ("s", "lower"),
            "interp.instrs": ("count", "lower"),
            "interp.minstr_per_s": ("Minstr/s", "higher"),
            "interp.translations": ("count", "lower"),
        }
    )
    for kind in ("cold", "warm"):
        out[f"service.{kind}.server_ms"] = ("ms", "lower")
        out[f"service.{kind}.overhead_ms"] = ("ms", "lower")
    out["service.warm.p50_ms"] = ("ms", "lower")
    out["service.warm.p99_ms"] = ("ms", "lower")
    out.update(
        {
            "service.cache.hits": ("count", "higher"),
            "service.cache.misses": ("count", "lower"),
            "service.cache.hit_ratio": ("ratio", "higher"),
            "service.compiles": ("count", "lower"),
            "service.duplicate_compiles": ("count", "lower"),
            "service.stage.allocate_s": ("s", "lower"),
            "service.stage.validate_s": ("s", "lower"),
            "service.stage.execute_s": ("s", "lower"),
            "service.worker_restarts": ("count", "lower"),
            "trace.spans": ("count", "lower"),
            "trace.overhead_s": ("s", "lower"),
        }
    )
    return out


#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer()

WORKLOADS: Dict[str, str] = {
    "table1": "the full serial 120-cell Table-1 sweep users run to reproduce"
    " the paper; interpreter, allocators and validators all on the path",
    "compile": "allocate + validate only over a fixed draw of generated"
    " small/medium/large programs; the interpreter is off the path",
    "service": "compile daemon, 2 closed-loop clients; warm cache reads"
    " and cold compiles in separate phases; the end-to-end latencies are"
    " the cold requests'",
}
