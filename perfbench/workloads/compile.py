"""``compile``: allocate + validate only, over generated programs.

Each operation is one (program, allocator, k): ``fresh_module`` and then
``PassPipeline.allocate`` (allocate + validate) on every function,
walking the fallback ladder when a rung fails, exactly as the sweep
harness does.  The interpreter is off the timed path.  Function sizes
vary about 10x across the small, medium and large programs, so both
per-call overhead and analyses that grow faster than the function show.

The pool holds the same number of programs of each of the generator's
three sizes: nothing in the repository measures which sizes users
compile, so no size is weighted over another (the service workload's
cold keys cycle through the sizes the same way).  That number, 15, makes
one pass fill a 20 s run on a 2-vCPU box (it takes about 23 s) with
1056 function allocations, the samples behind ``op_p50_ms`` and
``op_p90_ms``: here an operation's latency is one function's allocate +
validate.

The pool is fixed (generator seeds ``POOL_BASE + i``) and the seed
shuffles the order of the operations.  A pool drawn per seed moved
the per-function p99 by about 40% and ``wall_s`` by about 20% (quartile
spread over seeds) because a few large programs dominate, which would
hide any change a bound could catch.  Large programs stay in: some fail
ssaspill at k=3 ("register pressure irreducible") and end on linearscan;
those count in ``regalloc.fallbacks``.

After the timed section, :func:`check` executes every allocated image
and compares its output with the reference (unallocated) run made during
set-up; it also sums the guest cycles of each requested allocator's
images (``cycles_<a>``) and their serialized size (``code_bytes``).
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .. import stats
from ..common import SETUP_REPEATS, Outcome, peak_rss_mb, repeat_setup
from ..metrics import ALLOCATORS, K_VALUES
from ..trace import Tracer

POOL_BASE = 1000
#: Programs of each size in the pool (see the module docstring).
PER_SIZE = 15
#: (size, programs) in the pool.
POOL: Tuple[Tuple[str, int], ...] = tuple(
    (size, PER_SIZE) for size in ("small", "medium", "large")
)
#: Seconds of ``--seconds`` budget per pass over the pool.
PASS_SECONDS = 20


@dataclass
class Program:
    name: str
    compiled: object  # repro.compiler.CompiledProgram
    reference: list


@dataclass
class Prepared:
    programs: List[Program]
    ops: List[Tuple[int, str, int]]
    passes: int
    setup_s: float
    #: (program index, allocator, k) -> allocated image of the first pass
    images: Optional[Dict[Tuple[int, str, int], object]] = None


def _build_pool(pool: Sequence[Tuple[str, int]]) -> List[Program]:
    from repro.compiler import compile_source
    from repro.interp.machine import run_program
    from repro.testing.generator import random_source

    programs = []
    for size, count in pool:
        for index in range(count):
            seed = POOL_BASE + index
            compiled = compile_source(random_source(seed, size))
            output = run_program(compiled.reference_image()).output
            programs.append(Program(f"{size}{seed}", compiled, output))
    return programs


def setup(
    root: Path,
    seed: int,
    seconds: float,
    pool: Sequence[Tuple[str, int]] = POOL,
    allocators: Sequence[str] = ALLOCATORS,
    k_values: Sequence[int] = K_VALUES,
) -> Prepared:
    programs, setup_s = repeat_setup(SETUP_REPEATS, lambda: _build_pool(pool))
    ops = [
        (index, allocator, k)
        for index in range(len(programs))
        for allocator in allocators
        for k in k_values
    ]
    random.Random(seed).shuffle(ops)
    return Prepared(programs, ops, max(1, round(seconds / PASS_SECONDS)), setup_s)


def _fingerprint(image) -> str:
    digest = hashlib.sha256()
    for name in sorted(image.functions):
        digest.update(name.encode())
        for instr in image.functions[name].code:
            digest.update(str(instr).encode())
    return digest.hexdigest()


def run(prep: Prepared, tracer: Optional[Tracer] = None) -> Outcome:
    from repro.compiler import param_slots
    from repro.interp.machine import FunctionImage, ProgramImage
    from repro.resilience.errors import StageError
    from repro.resilience.fallback import chain_for
    from repro.resilience.pipeline import PassPipeline

    out = Outcome()
    pipeline = PassPipeline()
    walls: List[float] = []
    function_ms: List[float] = []
    images: Dict[Tuple[int, str, int], object] = {}
    first_prints: Dict[Tuple[int, str, int], str] = {}
    fallbacks = 0
    for sweep in range(prep.passes):
        pass_images: Dict[Tuple[int, str, int], object] = {}
        started = time.perf_counter()
        for op in prep.ops:
            index, allocator, k = op
            program = prep.programs[index]
            out.attempted += 1
            attempts = chain_for(allocator)
            for position, rung in enumerate(attempts):
                module = program.compiled.fresh_module()
                functions = {}
                try:
                    for name, func in module.functions.items():
                        trace_id = f"{program.name}/{rung}/k{k}/{name}"
                        with (
                            tracer.span("bench.function", trace=trace_id)
                            if tracer
                            else nullcontext()
                        ):
                            t0 = time.perf_counter()
                            try:
                                result = pipeline.allocate(func, rung, k)
                            finally:
                                function_ms.append((time.perf_counter() - t0) * 1000.0)
                        functions[name] = FunctionImage(
                            name, result.code, param_slots(func)
                        )
                except StageError as err:
                    if position == len(attempts) - 1:
                        out.failed += 1
                        out.problem(f"{program.name} {allocator} k={k}: {err}")
                    continue
                if rung != allocator and sweep == 0:
                    fallbacks += 1
                pass_images[op] = ProgramImage(list(module.globals.values()), functions)
                break
        walls.append(time.perf_counter() - started)

        # Determinism across passes: every operation emits the same code.
        if sweep == 0:
            images = pass_images
            if prep.passes > 1:
                first_prints = {op: _fingerprint(i) for op, i in images.items()}
            continue
        for op, image in pass_images.items():
            if first_prints.get(op) != _fingerprint(image):
                out.failed += 1
                out.problem(
                    f"{prep.programs[op[0]].name} {op[1]} k={op[2]}:"
                    f" pass {sweep} emitted different code than pass 0"
                )

    out.metrics["setup_s"] = prep.setup_s
    out.metrics["wall_s"] = stats.median(walls)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.percentiles("op", function_ms, 50, 90)
    out.layers["regalloc.fallbacks"] = fallbacks
    out.layers["ir.instrs"] = sum(
        len(image.code)
        for program in prep.programs
        for image in program.compiled.reference_image().functions.values()
    )

    prep.images = images
    return out


def check(prep: Prepared, out: Outcome) -> None:
    """Every allocated image prints what the reference run printed; run
    after the timed section, with tracing off.  Also records the images'
    guest cycles per requested allocator and their serialized size."""
    from repro.interp.machine import run_program
    from repro.interp.memory import MachineFault
    from repro.interp.serialize import dumps_image
    from repro.testing.compare import outputs_equal

    cycles = {allocator: 0 for allocator in ALLOCATORS}
    code_bytes = 0
    for (index, allocator, k), image in sorted(prep.images.items()):
        program = prep.programs[index]
        code_bytes += len(dumps_image(image))
        try:
            run = run_program(image)
        except MachineFault as err:
            out.failed += 1
            out.problem(f"{program.name} {allocator} k={k} faulted: {err}")
            continue
        cycles[allocator] += run.total.cycles
        if not outputs_equal(run.output, program.reference):
            out.failed += 1
            out.problem(f"{program.name} {allocator} k={k}: output differs from reference")
    for allocator, total in cycles.items():
        out.metrics[f"cycles_{allocator}"] = total
    out.metrics["code_bytes"] = code_bytes


def teardown(prep: Prepared) -> None:
    pass
