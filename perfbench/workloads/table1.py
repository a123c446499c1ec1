"""``table1``: the full serial Table-1 sweep, as users run it.

Ten paper programs x k in {3, 5, 7, 9} x {gra, rap, ssaspill} = 120
cells through ``build_table1`` + ``render_table1``.  Every layer is on
the path: front end, allocators, validators and the interpreter, which
takes most of the time.  The inputs are the paper's programs, so the
seed changes nothing here; it is recorded with the numbers.

An operation is one cell: ``op_p50_ms`` and ``op_p90_ms`` are taken
over the cells' wall times, ``cycles_<a>`` sums the guest cycles the
cells of allocator ``<a>`` executed, and ``code_bytes`` is the
serialized size of every image the sweep allocated.

Set-up is what every user pays before the sweep starts: a fresh
interpreter importing the sweep's modules.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .. import stats
from ..common import SETUP_REPEATS, Outcome, peak_rss_mb, repeat_setup
from ..metrics import ALLOCATORS, K_VALUES
from ..trace import Tracer

#: Seconds of ``--seconds`` budget per full sweep (one sweep took about
#: 18 s serially on a 2-CPU box).
SWEEP_SECONDS = 20


@dataclass
class Prepared:
    sweeps: int
    programs: Optional[Sequence[str]]
    k_values: Sequence[int]
    expected: str
    setup_s: float


def setup(
    root: Path,
    seed: int,
    seconds: float,
    programs: Optional[Sequence[str]] = None,
    k_values: Sequence[int] = K_VALUES,
    expected_file: str = "results_table1.txt",
) -> Prepared:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def load() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.bench.table1"],
            env=env,
            cwd=root,
            check=True,
        )

    _, setup_s = repeat_setup(SETUP_REPEATS, load)
    return Prepared(
        sweeps=max(1, round(seconds / SWEEP_SECONDS)),
        programs=programs,
        k_values=tuple(k_values),
        expected=(root / expected_file).read_text(),
        setup_s=setup_s,
    )


def run(prep: Prepared, tracer: Optional[Tracer] = None) -> Outcome:
    from repro.bench.harness import Harness, build_table1
    from repro.bench.suite import program
    from repro.bench.table1 import render_table1
    from repro.interp.serialize import dumps_image

    out = Outcome()
    walls: List[float] = []
    cell_ms: List[float] = []
    cycles: Dict[str, int] = {}
    translate_s = 0.0
    fallbacks = 0
    ir_instrs = 0
    code_bytes = 0
    for sweep in range(prep.sweeps):
        harness = (
            Harness([program(name) for name in prep.programs])
            if prep.programs
            else Harness()
        )
        cells = len(harness.programs) * len(prep.k_values) * len(ALLOCATORS)
        images: list = []
        harness.allocate_program = _recording(harness.allocate_program, images)
        out.attempted += cells
        runs: list = []
        started = time.perf_counter()
        try:
            table = build_table1(harness, k_values=prep.k_values, runs_out=runs)
            text = io.StringIO()
            render_table1(table, text)
        except Exception as err:  # a cell that exhausts the ladder raises
            out.failed += cells
            out.problem(f"sweep {sweep} raised {type(err).__name__}: {err}")
            continue
        walls.append(time.perf_counter() - started)

        if text.getvalue() != prep.expected:
            out.problem(f"sweep {sweep}: table text differs from the reference file")
        sweep_cycles: Dict[str, int] = {}
        for cell in runs:
            cell_ms.append(cell.wall_time * 1000.0)
            sweep_cycles[cell.allocator] = (
                sweep_cycles.get(cell.allocator, 0) + cell.stats.total.cycles
            )
            if cell.allocator_used != cell.allocator:
                fallbacks += 1
                out.failed += 1
                out.problem(
                    f"{cell.program} {cell.allocator} k={cell.k} ran on"
                    f" the {cell.allocator_used} rung"
                )
            for stage in ("decode", "pycompile"):
                metrics = cell.metrics.get(stage)
                translate_s += metrics.wall_time if metrics else 0.0
        if cycles and sweep_cycles != cycles:
            out.problem(f"sweep {sweep}: executed cycles differ from sweep 0")
        cycles = cycles or sweep_cycles
        code_bytes = code_bytes or sum(len(dumps_image(image)) for image in images)
        ir_instrs = sum(
            len(image.code)
            for bench in harness.programs
            for image in harness.compiled(bench).reference_image().functions.values()
        )

    out.metrics["setup_s"] = prep.setup_s
    out.metrics["wall_s"] = stats.median(walls) if walls else 0.0
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.percentiles("op", cell_ms, 50, 90)
    for allocator in ALLOCATORS:
        out.metrics[f"cycles_{allocator}"] = cycles.get(allocator, 0)
    out.metrics["code_bytes"] = code_bytes
    out.layers["interp.translate_s"] = translate_s
    out.layers["regalloc.fallbacks"] = fallbacks
    out.layers["ir.instrs"] = ir_instrs
    return out


def _recording(allocate_program, images: list):
    """``Harness.allocate_program`` that also keeps each image it makes,
    for ``code_bytes``.  Every cell allocates once (a fallback fails the
    run), so these are the images the sweep executed."""

    def allocate(*args, **kwargs):
        image, spill_flags = allocate_program(*args, **kwargs)
        images.append(image)
        return image, spill_flags

    return allocate


def check(prep: Prepared, out: Outcome) -> None:
    """Nothing left to check: :func:`run` compares each sweep's text."""


def teardown(prep: Prepared) -> None:
    pass
