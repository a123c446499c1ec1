"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {table1,compile,service} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is loaded from
``src/``.  ``--trace 0`` measures the end-to-end metrics.  ``--trace 1``
runs the workload with a span wrapper around every layer call and
reports the per-layer metrics; its tracing overhead is the number of
spans times the measured cost of one wrapped call.  Spans and a
per-layer summary with self times are written to ``.perfbench/`` in the
checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the seed, nproc, the Python version and the code's commit.
The exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "compile", "service")


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _commit() -> Optional[str]:
    """The checkout's git commit, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over ``src/repro``'s Python files, to name the code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    base = ROOT / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_info(args: argparse.Namespace) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def measure(args: argparse.Namespace, info: Dict[str, object]) -> Dict[str, object]:
    from perfbench import layers, metrics
    from perfbench.trace import Tracer, span_cost

    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    problems: List[str] = []
    prepared = workload.setup(ROOT, args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            layers.instrument(tracer)
        try:
            outcome = workload.run(prepared, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check(prepared, outcome)
    finally:
        workload.teardown(prepared)

    problems += outcome.problems
    if tracer is None:
        problems += outcome.unsupported_tails()
        values = {}
        for name, (unit, _, _) in metrics.END_TO_END.items():
            value = outcome.metrics.get(name, 0.0)
            if not value > 0:
                problems.append(f"{name} was not measured")
            values[name] = {"value": value, "unit": unit}
    else:
        layer_values = {name: 0.0 for name in metrics.PER_LAYER}
        layer_values.update(layers.layer_metrics(tracer))
        layer_values.update(outcome.layers)
        layer_values["trace.overhead_s"] = len(tracer.spans) * span_cost()
        values = {
            name: {"value": layer_values[name], "unit": unit}
            for name, (unit, _) in metrics.PER_LAYER.items()
        }
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(
            str(out_dir / f"trace-{args.workload}-seed{args.seed}.json"),
            {"run": info, "metrics": layer_values},
        )
        for name, value in layer_values.items():
            print(f"  {name:<44} {value:14.6g} {metrics.PER_LAYER[name][0]}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": values,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    info = run_info(args)
    result = measure(args, info)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
