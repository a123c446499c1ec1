"""Tiny runs of each workload with every correctness check on."""

import os
from pathlib import Path

import pytest

from perfbench import layers, metrics, stats
from perfbench.trace import Tracer
from perfbench.workloads import compile as compile_wl
from perfbench.workloads import service, table1
from repro.interp.serialize import dumps_image

ROOT = Path(__file__).resolve().parents[2]


def _measure(workload, prepared, tracer=None):
    try:
        if tracer is not None:
            layers.instrument(tracer)
        try:
            out = workload.run(prepared, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check(prepared, out)
    finally:
        workload.teardown(prepared)
    return out


def test_table1_smoke_subset_matches_reference_text():
    prepared = table1.setup(
        ROOT, 1, 1,
        programs=["hanoi", "sieve", "queens"],
        k_values=(3, 5),
        expected_file="results_table1_smoke.txt",
    )
    out = _measure(table1, prepared)
    assert out.correct, out.problems
    assert out.attempted == 18 and out.failed == 0
    for name in metrics.END_TO_END:
        assert out.metrics[name] > 0, name


def test_table1_text_mismatch_is_a_failure():
    prepared = table1.setup(
        ROOT, 1, 1, programs=["hanoi"], k_values=(3,),
        expected_file="results_table1_smoke.txt",
    )
    out = _measure(table1, prepared)
    assert not out.correct
    assert any("differs" in p for p in out.problems)


def test_compile_counts_ladder_fallbacks_without_failing():
    # random_source(1001, "large") and random_source(1009, "large") are
    # irreducible for ssaspill at k=3 and end on linearscan; 1009 fails
    # on its third function, after two were allocated.
    prepared = compile_wl.setup(
        ROOT, 7, 1, pool=(("large", 10),), allocators=("ssaspill",), k_values=(3,)
    )
    out = _measure(compile_wl, prepared)
    assert out.correct, out.problems
    assert out.attempted == 10
    assert out.layers["regalloc.fallbacks"] == 2
    assert out.metrics["op_p90_ms"] > 0 and out.metrics["cycles_ssaspill"] > 0
    # Only the code of the rung an operation ended on counts.
    assert out.metrics["code_bytes"] == sum(
        len(dumps_image(image)) for image in prepared.images.values()
    )


def test_default_compile_pool_supports_the_p90_tail():
    from repro.compiler import compile_source
    from repro.testing.generator import random_source

    functions = sum(
        len(compile_source(random_source(compile_wl.POOL_BASE + i, size)).fresh_module().functions)
        for size, count in compile_wl.POOL
        for i in range(count)
    )
    pairs = len(compile_wl.ALLOCATORS) * len(compile_wl.K_VALUES)
    assert stats.supports(90, functions * pairs)


def test_service_minimum_rounds_support_both_tails():
    rounds = service.MIN_ROUNDS
    assert stats.supports(99, rounds * service.CLIENTS * service.WARM_PER_ROUND)
    assert stats.supports(90, rounds * service.CLIENTS)
    assert not stats.supports(90, (rounds - 1) * service.CLIENTS)


def test_compile_traced_counts_repeat_exactly():
    def counts():
        prepared = compile_wl.setup(
            ROOT, 3, 1, pool=(("small", 2), ("medium", 1)), k_values=(3, 5)
        )
        tracer = Tracer()
        out = _measure(compile_wl, prepared, tracer)
        assert out.correct, out.problems
        values = layers.layer_metrics(tracer)
        return {
            name: value
            for name, value in values.items()
            if name.startswith(("cfg.", "ssa.", "regalloc.")) and not name.endswith(".s")
        }

    first = counts()
    assert first["regalloc.rap.calls"] > 0
    assert first["cfg.reachdefs.solves.validate"] > 0
    assert first["ssa.liveness.solves.allocate"] > 0
    assert counts() == first


def test_service_tiny_run_checks_every_answer_and_stops_the_daemon():
    prepared = service.setup(ROOT, 5, 1, warm_programs=1, rounds=4)
    process = prepared.daemon.process
    out = _measure(service, prepared)
    assert process.poll() is not None
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)
    assert out.correct, out.problems
    # per client: 4 rounds of 10 warm + 1 cold; the 4th round's is a pair
    assert out.attempted == 2 * 4 * 11 and out.failed == 0
    assert out.layers["service.worker_restarts"] == 0
    assert 0 <= out.layers["service.duplicate_compiles"] <= 1
    assert out.layers["service.cache.hits"] >= 2 * 4 * 10
    for name in metrics.END_TO_END:
        assert out.metrics[name] > 0, name
    assert out.layers["service.warm.p99_ms"] > 0
