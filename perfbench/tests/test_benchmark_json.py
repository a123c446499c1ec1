"""BENCHMARK.json at the repository root matches the metrics the
benchmark reports, and keeps to its format's limits."""

import json
from pathlib import Path

from perfbench import metrics, stats

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(metrics.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_match():
    listed = {m["name"]: m for m in SPEC["end_to_end"]}
    assert list(listed) == list(metrics.END_TO_END)
    for name, (unit, better, bound) in metrics.END_TO_END.items():
        assert listed[name] == {"name": name, "unit": unit, "better": better, "bound": bound}
        assert 0 < bound <= 0.25
    assert listed["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_match():
    listed = {m["name"]: m for m in SPEC["per_layer"]}
    assert list(listed) == list(metrics.PER_LAYER)
    for name, (unit, better) in metrics.PER_LAYER.items():
        assert listed[name] == {"name": name, "unit": unit, "better": better}


def test_every_name_and_unit_is_valid_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(n) for n in names)
    assert all(stats.valid_unit(e["unit"]) for e in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
