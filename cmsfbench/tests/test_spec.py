"""BENCHMARK.json names exactly what the benchmark code prints."""

import json
from pathlib import Path

from cmsfbench import run
from cmsfbench.layers import PER_LAYER

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def test_bounds_are_within_the_contract_and_setup_has_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_runs_on_a_workload():
    for name, _, _, workloads in PER_LAYER:
        assert workloads and set(workloads) <= set(run.WORKLOADS), name
