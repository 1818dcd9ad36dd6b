"""tools/bench_pairs.py: its summary and claim on a synthetic record, checked
by the functions that check every committed BENCH_*.json."""

import importlib.util
import json
import os

import pytest

import test_bench_record as record_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run(workload, seed, fit_s):
    """One side's lines as perfbench/run.py prints them."""
    metrics = {name: {"value": 1.0, "unit": ""}
               for name in record_schema.declared_better()}
    metrics["fit_s"]["value"] = fit_s
    metrics["accuracy"]["value"] = 0.9
    return {"detail": {"workload": workload, "seed": seed},
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": metrics},
            "wall_s": 1.0}


def synthetic_record(tool, parent_fit, change_fit):
    better = tool.declared_metrics()
    pairs = []
    for i, (p, c) in enumerate(zip(parent_fit, change_fit)):
        pair = {"workload": "fit-linear", "seed": 100 + i,
                "order": ["parent", "change"] if i % 2 == 0
                else ["change", "parent"],
                "parent": run("fit-linear", 100 + i, p),
                "change": run("fit-linear", 100 + i, c)}
        pair["ratio"] = tool.ratios(pair["parent"], pair["change"], better)
        pairs.append(pair)
    summary = tool.summarise(pairs, better)
    return {"pairs": pairs, "summary": summary, "checks": {},
            "claim": tool.judge(summary, "fit-linear", "fit_s",
                                better["fit_s"])}


@pytest.mark.parametrize("parent_fit,change_fit,holds", [
    ((0.60, 0.62), (0.44, 0.43), True),
    ((0.60, 0.62), (0.44, 0.70), False),
    ((0.40, 0.80), (0.55, 0.60), False),
], ids=["both-pairs-win", "one-pair-loses", "inside-the-parent-spread"])
def test_summary_and_claim_pass_the_record_schema(tmp_path, parent_fit,
                                                  change_fit, holds):
    tool = load_tool()
    record = synthetic_record(tool, parent_fit, change_fit)
    path = str(tmp_path / "BENCH_0.json")
    tool.write_record(path, record)
    record_schema.test_every_pair_holds_both_sides_of_one_seed_with_every_metric(
        path)
    record_schema.test_the_summary_is_recomputed_from_the_pairs(path)
    record_schema.test_the_claim_names_a_summarised_workload_and_a_declared_metric(
        path)
    row = record["summary"]["fit-linear"]["fit_s"]
    assert row["pairs"] == 2
    assert record["claim"]["holds"] is holds
    with open(path) as fh:
        assert json.load(fh) == record


def test_seed_ranges_read_as_inclusive():
    tool = load_tool()
    assert tool.seed_range("2201-2203") == [2201, 2202, 2203]
    assert tool.seed_range("7") == [7]
