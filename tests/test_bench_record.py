"""Schema of the committed benchmark records, BENCH_*.json at the repo root.

A record holds pairs of `perfbench/run.py` runs, one on the parent commit
and one on the change, on the same workload and seed, with the detail and
result lines each run printed and the change/parent ratio of every
end-to-end metric. A speed claim counts only when a record shows it.
"""

import glob
import json
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def declared_better() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json and the way it improves."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_every_pair_holds_both_sides_of_one_seed_with_every_metric(path):
    pairs = load(path)["pairs"]
    names = list(declared_better())
    assert pairs
    for pair in pairs:
        assert sorted(pair["order"]) == ["change", "parent"]
        values = {}
        for side in ("parent", "change"):
            run = pair[side]
            assert (run["detail"]["workload"], run["detail"]["seed"]) \
                == (pair["workload"], pair["seed"])
            metrics = run["result"]["metrics"]
            assert set(names) <= set(metrics)
            assert metrics["success_ratio"]["value"] == 1.0
            assert run["result"]["correct"]
            values[side] = {n: metrics[n]["value"] for n in names}
        for n in names:
            if values["parent"][n]:
                assert pair["ratio"][n] == pytest.approx(
                    values["change"][n] / values["parent"][n])


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_the_summary_is_recomputed_from_the_pairs(path):
    # per workload and metric: the pair count, the median change/parent
    # ratio, wins and losses by the metric's direction (ties count for
    # neither side) and numpy's 25/50/75 percentiles of each side's values
    record = load(path)
    better = declared_better()
    assert record["summary"]
    for workload, metrics in record["summary"].items():
        pairs = [p for p in record["pairs"] if p["workload"] == workload]
        assert pairs and set(metrics) == set(better)
        for name, summary in metrics.items():
            values = {side: np.array([p[side]["result"]["metrics"][name]
                                      ["value"] for p in pairs])
                      for side in ("parent", "change")}
            gain = values["change"] - values["parent"]
            if better[name] == "lower":
                gain = -gain
            assert summary["pairs"] == len(pairs)
            assert summary["median_ratio"] == pytest.approx(
                np.median([p["ratio"][name] for p in pairs]))
            assert (summary["change_wins"], summary["change_losses"]) \
                == (int((gain > 0).sum()), int((gain < 0).sum()))
            for side, vals in values.items():
                assert summary[f"{side}_q1_median_q3"] == pytest.approx(
                    np.percentile(vals, [25, 50, 75]).tolist())


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_the_claim_names_a_summarised_workload_and_a_declared_metric(path):
    record = load(path)
    claim = record["claim"]
    assert claim["workload"] in record["summary"]
    assert claim["metric"] in declared_better()
