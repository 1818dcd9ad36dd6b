"""Schema of the committed benchmark records, BENCH_*.json at the repo root.

A record holds pairs of `perfbench/run.py` runs, one on the parent commit
and one on the change, on the same workload and seed, with the detail and
result lines each run printed and the change/parent ratio of every
end-to-end metric. A speed claim counts only when a record shows it.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def declared_end_to_end() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_every_pair_holds_both_sides_of_one_seed_with_every_metric(path):
    with open(path) as fh:
        pairs = json.load(fh)["pairs"]
    names = declared_end_to_end()
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
