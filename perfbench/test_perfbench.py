"""Self-tests for the benchmark: span arithmetic, metric names, smoke passes.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def spec_names(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_self_times_subtract_direct_children_only():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has c [15, 35)
    hand = [Span("workflow.train_classifier", 0, 100, -1, 0),
            Span("budgeting.kmeans", 10, 40, 0, 0),
            Span("model.pool", 15, 35, 1, 0),
            Span("training.optimize_planes", 50, 90, 0, 0)]
    selfs = spans.self_times(hand)
    assert selfs == [100 - 30 - 40, 30 - 20, 20, 40]
    assert spans.subtree_self_ns(hand, selfs, 0) == 100
    assert spans.subtree_self_ns(hand, selfs, 1) == 30


def test_layer_metrics_add_up_to_the_traced_fit():
    tracer = spans.Tracer()
    tracer.spans = [Span("workflow.train_classifier", 0, 1000, -1, 0),
                    Span("features.rff", 100, 300, 0, 0),
                    Span(spans.BOOKKEEPING, 300, 310, 0, 0),
                    Span("training.optimize_planes", 400, 900, 0, 0),
                    Span("model.pool", 500, 600, 3, 0),
                    Span("model.predict", 2000, 2100, -1, 1)]
    out = spans.layer_metrics(tracer, fit_wall_s=1.5e-6)
    assert out["workflow.train_classifier_s"] == pytest.approx(1e-6)
    assert out["workflow.self_s"] == pytest.approx(290e-9)
    assert out["training.optimize_planes_s"] == pytest.approx(400e-9)
    assert out["model.argmax_s"] == pytest.approx(100e-9)
    assert out["trace.fit_remainder_s"] == pytest.approx(0.5e-6)
    in_fit = sum(out[m] for m in ("workflow.self_s", "features.rff_s",
                                  "trace.bookkeeping_s", "model.pool_s",
                                  "training.optimize_planes_s"))
    assert in_fit == pytest.approx(out["workflow.train_classifier_s"])


def test_instrument_restores_every_wrapped_name():
    from planemix import budgeting, features, model, training

    before = (budgeting.kmeans, features.RffMap.__dict__["transform"],
              training.pooled_scores, training.adam_step, model.predict)
    with spans.instrument(spans.Tracer()):
        assert budgeting.kmeans is not before[0]
        assert training.pooled_scores is not model.pooled_scores
    after = (budgeting.kmeans, features.RffMap.__dict__["transform"],
             training.pooled_scores, training.adam_step, model.predict)
    assert after == before


def test_kmeans_repeats_are_counted_within_one_operation():
    from planemix import budgeting

    pts = np.random.default_rng(0).standard_normal((40, 3))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        tracer.begin_op(0)
        budgeting.kmeans(pts, 2, (0, 1))
        budgeting.kmeans(pts, 2, seed=(0, 1))
        budgeting.kmeans(pts, 3, (0, 1))
        tracer.begin_op(1)
        budgeting.kmeans(pts, 2, (0, 1))
    assert tracer.counts["budgeting.kmeans_calls"] == 4
    assert tracer.counts["budgeting.kmeans_repeat_calls"] == 1


def test_reference_matches_the_library_and_excuses_only_ties():
    from planemix import features, model
    from planemix.features import FeaturePipeline, Standardizer

    gen = np.random.default_rng(3)
    rff = features.sample_rff(2, 8, 0.5, seed=1)
    pipe = FeaturePipeline(Standardizer(np.zeros(2), np.ones(2)), None, rff)
    mdl = model.PlaneMixture(gen.standard_normal((5, 16)), gen.standard_normal(5),
                             np.array([0, 2, 5]), 4.0, pipe)
    x = gen.standard_normal((50, 2))
    scores = reference.class_scores(mdl, x)
    np.testing.assert_allclose(scores, model.class_scores(mdl, x), rtol=1e-12)
    assert reference.label_mismatches(model.predict(mdl, x), scores) == 0
    assert reference.label_mismatches(1 - scores.argmax(axis=1), scores) == 50
    tied = np.array([[1.0, 1.0 + 1e-12]])
    assert reference.label_mismatches(np.array([0]), tied) == 0

    counts = reference.kernel_counts(mdl)
    assert counts["features.rff_flops_per_row"] == 2 * 2 * 8 + 8 + 16
    assert counts["features.rff_trig_per_row"] == 16
    assert counts["model.plane_flops_per_row"] == 2 * 16 * 5 + 5


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "DATASET_ROWS", 600)
    monkeypatch.setattr(workloads, "SERVE_BATCH_ROWS", 512)
    monkeypatch.setattr(workloads, "MIN_SINGLE_CALLS", 50)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_checks_its_outputs_and_emits_declared_metrics(
        small, workload):
    plain = workloads.run(workload, seed=1, seconds=0.5, trace=False)
    traced = workloads.run(workload, seed=1, seconds=0.5, trace=True)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == spec_names(kind)
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    # the caller's clock around each traced fit exceeds the layer self
    # times inside it only by the outermost wrapper's own cost
    assert 0 <= layer["trace.fit_remainder_s"] \
        <= 0.01 * layer["workflow.train_classifier_s"] + 1e-3
    if workload == "fit-auto":
        assert layer["features.probe_fits"] == 5
        assert layer["features.probe_kept_ratio"] == pytest.approx(0.2)
        assert layer["budgeting.kmeans_repeat_calls"] >= 1


def test_run_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "serve", "--seed", "0", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
