"""The benchmark times the library's own prediction path."""

import numpy as np

from planemix import bench, model, workflow
from planemix.features import identity_pipeline
from planemix.model import PlaneMixture


def test_latency_is_measured_through_model_predict(monkeypatch):
    rng = np.random.default_rng(3)
    mdl = PlaneMixture(rng.standard_normal((3, 4)), rng.standard_normal(3),
                       np.array([0, 2, 3]), 4.0, identity_pipeline(4))
    inputs = rng.standard_normal((5, 4))
    batch_sizes = []
    original = model.predict

    def counting_predict(m, x):
        batch_sizes.append(np.shape(x)[0])
        return original(m, x)

    monkeypatch.setattr(model, "predict", counting_predict)
    ns = bench.measure_latency_ns(mdl, inputs)
    assert ns > 0
    assert len(batch_sizes) >= bench.TIMING_BATCHES * 200
    assert set(batch_sizes) == {1}


def test_bench_cells_report_the_uncertified_test_rows(monkeypatch):
    # the cell carries what certified_predict reports for the test split,
    # here three rows made up by the stand-in
    seen = []

    def three_uncertified(mdl, x):
        seen.append(x.shape[0])
        return np.argmax(model.class_scores(mdl, x), axis=1), np.arange(3)

    monkeypatch.setattr(model, "certified_predict", three_uncertified)
    cell = bench.run_cell("aniso", 0, lift="linear", measure_latency=False)
    test = workflow.split_dataset(workflow.generate_dataset("aniso", seed=0),
                                  0)[2]
    assert cell.error is None
    assert seen == [test.features.shape[0]]
    assert cell.uncertified_rows == 3
    assert "uncertified_rows" in bench.CELL_FIELDS
