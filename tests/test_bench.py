"""The benchmark times the library's own prediction path."""

import numpy as np

from planemix import bench, model
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
