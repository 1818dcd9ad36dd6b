"""Responsibility reports, plane saliency, and lattice exports."""

import csv

import numpy as np
import pytest

from planemix.diagnostics import (
    bounds_from,
    decision_grid,
    plane_saliency,
    plane_usage,
    responsibility_grid,
    responsibility_stats,
)
from planemix.features import (
    FeaturePipeline,
    PcaMap,
    Standardizer,
    identity_pipeline,
    sample_rff,
)
from planemix.model import PlaneMixture, plane_responsibilities, predict


def axis_model(alpha=4.0):
    """Two classes in the plane: class 0 owns +x and +y planes, class 1 -x."""
    weights = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    biases = np.zeros(3)
    offsets = np.array([0, 2, 3])
    return PlaneMixture(weights, biases, offsets, alpha, identity_pipeline(2))


class TestResponsibilityStats:
    def test_matches_hand_softmax_for_one_sample(self):
        mdl = axis_model()
        x = np.array([[0.3, -0.2]])
        z = 4.0 * np.array([0.3, -0.2])
        r = np.exp(z - z.max())
        r /= r.sum()
        stats = responsibility_stats(mdl, x, np.array([0]))
        assert stats.mean_max == pytest.approx(r.max(), abs=1e-12)
        assert stats.mean_entropy == pytest.approx(-(r * np.log(r)).sum(),
                                                   abs=1e-12)

    def test_single_plane_class_is_perfectly_sharp(self):
        mdl = axis_model()
        stats = responsibility_stats(mdl, np.array([[5.0, 5.0]]), np.array([1]))
        assert stats.mean_max == 1.0
        assert stats.mean_entropy == 0.0

    def test_underflowed_responsibility_contributes_zero_entropy(self):
        # alpha * score gap of 1200 underflows one weight to exactly 0.0;
        # its entropy term must be 0, not nan
        mdl = axis_model(alpha=6.0)
        stats = responsibility_stats(mdl, np.array([[0.0, -200.0]]),
                                     np.array([0]))
        assert stats.mean_max == 1.0
        assert stats.mean_entropy == 0.0
        assert np.isfinite(stats.mean_entropy)

    def test_averages_over_samples(self):
        mdl = axis_model()
        x = np.array([[0.3, -0.2], [5.0, 5.0]])
        labels = np.array([0, 1])
        solo = [responsibility_stats(mdl, x[i:i + 1], labels[i:i + 1])
                for i in range(2)]
        both = responsibility_stats(mdl, x, labels)
        assert both.mean_max == pytest.approx(
            (solo[0].mean_max + solo[1].mean_max) / 2, abs=1e-12)
        assert both.mean_entropy == pytest.approx(
            (solo[0].mean_entropy + solo[1].mean_entropy) / 2, abs=1e-12)

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError):
            responsibility_stats(axis_model(), np.empty((0, 2)),
                                 np.empty(0, dtype=int))


class TestPlaneUsage:
    def test_winner_fractions_follow_geometry(self):
        mdl = axis_model()
        x = np.array([[1.0, 0.0], [1.0, 0.1], [0.9, 0.0], [0.0, 1.0]])
        usage = plane_usage(mdl, x, np.zeros(4, dtype=int))
        assert np.allclose(usage.fractions[0], [0.75, 0.25], atol=1e-12)
        assert usage.absent == [False, True]

    def test_present_rows_sum_to_one(self, rng):
        mdl = axis_model()
        x = rng.standard_normal((40, 2))
        labels = rng.integers(0, 2, 40)
        usage = plane_usage(mdl, x, labels)
        for row, missing in zip(usage.fractions, usage.absent):
            if not missing:
                assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_absent_class_row_is_zero(self):
        mdl = axis_model()
        usage = plane_usage(mdl, np.array([[1.0, 0.0]]), np.array([0]))
        assert usage.absent[1]
        assert np.array_equal(usage.fractions[1], [0.0])

    def test_matches_a_per_sample_loop_on_ragged_blocks(self, rng):
        offsets = np.array([0, 3, 4, 8])
        mdl = PlaneMixture(rng.standard_normal((8, 2)), rng.standard_normal(8),
                           offsets, 3.0, identity_pipeline(2))
        x = rng.standard_normal((60, 2))
        labels = rng.integers(0, 2, 60)  # class 2 stays absent
        resp = plane_responsibilities(mdl, x)
        blocks = [resp[i, offsets[c]:offsets[c + 1]]
                  for i, c in enumerate(labels)]
        entropies = [-sum(r * np.log(r) for r in b if r > 0) for b in blocks]
        stats = responsibility_stats(mdl, x, labels)
        assert stats.mean_max == np.mean([b.max() for b in blocks])
        assert stats.mean_entropy == pytest.approx(np.mean(entropies),
                                                   rel=1e-12)
        usage = plane_usage(mdl, x, labels)
        for c in range(3):
            winners = [b.argmax() for b, lab in zip(blocks, labels) if lab == c]
            want = [winners.count(m) / len(winners) if winners else 0.0
                    for m in range(offsets[c + 1] - offsets[c])]
            assert usage.fractions[c].tolist() == want
            assert usage.absent[c] == (not winners)

    @pytest.mark.parametrize("report", [plane_usage, responsibility_stats])
    @pytest.mark.parametrize("label", [2, -1, 0.5])
    def test_labels_outside_the_classes_are_refused(self, report, label):
        # plane_usage used to skip such rows without a word
        with pytest.raises(ValueError, match="labels"):
            report(axis_model(), np.array([[1.0, 0.0], [0.0, 1.0]]),
                   np.array([0, label]))


class TestPlaneSaliency:
    def test_identity_pipeline_returns_sorted_weights(self):
        mdl = axis_model()
        ranked = plane_saliency(mdl, 0, 1)
        assert ranked == [("f1", 1.0), ("f0", 0.0)]

    def test_standardizer_scale_is_folded_back(self):
        pipe = FeaturePipeline(Standardizer(np.zeros(2),
                                            np.array([2.0, 0.5])))
        mdl = PlaneMixture(np.array([[1.0, 1.0]]), np.zeros(1),
                           np.array([0, 1]), 4.0, pipe)
        ranked = dict(plane_saliency(mdl, 0, 0))
        # weight on a column scaled down by 2 counts half as much per raw unit
        assert ranked["f0"] == pytest.approx(0.5, abs=1e-12)
        assert ranked["f1"] == pytest.approx(2.0, abs=1e-12)

    def test_pca_rotation_is_folded_back(self):
        # lift keeps only the (1,1)/sqrt(2) direction of a 2-D input
        comp = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        pipe = FeaturePipeline(
            Standardizer(np.zeros(2), np.ones(2)),
            pca=PcaMap(comp, np.zeros(2), np.array([1.0]), 1.0))
        mdl = PlaneMixture(np.array([[3.0]]), np.zeros(1),
                           np.array([0, 1]), 4.0, pipe)
        ranked = dict(plane_saliency(mdl, 0, 0))
        assert ranked["f0"] == pytest.approx(3.0 / np.sqrt(2.0), abs=1e-12)
        assert ranked["f1"] == pytest.approx(3.0 / np.sqrt(2.0), abs=1e-12)

    def test_random_feature_lift_is_refused(self):
        pipe = FeaturePipeline(Standardizer(np.zeros(2), np.ones(2)),
                               rff=sample_rff(2, 4, 1.0, seed=0))
        mdl = PlaneMixture(np.zeros((1, 8)), np.zeros(1),
                           np.array([0, 1]), 4.0, pipe)
        with pytest.raises(ValueError, match="affine"):
            plane_saliency(mdl, 0, 0)

    def test_custom_names(self):
        mdl = axis_model()
        ranked = plane_saliency(mdl, 0, 0, feature_names=["age", "height"])
        assert ranked == [("age", 1.0), ("height", 0.0)]

    def test_name_list_length_is_checked(self):
        with pytest.raises(ValueError, match="feature_names"):
            plane_saliency(axis_model(), 0, 0, feature_names=["only_one"])

    def test_bad_indices_are_rejected(self):
        mdl = axis_model()
        with pytest.raises(ValueError):
            plane_saliency(mdl, 2, 0)
        with pytest.raises(ValueError):
            plane_saliency(mdl, 1, 1)


class TestBounds:
    def test_pads_each_axis_by_ten_percent_of_span(self):
        x = np.array([[0.0, -1.0], [10.0, 1.0]])
        (x_lo, x_hi), (y_lo, y_hi) = bounds_from(x)
        assert (x_lo, x_hi) == (-1.0, 11.0)
        assert (y_lo, y_hi) == (-1.2, 1.2)

    def test_flat_axis_still_gets_breathing_room(self):
        x = np.array([[3.0, 0.0], [3.0, 4.0]])
        (x_lo, x_hi), _ = bounds_from(x)
        assert x_lo < 3.0 < x_hi


class TestGrids:
    def test_decision_grid_matches_direct_prediction(self):
        mdl = axis_model()
        grid = decision_grid(mdl, ((-1.0, 1.0), (-1.0, 1.0)), resolution=5)
        assert grid.values.shape == (5, 5)
        assert grid.kind == "decision"
        gx, gy = np.meshgrid(grid.xs, grid.ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        assert np.array_equal(grid.values.ravel(), predict(mdl, pts))

    def test_responsibility_grid_slices_sum_to_one(self):
        mdl = axis_model()
        grid = responsibility_grid(mdl, 0, ((-1.0, 1.0), (-1.0, 1.0)),
                                   resolution=4)
        assert grid.values.shape == (4, 4, 3)
        assert grid.kind == "responsibility"
        sums = grid.values[:, :, :2].sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-9)
        winners = grid.values[:, :, :2].argmax(axis=2)
        assert np.array_equal(grid.values[:, :, 2], winners.astype(float))

    def test_non_planar_inputs_are_rejected(self):
        mdl = PlaneMixture(np.zeros((2, 3)), np.zeros(2), np.array([0, 1, 2]),
                           4.0, identity_pipeline(3))
        with pytest.raises(ValueError, match="2-D"):
            decision_grid(mdl, ((-1.0, 1.0), (-1.0, 1.0)), resolution=3)

    @pytest.mark.parametrize("resolution", [0, 2.5, True])
    def test_resolution_must_be_a_whole_number(self, resolution):
        # 2.5 used to raise numpy's TypeError and True to draw one point
        with pytest.raises(ValueError, match=r"^resolution must be a whole "
                                             r"number >= 1, got "):
            decision_grid(axis_model(), ((-1.0, 1.0), (-1.0, 1.0)),
                          resolution=resolution)

    def test_empty_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            decision_grid(axis_model(), ((1.0, 1.0), (-1.0, 1.0)),
                          resolution=3)

    def test_csv_round_trip_decision(self, tmp_path):
        mdl = axis_model()
        grid = decision_grid(mdl, ((-1.0, 1.0), (-1.0, 1.0)), resolution=3)
        out = tmp_path / "grid.csv"
        grid.to_csv(str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            i = np.searchsorted(grid.ys, float(row["y"]))
            j = np.searchsorted(grid.xs, float(row["x"]))
            assert float(row["value"]) == grid.values[i, j]

    def test_csv_round_trip_responsibility(self, tmp_path):
        mdl = axis_model()
        grid = responsibility_grid(mdl, 0, ((-1.0, 1.0), (-1.0, 1.0)),
                                   resolution=3)
        out = tmp_path / "resp.csv"
        grid.to_csv(str(out))
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["x", "y", "v0", "v1", "v2"]
        assert len(rows) == 9
        first = rows[0]
        assert float(first[0]) == grid.xs[0]
        assert float(first[2]) == grid.values[0, 0, 0]
