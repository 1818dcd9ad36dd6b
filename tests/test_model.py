"""Soft-OR pooling, posteriors, and the prediction path.

The pooled class score is a temperature-controlled log-sum-exp over that
class's plane scores. Everything here checks the pooling against direct
formulas written out independently, plus the structural invariants that
make the pooling trustworthy at any temperature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix import model
from planemix.features import (
    FeaturePipeline,
    fit_standardizer,
    identity_pipeline,
    sample_rff,
)
from planemix.model import (
    PlaneMixture,
    class_score,
    class_scores,
    forward,
    lifted_plane_scores,
    log_posterior,
    plane_responsibilities,
    pooled_scores,
    posterior,
    predict,
    predict_proba,
    responsibilities,
    segment_responsibilities,
)


def direct_lse_pool(z, alpha):
    # reference implementation straight from the definition, no max trick
    return float(np.log(np.sum(np.exp(alpha * np.asarray(z)))) / alpha)


def small_model(rng, class_planes=(2, 3), dim=4, alpha=4.0):
    m_total = sum(class_planes)
    offsets = np.concatenate([[0], np.cumsum(class_planes)])
    return PlaneMixture(rng.standard_normal((m_total, dim)),
                        rng.standard_normal(m_total),
                        offsets, alpha, identity_pipeline(dim))


class TestPooling:
    def test_matches_direct_formula_on_moderate_scores(self, rng):
        for _ in range(20):
            z = rng.uniform(-5, 5, size=rng.integers(1, 6))
            alpha = float(rng.uniform(0.5, 8.0))
            assert class_score(z, alpha) == pytest.approx(
                direct_lse_pool(z, alpha), abs=1e-12)

    def test_single_plane_is_identity(self, rng):
        z = float(rng.normal())
        assert class_score(np.array([z]), 3.0) == pytest.approx(z, abs=1e-12)

    def test_stable_at_scores_that_overflow_the_naive_form(self):
        z = np.array([500.0, 499.0])
        s = class_score(z, 6.0)
        assert np.isfinite(s)
        assert 500.0 <= s <= 500.0 + np.log(2.0) / 6.0

    def test_equal_scores_pool_to_score_plus_log_count_over_alpha(self):
        z = np.full(4, 1.5)
        assert class_score(z, 2.0) == pytest.approx(1.5 + np.log(4) / 2.0,
                                                    abs=1e-12)

    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.5, max_value=10.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_bound(self, m, alpha, seed):
        z = np.random.default_rng(seed).uniform(-50, 50, size=m)
        s = class_score(z, alpha)
        assert z.max() - 1e-10 <= s <= z.max() + np.log(m) / alpha + 1e-10

    def test_sharper_alpha_moves_pool_toward_max(self, rng):
        z = rng.uniform(-2, 2, size=5)
        pools = [class_score(z, a) for a in (1.0, 4.0, 16.0, 64.0)]
        assert all(a >= b - 1e-12 for a, b in zip(pools, pools[1:]))
        assert pools[-1] == pytest.approx(z.max(), abs=0.05)

    def test_rejects_a_batch_of_score_vectors(self, rng):
        with pytest.raises(ValueError, match="one score vector"):
            class_score(rng.standard_normal((3, 2)), 2.0)

    def test_batch_pooling_agrees_with_scalar_pooling(self, rng):
        mat = rng.standard_normal((10, 5))
        offsets = np.array([0, 2, 5])
        pooled = pooled_scores(mat, offsets, 3.0)
        for i in range(10):
            assert pooled[i, 0] == pytest.approx(
                direct_lse_pool(mat[i, :2], 3.0), abs=1e-12)
            assert pooled[i, 1] == pytest.approx(
                direct_lse_pool(mat[i, 2:], 3.0), abs=1e-12)


class TestResponsibilities:
    def test_rows_sum_to_one(self, rng):
        z = rng.standard_normal((20, 4))
        r = responsibilities(z, 5.0)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)

    def test_match_manual_softmax(self, rng):
        z = rng.standard_normal(4)
        r = responsibilities(z, 2.0)
        manual = np.exp(2.0 * z) / np.exp(2.0 * z).sum()
        assert np.allclose(r, manual, atol=1e-12)

    def test_segment_version_blocks_by_class(self, rng):
        mat = rng.standard_normal((8, 5))
        offsets = np.array([0, 2, 5])
        seg = segment_responsibilities(mat, offsets, 4.0)
        assert np.allclose(seg[:, :2].sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(seg[:, 2:].sum(axis=1), 1.0, atol=1e-12)

    def test_high_alpha_concentrates_on_the_best_plane(self):
        z = np.array([[1.0, 0.0, -1.0]])
        r = responsibilities(z, 50.0)
        assert r[0, 0] > 0.999


def per_block(mat, offsets, alpha):
    """Pooled scores and responsibilities row by row and block by block, in
    plain Python floats with an exact sum, each block's maximum shifted out."""
    scores = np.empty((mat.shape[0], len(offsets) - 1))
    resp = np.empty_like(mat)
    for i, row in enumerate(mat.tolist()):
        for c, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            top = max(row[lo:hi])
            w = [math.exp(alpha * (v - top)) for v in row[lo:hi]]
            total = math.fsum(w)
            scores[i, c] = top + math.log(total) / alpha
            resp[i, lo:hi] = [v / total for v in w]
    return scores, resp


class TestSegmentKernel:
    @pytest.mark.parametrize("sizes,alpha,spread", [
        ((1, 3, 2, 4), 4.0, 3.0),
        ((1, 2, 3, 4, 1, 2, 3, 4, 2, 1), 6.0, 3.0),
        ((9, 9), 2.5, 3.0),
        ((3, 1, 9, 2), 50.0, 500.0),
    ], ids=["ragged", "ten-classes", "blocks-of-nine", "500-at-alpha-50"])
    def test_matches_the_per_block_formula(self, rng, sizes, alpha, spread):
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        if spread == 500.0:  # each score near +500 or -500
            mat = (rng.choice([-500.0, 500.0], size=(16, offsets[-1]))
                   + rng.uniform(-1, 1, size=(16, offsets[-1])))
        else:
            mat = rng.uniform(-spread, spread, size=(16, offsets[-1]))
        want_scores, want_resp = per_block(mat, offsets.tolist(), alpha)
        np.testing.assert_allclose(pooled_scores(mat, offsets, alpha),
                                   want_scores, rtol=1e-12, atol=0)
        np.testing.assert_allclose(segment_responsibilities(mat, offsets, alpha),
                                   want_resp, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("offsets", [
        [0, 2, 4], [1, 3, 5], [0, 2, 2, 5], [0, 3, 2, 5], [0]],
        ids=["short-end", "nonzero-start", "empty-block", "decreasing",
             "no-end"])
    def test_bad_offsets_are_refused(self, rng, offsets):
        # reduceat would silently fold the trailing column into the last
        # block, score an empty block with its neighbour's value, or skip
        # leading columns
        mat = rng.standard_normal((3, 5))
        for kernel in (pooled_scores, segment_responsibilities):
            with pytest.raises(ValueError, match="offsets"):
                kernel(mat, np.array(offsets), 2.0)


class TestPosterior:
    def test_rows_are_distributions(self, rng):
        s = rng.standard_normal((30, 3)) * 10
        p = posterior(s)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_shift_invariance(self, rng):
        s = rng.standard_normal((5, 3))
        shifted = s + rng.standard_normal((5, 1)) * 100
        assert np.allclose(posterior(s), posterior(shifted), atol=1e-12)

    def test_log_posterior_consistent_with_posterior(self, rng):
        mdl = small_model(rng)
        x = rng.standard_normal((12, 4))
        assert np.allclose(np.exp(log_posterior(mdl, x)),
                           predict_proba(mdl, x), atol=1e-12)


class TestModelSurface:
    def test_forward_pieces_are_consistent(self, rng):
        mdl = small_model(rng)
        x = rng.standard_normal(4)
        out = forward(mdl, x)
        assert np.array_equal(out.class_scores, class_scores(mdl, x)[0])
        assert out.posterior.sum() == pytest.approx(1.0, abs=1e-12)
        assert [len(z) for z in out.plane_scores] == [2, 3]
        for resp in out.responsibilities:
            assert resp.sum() == pytest.approx(1.0, abs=1e-12)

    def test_forward_rejects_a_batch(self, rng):
        mdl = small_model(rng)
        with pytest.raises(ValueError, match="one example, got 3 rows"):
            forward(mdl, rng.standard_normal((3, 4)))

    def test_predict_is_argmax_of_scores(self, rng):
        mdl = small_model(rng)
        x = rng.standard_normal((40, 4))
        assert np.array_equal(predict(mdl, x),
                              np.argmax(class_scores(mdl, x), axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_refused_by_name(self, rng, bad):
        mdl = small_model(rng)
        x = rng.standard_normal((6, 4))
        x[3, 1], x[5, 0] = bad, np.nan
        for serve in (predict, predict_proba, class_scores):
            with pytest.raises(ValueError, match="input row 3 "):
                serve(mdl, x)

    def test_score_ties_resolve_to_the_lower_class_index(self):
        # both classes hold one identical plane, so scores tie everywhere
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.zeros(2)
        mdl = PlaneMixture(w, b, np.array([0, 1, 2]), 4.0,
                           identity_pipeline(2))
        x = np.array([[0.3, 0.7], [-2.0, 1.0]])
        assert predict(mdl, x).tolist() == [0, 0]

    def test_planes_per_class_reflects_offsets(self, rng):
        mdl = small_model(rng, class_planes=(1, 4))
        assert mdl.planes_per_class.tolist() == [1, 4]
        assert mdl.class_count == 2

    def test_with_alpha_changes_only_alpha(self, rng):
        mdl = small_model(rng, alpha=3.0)
        hot = mdl.with_alpha(9.0)
        assert hot.alpha == 9.0
        assert np.array_equal(hot.weights, mdl.weights)
        x = rng.standard_normal((5, 4))
        assert not np.allclose(class_scores(hot, x), class_scores(mdl, x))

    def test_offsets_must_be_monotone(self, rng):
        with pytest.raises(ValueError):
            PlaneMixture(rng.standard_normal((3, 2)), np.zeros(3),
                         np.array([0, 2, 1]), 4.0, identity_pipeline(2))

    def test_offsets_need_a_start_and_an_end(self, rng):
        with pytest.raises(ValueError, match="offsets"):
            PlaneMixture(rng.standard_normal((2, 2)), np.zeros(2),
                         np.array([], dtype=np.int64), 4.0,
                         identity_pipeline(2))

    def test_alpha_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            PlaneMixture(rng.standard_normal((2, 2)), np.zeros(2),
                         np.array([0, 1, 2]), 0.0, identity_pipeline(2))

    @pytest.mark.parametrize("change,message", [
        ({"weights": np.zeros((3, 5))}, "weights has 5 columns, expected 4"),
        ({"weights": np.zeros(3)}, "weights must be 2-D, got 1-D"),
        ({"biases": np.zeros(2)}, "biases has 2 entries, expected 3"),
        ({"biases": np.zeros((3, 1))}, "biases must be 1-D, got 2-D"),
        ({"biases": np.array([0.0, np.inf, 0.0])},
         "biases holds non-finite values"),
        ({"offsets": [0, 1.7, 3]}, "offsets must be whole numbers"),
        ({"offsets": [0, 2, 1, 3]}, "offsets must be whole numbers"),
        ({"offsets": [0, 0, 3]}, "offsets must be whole numbers"),
        ({"offsets": [0, 1, 4]}, "offsets must be whole numbers"),
        ({"offsets": [0.0, np.nan, 3.0]}, "offsets must be whole numbers"),
        ({"alpha": float("inf")}, "alpha must be finite and > 0"),
        ({"alpha": True}, "alpha must be finite and > 0, got True"),
        ({"class_names": ("a", "b", "c")}, "class_names has 3 entries, "
                                           "expected 2"),
    ], ids=["weight-columns", "weight-rank", "bias-count", "bias-rank",
            "bias-inf", "fractional-offsets", "unsorted-offsets",
            "empty-block", "offsets-past-the-end", "nan-offset",
            "inf-alpha", "bool-alpha", "class-name-count"])
    def test_construction_refuses_naming_the_attribute(self, change,
                                                       message):
        # an in-memory model used to take [0, 1.7, 3] as [0, 1, 3] and
        # weights wider than the pipeline, failing only inside predict
        parts = {"weights": np.zeros((3, 4)), "biases": np.zeros(3),
                 "offsets": [0, 1, 3], "alpha": 4.0,
                 "pipeline": identity_pipeline(4)}
        parts.update(change)
        with pytest.raises(ValueError, match="^" + message):
            PlaneMixture(**parts)

    def test_whole_float_offsets_are_kept_as_integers(self):
        mdl = PlaneMixture(np.zeros((3, 2)), np.zeros(3), [0.0, 1.0, 3.0],
                           4.0, identity_pipeline(2))
        assert mdl.offsets.dtype == np.int64
        assert mdl.offsets.tolist() == [0, 1, 3]

    def test_segment_kernels_refuse_fractional_offsets(self):
        z = np.zeros((2, 3))
        for kernel in (pooled_scores, segment_responsibilities):
            with pytest.raises(ValueError, match="offsets"):
                kernel(z, np.array([0.0, 1.5, 3.0]), 2.0)

    def test_rejects_nonfinite_weights(self, rng):
        w = rng.standard_normal((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValueError):
            PlaneMixture(w, np.zeros(2), np.array([0, 1, 2]), 4.0,
                         identity_pipeline(2))


def serve_shaped_model(rng, freq=1024):
    """Two inputs lifted to 2048 random cosine features, two classes of three
    planes: the shape of the benchmark's served moons model. freq sets
    another frequency count."""
    pipe = FeaturePipeline(fit_standardizer(rng.standard_normal((64, 2))),
                           rff=sample_rff(2, freq, 0.5, seed=0))
    return PlaneMixture(rng.standard_normal((6, 2 * freq)) / 8.0,
                        rng.standard_normal(6), np.array([0, 3, 6]), 4.0, pipe)


@pytest.fixture
def block_rows(monkeypatch):
    """Row count of each lifted block the model scores, in call order."""
    rows = []

    def counting(mdl, lifted):
        rows.append(lifted.shape[0])
        return lifted_plane_scores(mdl, lifted)

    monkeypatch.setattr(model, "lifted_plane_scores", counting)
    return rows


class TestRowBlocks:
    # at 2048 lifted dims a block holds max(128, 4 MiB / (8 * 2048)) = 256
    # rows; a batch below two blocks is scored whole, and the remainder of a
    # larger one joins its last block
    @pytest.mark.parametrize("kind,n,blocks", [
        ("rff", 16384, [256] * 64), ("rff", 700, [256, 444]),
        ("rff", 511, [511]), ("rff", 1, [1]), ("linear", 5000, [5000])])
    def test_blocks_by_count_and_scores_match_one_whole_lift(
            self, rng, block_rows, kind, n, blocks):
        mdl = serve_shaped_model(rng) if kind == "rff" \
            else small_model(rng, (2, 3), dim=2)
        x = 1.5 * rng.standard_normal((n, mdl.pipeline.input_dim))
        scores = class_scores(mdl, x)
        assert block_rows == blocks
        whole = pooled_scores(lifted_plane_scores(mdl, mdl.pipeline.apply(x)),
                              mdl.offsets, mdl.alpha)
        np.testing.assert_allclose(scores, whole, rtol=1e-12)
        assert np.array_equal(predict(mdl, x), np.argmax(whole, axis=1))

    # predict's float32 pass cuts each block into sub-blocks of
    # 512 KiB / (8 * lifted_dim) rows, 32 at 2048 dims, the last one taking
    # the remainder; a block of at most that many rows is lifted whole, as
    # 200 rows are at 256 dims (256-row sub-blocks, 2048-row blocks)
    @pytest.mark.parametrize("freq,n,lifts", [
        (1024, 16384, [32] * 512), (1024, 700, [32] * 21 + [28]),
        (1024, 200, [32] * 6 + [8]), (1024, 1, [1]), (128, 200, [200]),
        (128, 1, [1])])
    def test_predict_lifts_sub_blocks_of_its_blocks(self, rng, block_rows,
                                                    freq, n, lifts):
        mdl = serve_shaped_model(rng, freq)
        x = 1.5 * rng.standard_normal((n, 2))
        labels, rescored = model.certified_predict(mdl, x)
        assert rescored.size == 0
        assert block_rows == lifts
        whole = pooled_scores(lifted_plane_scores(mdl, mdl.pipeline.apply(x)),
                              mdl.offsets, mdl.alpha)
        assert np.array_equal(labels, np.argmax(whole, axis=1))

    def test_non_finite_row_is_named_in_the_callers_numbering(
            self, rng, block_rows):
        mdl = serve_shaped_model(rng)
        x = rng.standard_normal((1000, 2))
        x[700, 1] = np.nan
        for serve in (predict, predict_proba, class_scores):
            with pytest.raises(ValueError, match="input row 700 "):
                serve(mdl, x)
        assert block_rows == []

    def test_wrong_width_is_refused_before_any_block(self, rng, block_rows):
        mdl = serve_shaped_model(rng)
        with pytest.raises(ValueError, match="expected 2 input features, "
                                             "got 3"):
            predict(mdl, rng.standard_normal((1000, 3)))
        assert block_rows == []

    def test_an_empty_batch_keeps_its_shapes(self, rng):
        mdl = serve_shaped_model(rng)
        x = np.empty((0, 2))
        assert predict(mdl, x).shape == (0,)
        assert predict_proba(mdl, x).shape == (0, 2)
        assert class_scores(mdl, x).shape == (0, 2)


class TestBatchRank:
    # a 2-input model used to fail these with an offsets error, a feature
    # width error and a numpy broadcast error
    @pytest.mark.parametrize("shape", [(4, 2, 2), (4, 3, 2), (2, 2, 6)])
    @pytest.mark.parametrize("kind", ["linear", "rff"])
    def test_a_batch_that_is_not_2d_is_refused_by_shape(self, rng, shape,
                                                        kind):
        mdl = serve_shaped_model(rng) if kind == "rff" \
            else small_model(rng, (2, 3), dim=2)
        x = rng.standard_normal(shape)
        message = r"expected a 2-D batch of rows, got shape \(%d, %d, %d\)" \
            % shape
        for serve in (predict, predict_proba, class_scores,
                      plane_responsibilities):
            with pytest.raises(ValueError, match=message):
                serve(mdl, x)
        with pytest.raises(ValueError, match=message):
            mdl.pipeline.apply(x)

    def test_a_1d_input_stays_one_row(self, rng):
        mdl = serve_shaped_model(rng)
        x = rng.standard_normal(2)
        assert predict(mdl, x).tolist() == predict(mdl, x[None, :]).tolist()
        assert np.array_equal(class_scores(mdl, x),
                              class_scores(mdl, x[None, :]))
