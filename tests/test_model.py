"""Soft-OR pooling, posteriors, and the prediction path.

The pooled class score is a temperature-controlled log-sum-exp over that
class's plane scores. Everything here checks the pooling against direct
formulas written out independently, plus the structural invariants that
make the pooling trustworthy at any temperature.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planemix import model
from planemix.calibration import TEMPERATURE_RANGE, fit_temperature
from planemix.datasets import Dataset
from planemix.features import (
    FeaturePipeline,
    fit_standardizer,
    identity_pipeline,
    sample_rff,
)
from planemix.model import (
    PlaneMixture,
    class_scores,
    lifted_plane_scores,
    log_softmax,
    plane_responsibilities,
    pooled_scores,
    posterior,
    predict,
    responsibilities,
    segment_responsibilities,
)


def direct_lse_pool(z, alpha):
    # reference implementation straight from the definition, no max trick
    return float(np.log(np.sum(np.exp(alpha * np.asarray(z)))) / alpha)


def class_score(z, alpha):
    """Soft-OR of one score vector, pooled as the one block of a one-row
    plane-score matrix."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    return float(pooled_scores(z[None, :], np.array([0, z.size]), alpha)[0, 0])


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


def reduceat_reference(mat, offsets, alpha):
    """The segment kernel as reduceat computes it along each row: block
    maxima, e = exp(alpha * (z - top)), block sums of e, pooled scores and
    responsibilities."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    top = np.maximum.reduceat(mat, starts, axis=1)
    e = np.exp(alpha * (mat - np.repeat(top, sizes, axis=1)))
    sums = np.add.reduceat(e, starts, axis=1)
    return (top, e, sums, top + np.log(sums) / alpha,
            e / np.repeat(sums, sizes, axis=1))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# zeros of both signs, ties and magnitudes near 1e300 among gaussian scores
SPECIAL_SCORES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 9.9e299])
KERNEL_ROWS = [0, 1, 2, model._MIN_COLUMN_ROWS - 1, model._MIN_COLUMN_ROWS,
               300]


def score_matrix(seed, rows, cols, fortran):
    gen = np.random.default_rng(seed)
    mat = np.where(gen.random((rows, cols)) < 0.5,
                   gen.choice(SPECIAL_SCORES, (rows, cols)),
                   gen.normal(0.0, 3.0, (rows, cols)))
    return np.asfortranarray(mat) if fortran else mat


class TestSegmentKernelBits:
    """Below model._MIN_COLUMN_ROWS rows the kernel takes reduceat along the
    rows, from there on it folds column by column; both must give
    reduceat's bits, so every model file and score stays as it was."""

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 10), min_size=1, max_size=3),
           rows=st.sampled_from(KERNEL_ROWS),
           alpha=st.sampled_from([0.5, 3.0, 6.0, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1), fortran=st.booleans())
    def test_kernel_equals_reduceat_bit_for_bit(self, sizes, rows, alpha,
                                                seed, fortran):
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        mat = score_matrix(seed, rows, offsets[-1], fortran)
        top, e, sums, pooled, resp = reduceat_reference(mat, offsets, alpha)
        got = model._segment_exp(mat, offsets, alpha)
        for want, have in zip((top, e, sums), got):
            assert same_bits(want, have)
        got_pooled = pooled_scores(mat, offsets, alpha)
        got_resp = segment_responsibilities(mat, offsets, alpha)
        assert same_bits(pooled, got_pooled) and same_bits(resp, got_resp)
        # C order, as reduceat gives: later reductions over these matrices
        # (the usage mean, the bias gradient) sum in an order set by layout
        assert got_pooled.flags.c_contiguous and got_resp.flags.c_contiguous

    @pytest.mark.parametrize("sizes", [(1, 1), (3, 3), (2, 5, 1), (9, 2)])
    def test_both_sides_of_the_row_threshold_agree(self, sizes):
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        mat = score_matrix(5, 2 * model._MIN_COLUMN_ROWS, offsets[-1], True)
        whole = model._segment_exp(mat, offsets, 4.0)
        rows = [model._segment_exp(mat[i:i + 1], offsets, 4.0)
                for i in range(mat.shape[0])]
        for k, part in enumerate(whole):
            assert same_bits(part, np.vstack([r[k] for r in rows]))

    @pytest.mark.parametrize("rows", KERNEL_ROWS)
    def test_one_pass_gives_what_the_two_kernels_give(self, rows):
        offsets = np.array([0, 2, 3, 7])
        mat = score_matrix(rows, rows, 7, True)
        pooled, resp = model._pool_and_share(
            mat, offsets, 3.0, model._plane_classes(offsets))
        assert same_bits(pooled, pooled_scores(mat, offsets, 3.0))
        assert same_bits(resp, segment_responsibilities(mat, offsets, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(classes=st.integers(1, 10), rows=st.sampled_from(KERNEL_ROWS),
           seed=st.integers(0, 2 ** 32 - 1), fortran=st.booleans())
    def test_log_softmax_equals_its_max_form(self, classes, rows, seed,
                                             fortran):
        scores = score_matrix(seed, rows, classes, fortran)
        shifted = scores - scores.max(axis=1, keepdims=True)
        want = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        assert same_bits(want, model.log_softmax(scores))

    def test_plane_scores_equal_the_row_major_product(self, rng):
        for rows, dim in [(1, 2), (7, 2), (256, 2), (300, 64), (256, 1024)]:
            mdl = small_model(rng, dim=dim)
            lifted = rng.standard_normal((rows, dim))
            assert same_bits(lifted @ mdl.weights.T + mdl.biases,
                             lifted_plane_scores(mdl, lifted))


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
        scores = class_scores(mdl, x)
        assert np.allclose(np.exp(log_softmax(scores)), posterior(scores),
                           atol=1e-12)


class TestModelSurface:
    def test_predict_is_argmax_of_scores(self, rng):
        mdl = small_model(rng)
        x = rng.standard_normal((40, 4))
        assert np.array_equal(predict(mdl, x),
                              np.argmax(class_scores(mdl, x), axis=1))

    def test_pieces_agree_with_class_scores(self, rng):
        # what demo 01 reads off a model: plane scores, their within-class
        # responsibilities, the pooled class scores and the posterior
        mdl = small_model(rng)
        x = rng.standard_normal((5, 4))
        planes = lifted_plane_scores(mdl, mdl.pipeline.apply(x))
        scores = class_scores(mdl, x)
        assert np.array_equal(scores,
                              pooled_scores(planes, mdl.offsets, mdl.alpha))
        assert np.allclose(posterior(scores).sum(axis=1), 1.0, atol=1e-12)
        resp = plane_responsibilities(mdl, x)
        assert np.array_equal(resp, segment_responsibilities(
            planes, mdl.offsets, mdl.alpha))
        for lo, hi in zip(mdl.offsets, mdl.offsets[1:]):
            assert np.allclose(resp[:, lo:hi].sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_refused_by_name(self, rng, bad):
        mdl = small_model(rng)
        x = rng.standard_normal((6, 4))
        x[3, 1], x[5, 0] = bad, np.nan
        for serve in (predict, class_scores):
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
        for serve in (predict, class_scores):
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
        assert posterior(class_scores(mdl, x)).shape == (0, 2)
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
        for serve in (predict, class_scores, plane_responsibilities):
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


@pytest.fixture(scope="module")
def moons_models():
    """Models fitted on a 600-row moons split: an RFF one (64 frequencies,
    2 planes per class) and a linear one."""
    from planemix import workflow

    data = workflow.generate_dataset("moons", n=600, seed=0)
    train, val, _ = workflow.split_dataset(data, 0)
    return {
        "rff": workflow.train_classifier(train, val, lift="rff", rff_dim=64,
                                         planes=2).model,
        "linear": workflow.train_classifier(train, val,
                                            lift="linear").model}


def range_model(kind):
    """A model on standardized moons-like rows: linear, PCA or RFF."""
    from planemix.features import PipelineConfig, build_pipeline

    gen = np.random.default_rng(11)
    train = gen.normal((0.5, 0.25), (0.9, 0.5), (200, 2))
    pipe = build_pipeline(train, PipelineConfig(
        "rff" if kind == "rff" else "linear", rff_dim=32,
        pca_variance=1.0 if kind == "pca" else None))
    return PlaneMixture(gen.standard_normal((4, pipe.output_dim)),
                        gen.standard_normal(4), np.array([0, 2, 4]), 5.0,
                        pipe)


def temperature_numbers(mdl, x):
    """Every number of evaluate_model at the smallest temperature
    fit_temperature searches, and of fit_temperature, on rows x labelled by
    the model's own predictions, whose NLL stays within float64 range."""
    from planemix import workflow

    scores = class_scores(mdl, x)
    labels = np.argmax(scores, axis=1)
    metrics = workflow.evaluate_model(mdl, Dataset(x, labels, 2),
                                      TEMPERATURE_RANGE[0])
    return [*metrics.values(),
            *dataclasses.astuple(fit_temperature(scores, labels))]


class TestFiniteInFiniteOut:
    """A finite row gets finite scores and a label, or a ValueError naming
    it; numpy's overflow warnings are errors in this suite."""

    @pytest.mark.parametrize("serve", [predict, class_scores,
                                       plane_responsibilities])
    @pytest.mark.parametrize("kind", ["rff", "linear"])
    @pytest.mark.parametrize("row", [[1.7e308, 0.0], [1.7e308, -1.7e308]])
    def test_a_row_that_overflows_after_scaling_is_refused_by_number(
            self, moons_models, kind, serve, row):
        x = np.array([[0.1, 0.2], [0.3, -0.1], row])
        with pytest.raises(ValueError, match="input row 2 is out of range"):
            serve(moons_models[kind], x)

    @pytest.mark.parametrize("kind", ["rff", "linear"])
    def test_large_rows_within_range_keep_finite_scores(self, moons_models,
                                                        kind):
        mdl = moons_models[kind]
        x = np.array([[1e300, 0.0], [1e150, 3.0], [0.3, 0.2]])
        scores = class_scores(mdl, x)
        assert np.isfinite(scores).all()
        assert predict(mdl, x).tolist() == np.argmax(scores, axis=1).tolist()

    def test_pooling_at_sharp_alpha_stays_in_range(self):
        # plane scores of 3e307 and -3e307 are finite, but pooling at
        # alpha 5 multiplies their difference by 5
        mdl = PlaneMixture(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0],
                                     [0.0, 1.0]]), np.zeros(4),
                           np.array([0, 2, 4]), 5.0, identity_pipeline(2))
        for serve in (predict, class_scores):
            with pytest.raises(ValueError, match="input row 1 is out of"):
                serve(mdl, np.array([[0.0, 1.0], [3e307, 0.0]]))
        assert np.isfinite(class_scores(mdl, np.array([[1e307, 0.0]]))).all()

    def test_a_refused_row_is_numbered_in_the_callers_batch(self, rng):
        mdl = range_model("linear")
        # two row blocks of 4 MiB // (8 * 2) rows at lifted width 2
        x = rng.standard_normal((2 ** 19 + 10, 2))
        x[-5, 0] = 1.7e308
        with pytest.raises(ValueError, match=f"input row {x.shape[0] - 5} "):
            class_scores(mdl, x)

    @settings(max_examples=120, deadline=None)
    # finite scores whose scores / 0.05 overflowed evaluate_model's nll_scaled
    @example(kind="linear", row=[0.0, 1e307])
    @example(kind="linear", row=[-1e307, 0.0])
    @given(kind=st.sampled_from(["linear", "pca", "rff"]),
           row=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=2))
    def test_any_finite_row_scores_finitely_or_is_refused(self, kind, row):
        mdl = range_model(kind)
        x = np.array([[0.2, -0.4], row])
        try:
            scores = class_scores(mdl, x)
        except ValueError as exc:
            assert str(exc).startswith("input row 1 ")
            with pytest.raises(ValueError, match="input row 1 "):
                predict(mdl, x)
            return
        assert np.isfinite(scores).all()
        assert np.isfinite(posterior(scores)).all()
        assert predict(mdl, x).tolist() == np.argmax(scores, axis=1).tolist()
        assert np.isfinite(temperature_numbers(mdl, x)).all()

    @pytest.mark.parametrize("row", [[0.0, 5e307], [-8e307, 0.0]])
    def test_temperature_scaling_keeps_accepted_rows_finite(self, row):
        # at alpha 0.5 these rows score finitely, but fit_temperature's
        # flat-score test overflowed on their span, and scores / 0.05 in
        # evaluate_model's nll_scaled
        mdl = range_model("linear").with_alpha(0.5)
        x = np.array([[0.2, -0.4], row])
        assert np.isfinite(temperature_numbers(mdl, x)).all()
