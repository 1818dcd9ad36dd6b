"""Soft-OR pooling, posteriors, and the prediction path.

The pooled class score is a temperature-controlled log-sum-exp over that
class's plane scores. Everything here checks the pooling against direct
formulas written out independently, plus the structural invariants that
make the pooling trustworthy at any temperature.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.features import identity_pipeline
from planemix.model import (
    PlaneMixture,
    class_score,
    class_scores,
    forward,
    log_posterior,
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

    def test_rejects_nonfinite_weights(self, rng):
        w = rng.standard_normal((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValueError):
            PlaneMixture(w, np.zeros(2), np.array([0, 1, 2]), 4.0,
                         identity_pipeline(2))
