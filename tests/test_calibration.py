"""Metrics, binned calibration error, and temperature fitting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.calibration import (
    TemperatureFit,
    accuracy,
    apply_temperature,
    ece,
    fit_temperature,
    macro_f1,
    nll,
    reliability_data,
    scaled_scores,
)


class TestBasicMetrics:
    def test_accuracy_counts_matches(self):
        assert accuracy(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.75

    def test_macro_f1_hand_example(self):
        # class 0: tp=2 fp=1 fn=0 -> f1 = 2*2/(2*2+1+0) = 0.8
        # class 1: tp=1 fp=0 fn=1 -> f1 = 2*1/(2*1+0+1) = 2/3
        preds = np.array([0, 0, 0, 1])
        labels = np.array([0, 0, 1, 1])
        assert macro_f1(preds, labels, 2) == pytest.approx(
            (0.8 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_macro_f1_absent_class_scores_zero(self):
        # class 2 never appears in labels or predictions: counts as 0
        preds = np.array([0, 1])
        labels = np.array([0, 1])
        assert macro_f1(preds, labels, 3) == pytest.approx(2.0 / 3.0,
                                                           abs=1e-12)

    def test_nll_matches_manual_log_softmax(self, rng):
        scores = rng.standard_normal((8, 3))
        labels = rng.integers(0, 3, 8)
        shifted = scores - scores.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        manual = -logp[np.arange(8), labels].mean()
        assert nll(scores, labels) == pytest.approx(manual, abs=1e-12)


@pytest.mark.parametrize("metric,name", [
    (nll, "scores"), (fit_temperature, "scores"), (ece, "probs"),
    (reliability_data, "probs")],
    ids=["nll", "fit_temperature", "ece", "reliability_data"])
def test_metrics_refuse_zero_rows_naming_the_array(metric, name):
    # nll used to return NaN and fit_temperature to leak "Mean of empty
    # slice" before a ZeroDivisionError, which ece raised too
    with pytest.raises(ValueError, match=f"^{name} must be "):
        metric(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


class TestEce:
    def test_two_sample_hand_example_is_exactly_04(self):
        # one confident-right at 0.8, one confident-wrong at 0.6; the bins
        # each hold half the mass: 0.5*|1 - 0.8| + 0.5*|0 - 0.6| = 0.4
        probs = np.array([[0.8, 0.2], [0.4, 0.6]])
        labels = np.array([0, 0])
        assert ece(probs, labels) == pytest.approx(0.4, abs=1e-12)

    def test_perfectly_calibrated_halves_score_zero_gap(self):
        # a large sample where confidence 0.75 comes with 75% accuracy
        n = 4000
        probs = np.full((n, 2), [0.75, 0.25])
        labels = np.zeros(n, dtype=int)
        labels[: n // 4] = 1
        assert ece(probs, labels) == pytest.approx(0.0, abs=1e-12)

    def test_full_confidence_lands_in_the_last_bin(self):
        probs = np.array([[1.0, 0.0]])
        labels = np.array([0])
        stats = reliability_data(probs, labels)
        assert stats[-1].count == 1
        assert sum(b.count for b in stats) == 1

    def test_fifteen_fixed_width_bins(self):
        stats = reliability_data(np.array([[0.6, 0.4]]), np.array([0]))
        assert len(stats) == 15
        widths = [b.high - b.low for b in stats]
        assert np.allclose(widths, 1.0 / 15.0, atol=1e-12)

    def test_bin_members_average_their_confidence(self):
        probs = np.array([[0.62, 0.38], [0.64, 0.36], [0.9, 0.1]])
        labels = np.array([0, 1, 0])
        stats = reliability_data(probs, labels)
        filled = [b for b in stats if b.count]
        # 0.62 and 0.64 share a bin (width 1/15); 0.9 sits alone
        assert filled[0].count == 2
        assert filled[0].mean_confidence == pytest.approx(0.63, abs=1e-12)
        assert filled[0].accuracy == pytest.approx(0.5, abs=1e-12)
        assert filled[1].count == 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_always_in_unit_interval(self, seed):
        gen = np.random.default_rng(seed)
        scores = gen.standard_normal((50, 3)) * 3
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        labels = gen.integers(0, 3, 50)
        assert 0.0 <= ece(probs, labels) <= 1.0


class TestTemperature:
    def overconfident_scores(self, rng, n=600):
        # train-style scores scaled up so confidence outruns accuracy
        labels = rng.integers(0, 2, n)
        margins = rng.normal(1.0, 1.2, n)
        scores = np.zeros((n, 2))
        scores[np.arange(n), labels] = margins * 4.0
        return scores, labels

    def test_apply_temperature_divides_scores(self, rng):
        s = rng.standard_normal((5, 3))
        p = apply_temperature(s, 2.0)
        e = np.exp(s / 2.0 - (s / 2.0).max(axis=1, keepdims=True))
        assert np.allclose(p, e / e.sum(axis=1, keepdims=True), atol=1e-12)

    @pytest.mark.parametrize("row,temperature", [
        ([5e307, -5e307], 0.05), ([6e307, -6e307], 0.6)],
        ids=["scores-overflow", "span-overflows"])
    def test_huge_finite_scores_keep_a_finite_posterior(self, row,
                                                        temperature):
        # 5e307 / 0.05 overflows, and so does the span of 6e307 / 0.6 that
        # the softmax subtracts; the row's posterior is still (1, 0)
        s = np.array([row, [0.3, 0.1]])
        p = apply_temperature(s, temperature)
        assert p[0].tolist() == [1.0, 0.0]
        assert p[1].tobytes() == \
            apply_temperature(s[1:], temperature)[0].tobytes()

    def test_scaled_scores_shift_only_the_rows_that_need_it(self, rng):
        # the span of 6e307 / 0.6 leaves float64 range, so that row is
        # shifted by its largest score; the others are divided as they are
        s = rng.standard_normal((4, 2))
        s[2] = [6e307, -6e307]
        scaled = scaled_scores(s, 0.6)
        rest = [0, 1, 3]
        assert scaled[rest].tobytes() == (s[rest] / 0.6).tobytes()
        assert scaled[2].tolist() == [0.0, -np.inf]

    def test_fit_stays_finite_on_a_span_beyond_float64_range(self):
        # the first row's span, 1.3e308, is finite, but divided by any
        # T < 1 the search tries it is not
        scores = np.array([[5e307, -8e307], [0.3, 0.1], [-0.2, 0.4]])
        fit = fit_temperature(scores, np.array([0, 1, 1]))
        assert np.isfinite(dataclasses.astuple(fit)[:5]).all()
        assert not fit.degenerate

    @pytest.mark.parametrize("temperature",
                             [0.0, float("nan"), float("inf"), True])
    def test_temperature_must_be_positive(self, rng, temperature):
        with pytest.raises(ValueError, match="^temperature must be finite"):
            apply_temperature(rng.standard_normal((2, 2)), temperature)

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_any_temperature_preserves_argmax(self, temp, seed):
        gen = np.random.default_rng(seed)
        s = gen.standard_normal((20, 4))
        before = np.argmax(s, axis=1)
        after = np.argmax(apply_temperature(s, temp), axis=1)
        assert np.array_equal(before, after)

    def test_fitting_overconfident_scores_warms_them_up(self, rng):
        scores, labels = self.overconfident_scores(rng)
        fit = fit_temperature(scores, labels)
        assert isinstance(fit, TemperatureFit)
        assert fit.temperature > 1.0
        assert fit.nll_after <= fit.nll_before + 1e-12
        assert not fit.degenerate

    def test_fit_never_worsens_validation_nll(self, rng):
        # near-calibrated scores: the safeguard may keep T = 1 but must
        # never accept a regression
        labels = rng.integers(0, 2, 400)
        scores = np.zeros((400, 2))
        scores[np.arange(400), labels] = rng.normal(0.5, 0.8, 400)
        fit = fit_temperature(scores, labels)
        assert fit.nll_after <= fit.nll_before + 1e-12

    def test_constant_score_rows_are_flagged_degenerate(self):
        scores = np.zeros((10, 3))
        labels = np.zeros(10, dtype=int)
        fit = fit_temperature(scores, labels)
        assert fit.degenerate
        assert fit.temperature == 1.0

    def test_fitted_temperature_stays_inside_search_bracket(self, rng):
        scores, labels = self.overconfident_scores(rng)
        fit = fit_temperature(scores, labels)
        assert 0.05 <= fit.temperature <= 20.0
