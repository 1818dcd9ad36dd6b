"""Loss, gradients, optimizer schedules, and the training loop."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.budgeting import InitSpec, auto_budget, fixed_budget, init_random
from planemix.datasets import Dataset
from planemix.features import identity_pipeline
from planemix.model import PlaneMixture
from planemix.training import (
    Grads,
    TrainConfig,
    TrainLog,
    TrainState,
    UsageTracker,
    adam_step,
    alpha_at,
    clip_global_norm,
    cross_entropy,
    fit_binary_plane,
    gradients,
    log_softmax,
    lr_at,
    optimize_planes,
    probe_train_config,
    smooth_targets,
    total_loss,
    usage_coefficients,
)
from planemix.workflow import fit

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


def toy_setup(rng, class_planes=(2, 2), n=24, dim=3, **config_kw):
    m_total = sum(class_planes)
    offsets = np.concatenate([[0], np.cumsum(class_planes)])
    mdl = PlaneMixture(0.3 * rng.standard_normal((m_total, dim)),
                       0.1 * rng.standard_normal(m_total),
                       offsets, 4.0, identity_pipeline(dim))
    lifted = rng.standard_normal((n, dim))
    labels = rng.integers(0, len(class_planes), size=n)
    tracker = UsageTracker(offsets)
    config = TrainConfig(seed=0, **config_kw)
    return mdl, lifted, labels, tracker, config


def numeric_grad(f, arr, h=1e-6):
    out = np.zeros_like(arr)
    flat = arr.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        out.ravel()[i] = (up - down) / (2 * h)
    return out


class TestTargetsAndLoss:
    def test_smoothed_rows_are_distributions(self):
        t = smooth_targets(np.array([0, 2, 1]), 3, 0.1)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-15)
        assert t[0, 0] == pytest.approx(0.9 + 0.1 / 3)
        assert t[0, 1] == pytest.approx(0.1 / 3)

    def test_zero_smoothing_is_one_hot(self):
        t = smooth_targets(np.array([1, 0]), 2, 0.0)
        assert np.array_equal(t, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_log_softmax_rows_normalize(self, rng):
        s = rng.standard_normal((10, 4)) * 30
        lp = log_softmax(s)
        assert np.allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)

    def test_cross_entropy_matches_manual_formula(self, rng):
        s = rng.standard_normal((6, 3))
        t = smooth_targets(rng.integers(0, 3, 6), 3, 0.05)
        manual = -(t * log_softmax(s)).sum(axis=1).mean()
        assert cross_entropy(s, t) == pytest.approx(manual, abs=1e-12)

    def test_confident_correct_scores_give_near_zero_loss(self):
        s = np.array([[60.0, 0.0], [0.0, 60.0]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(s, t) == pytest.approx(0.0, abs=1e-12)

    def test_sample_weights_scale_each_term_of_the_mean(self, rng):
        # weighted samples scale their terms; the divisor stays the batch
        # size, matching the gradient convention
        s = rng.standard_normal((4, 2))
        t = smooth_targets(np.array([0, 0, 1, 1]), 2, 0.0)
        w = np.array([2.0, 2.0, 1.0, 1.0])
        per = -(t * log_softmax(s)).sum(axis=1)
        assert cross_entropy(s, t, w) == pytest.approx((w * per).mean(),
                                                       abs=1e-12)

    def test_nonfinite_scores_are_rejected(self):
        s = np.array([[np.inf, 0.0]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                cross_entropy(s, np.array([[1.0, 0.0]]))


class TestUsagePenalty:
    def test_coefficient_formula(self):
        usage = np.array([0.5, 0.1])
        got = usage_coefficients(usage, l2=1e-2, usage_boost=0.5,
                                 usage_floor=1e-3)
        want = 1e-2 * (1.0 + 0.5 / (usage + 1e-3))
        assert np.allclose(got, want, atol=1e-15)

    def test_zero_boost_is_flat_ridge(self):
        got = usage_coefficients(np.array([0.9, 0.01]), 1e-3, 0.0, 1e-3)
        assert np.allclose(got, 1e-3, atol=1e-18)

    def test_idle_planes_pay_more(self):
        coeffs = usage_coefficients(np.array([0.05, 0.95]), 1e-3, 0.5, 1e-3)
        assert coeffs[0] > coeffs[1]

    def test_tracker_starts_uniform_within_each_class(self):
        tracker = UsageTracker(np.array([0, 2, 5]))
        assert np.allclose(tracker.usage[:2], 0.5)
        assert np.allclose(tracker.usage[2:], 1.0 / 3.0)

    def test_tracker_blend_uses_momentum(self):
        tracker = UsageTracker(np.array([0, 2]), momentum=0.9)
        before = tracker.usage.copy()
        batch = np.array([0.8, 0.2])
        tracker.update(batch)
        assert np.allclose(tracker.usage, 0.9 * before + 0.1 * batch,
                           atol=1e-15)


class TestGradients:
    def test_matches_central_differences(self, rng):
        mdl, lifted, labels, tracker, config = toy_setup(
            rng, l2=1e-3, usage_boost=0.5, label_smoothing=0.02)
        g = gradients(lifted, labels, mdl, tracker, config)

        def loss_now():
            return total_loss(lifted, labels, mdl, tracker, config)

        num_w = numeric_grad(loss_now, mdl.weights)
        num_b = numeric_grad(loss_now, mdl.biases)
        assert np.allclose(g.weights, num_w, atol=1e-6)
        assert np.allclose(g.biases, num_b, atol=1e-6)

    def test_matches_central_differences_with_class_weights(self, rng):
        mdl, lifted, labels, tracker, config = toy_setup(
            rng, class_weights=(0.3, 1.7), l2=1e-3)
        g = gradients(lifted, labels, mdl, tracker, config)

        def loss_now():
            return total_loss(lifted, labels, mdl, tracker, config)

        assert np.allclose(g.weights, numeric_grad(loss_now, mdl.weights),
                           atol=1e-6)

    def test_single_plane_classes_give_softmax_regression_gradient(self, rng):
        mdl, lifted, labels, tracker, config = toy_setup(
            rng, class_planes=(1, 1, 1), l2=0.0, usage_boost=0.0,
            label_smoothing=0.0)
        g = gradients(lifted, labels, mdl, tracker, config)
        scores = lifted @ mdl.weights.T + mdl.biases
        probs = np.exp(log_softmax(scores))
        onehot = np.eye(3)[labels]
        closed_w = (probs - onehot).T @ lifted / len(labels)
        closed_b = (probs - onehot).mean(axis=0)
        assert np.allclose(g.weights, closed_w, atol=1e-12)
        assert np.allclose(g.biases, closed_b, atol=1e-12)

    def test_biases_are_never_penalized(self, rng):
        # crank the ridge: bias gradient must not move with it
        mdl, lifted, labels, tracker, config = toy_setup(rng, l2=0.0)
        g0 = gradients(lifted, labels, mdl, UsageTracker(mdl.offsets), config)
        heavy = TrainConfig(seed=0, l2=10.0)
        g1 = gradients(lifted, labels, mdl, UsageTracker(mdl.offsets), heavy)
        assert np.allclose(g0.biases, g1.biases, atol=1e-12)
        assert not np.allclose(g0.weights, g1.weights)


class TestClipAndSchedules:
    def test_norm_above_threshold_rescales_everything(self, rng):
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        joint = np.sqrt((w ** 2).sum() + (b ** 2).sum())
        clipped = clip_global_norm(Grads(w.copy(), b.copy()), joint / 2)
        ratio = clipped.weights / w
        assert np.allclose(ratio, 0.5, atol=1e-12)
        assert np.allclose(clipped.biases / b, 0.5, atol=1e-12)

    def test_norm_below_threshold_is_untouched(self, rng):
        w = 0.01 * rng.standard_normal((2, 2))
        b = 0.01 * rng.standard_normal(2)
        clipped = clip_global_norm(Grads(w.copy(), b.copy()), 5.0)
        assert np.array_equal(clipped.weights, w)
        assert np.array_equal(clipped.biases, b)

    def test_cosine_schedule_endpoints(self):
        assert lr_at("cosine", 0.01, 0, 100) == pytest.approx(0.01)
        assert lr_at("cosine", 0.01, 100, 100) == pytest.approx(0.0, abs=1e-12)
        assert lr_at("cosine", 0.01, 50, 100) == pytest.approx(0.005)

    def test_exponential_schedule_decays_by_097(self):
        assert lr_at("exponential", 0.01, 0, 100) == pytest.approx(0.01)
        assert lr_at("exponential", 0.01, 10, 100) == pytest.approx(
            0.01 * 0.97 ** 10)

    def test_constant_schedule(self):
        assert lr_at("constant", 0.01, 73, 100) == 0.01

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            lr_at("polynomial", 0.01, 0, 100)

    def test_sharpness_ramps_over_the_first_half(self):
        config = TrainConfig(alpha_start=3.0, alpha_end=6.0)
        assert alpha_at(config, 0, 100) == pytest.approx(3.0)
        assert alpha_at(config, 25, 100) == pytest.approx(4.5)
        assert alpha_at(config, 50, 100) == pytest.approx(6.0)
        assert alpha_at(config, 99, 100) == pytest.approx(6.0)

    def test_flat_sharpness_when_start_equals_end(self):
        config = TrainConfig(alpha_start=6.0, alpha_end=6.0)
        for epoch in (0, 10, 99):
            assert alpha_at(config, epoch, 100) == 6.0


class TestAdam:
    def test_matches_reference_implementation(self, rng):
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        state = TrainState.fresh(w.copy(), b.copy())
        ref_w, ref_b = w.copy(), b.copy()
        m_w = np.zeros_like(w); v_w = np.zeros_like(w)
        m_b = np.zeros_like(b); v_b = np.zeros_like(b)
        for t in range(1, 4):
            gw = rng.standard_normal((2, 3))
            gb = rng.standard_normal(2)
            state = adam_step(state, Grads(gw, gb), lr=0.05)
            m_w = ADAM_B1 * m_w + (1 - ADAM_B1) * gw
            v_w = ADAM_B2 * v_w + (1 - ADAM_B2) * gw ** 2
            m_b = ADAM_B1 * m_b + (1 - ADAM_B1) * gb
            v_b = ADAM_B2 * v_b + (1 - ADAM_B2) * gb ** 2
            mhat_w = m_w / (1 - ADAM_B1 ** t)
            vhat_w = v_w / (1 - ADAM_B2 ** t)
            mhat_b = m_b / (1 - ADAM_B1 ** t)
            vhat_b = v_b / (1 - ADAM_B2 ** t)
            ref_w -= 0.05 * mhat_w / (np.sqrt(vhat_w) + ADAM_EPS)
            ref_b -= 0.05 * mhat_b / (np.sqrt(vhat_b) + ADAM_EPS)
        assert np.allclose(state.weights, ref_w, atol=1e-12)
        assert np.allclose(state.biases, ref_b, atol=1e-12)
        assert state.step == 3


class TestTrainingLoop:
    def separable(self, rng, n=60):
        half = n // 2
        feats = np.vstack([rng.normal((-2, 0), 0.3, (half, 2)),
                           rng.normal((2, 0), 0.3, (half, 2))])
        labels = np.repeat([0, 1], half)
        order = rng.permutation(n)
        return feats[order], labels[order]

    def test_loss_improves_and_best_snapshot_is_kept(self, rng):
        xtr, ytr = self.separable(rng)
        xva, yva = self.separable(rng)
        init = init_random(xtr, ytr, fixed_budget(2, 2), seed=0)
        config = TrainConfig(seed=0, max_epochs=40, batch_size=16)
        weights, biases, log = optimize_planes(
            xtr, ytr, xva, yva, init.weights, init.biases, init.offsets,
            config)
        assert log.epochs[-1].val_loss <= log.epochs[0].val_loss
        # snapshots advance only on improvements beyond the minimum, so the
        # kept loss may trail the true minimum by at most that margin
        floor = min(r.val_loss for r in log.epochs)
        assert floor <= log.best_val_loss <= floor + config.min_improvement
        assert np.isfinite(weights).all() and np.isfinite(biases).all()

    def test_early_stopping_fires_on_a_plateau(self, rng):
        xtr, ytr = self.separable(rng)
        init = init_random(xtr, ytr, fixed_budget(2, 1), seed=0)
        config = TrainConfig(seed=0, max_epochs=300, patience=5,
                             batch_size=32)
        _, _, log = optimize_planes(xtr, ytr, xtr, ytr, init.weights,
                                    init.biases, init.offsets, config)
        assert log.stopped_early
        assert len(log.epochs) < 300

    def test_divergence_is_flagged_and_parameters_stay_finite(self, rng):
        # pooled scores are overflow-proof, so true divergence needs the
        # parameters themselves to leave float range; a colossal step rate
        # sends the ridge term to infinity within a couple of epochs
        xtr, ytr = self.separable(rng)
        init = init_random(xtr, ytr, fixed_budget(2, 1), seed=0)
        config = TrainConfig(seed=0, max_epochs=10, learning_rate=1e155,
                             clip_norm=1e12, batch_size=32)
        with np.errstate(over="ignore"):
            weights, biases, log = optimize_planes(
                xtr, ytr, xtr, ytr, init.weights, init.biases, init.offsets,
                config)
        assert log.diverged
        assert np.isfinite(weights).all() and np.isfinite(biases).all()

    def test_fit_on_blobs_reaches_high_accuracy(self, tiny_blobs, rng):
        from planemix.model import predict

        pipe = identity_pipeline(2)
        config = TrainConfig(seed=0, max_epochs=80, batch_size=16)
        mdl, log = fit(tiny_blobs, tiny_blobs, pipe, 1, InitSpec(seed=0),
                       config)
        acc = (predict(mdl, tiny_blobs.features) == tiny_blobs.labels).mean()
        assert acc >= 0.95
        assert mdl.alpha == config.alpha_end
        assert not log.diverged

    def test_every_step_calls_the_module_adam_step(self, rng, monkeypatch):
        # the benchmark counts steps by wrapping training.adam_step
        from planemix import training

        calls = []
        monkeypatch.setattr(training, "adam_step",
                            lambda *a: calls.append(1) or adam_step(*a))
        xtr, ytr = self.separable(rng, n=50)
        init = init_random(xtr, ytr, fixed_budget(2, 2), seed=0)
        config = TrainConfig(seed=0, max_epochs=3, patience=3, batch_size=16)
        _, _, log = optimize_planes(xtr, ytr, xtr, ytr, init.weights,
                                    init.biases, init.offsets, config)
        assert len(calls) == len(log.epochs) * 4

    def test_fit_constants_give_the_targets_and_weights_of_each_row(self,
                                                                    rng):
        from planemix.training import _FitConstants

        config = TrainConfig(seed=0, label_smoothing=0.07,
                             class_weights=(0.5, 2.0, 1.25))
        constants = _FitConstants.build([0, 2, 3, 6], 6, config)
        labels = rng.integers(0, 3, size=40)
        assert constants.targets(labels).tobytes() == smooth_targets(
            labels, 3, 0.07).tobytes()
        assert constants.sample_weights(labels).tobytes() == np.asarray(
            config.class_weights)[labels].tobytes()
        assert constants.plane_class.tolist() == [0, 0, 1, 2, 2, 2]
        assert _FitConstants.build([0, 1, 2], 2, TrainConfig()).sample_weights(
            labels) is None

    def test_binary_plane_fitter_separates_blobs(self, rng):
        x = np.vstack([rng.normal((-2, 0), 0.3, (40, 2)),
                       rng.normal((2, 0), 0.3, (40, 2))])
        y = np.repeat([0, 1], 40)
        w, b = fit_binary_plane(x, y, seed=0)
        pred = (x @ w + b > 0).astype(int)
        assert (pred == y).mean() > 0.95


class TestTrainLogExport:
    @pytest.mark.parametrize("changes", [{}, {"alpha_end": 6}],
                             ids=["default", "int-alpha-end"])
    def test_csv_header_and_parsable_floats(self, tmp_path, rng, changes):
        xtr, ytr = TestTrainingLoop().separable(rng)
        init = init_random(xtr, ytr, fixed_budget(2, 1), seed=0)
        config = TrainConfig(seed=0, max_epochs=5, batch_size=32, **changes)
        _, _, log = optimize_planes(xtr, ytr, xtr, ytr, init.weights,
                                    init.biases, init.offsets, config)
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("epoch,train_loss,val_loss,alpha,lr,"
                            "usage_min,usage_max")
        first = lines[1].split(",")
        assert int(first[0]) == 0
        for cell in first[1:]:
            float(cell)
        # every column but epoch is written as a float, an int alpha too
        assert lines[-1].split(",")[3] == "6.0"

    def test_csv_rows_read_back_every_record_field(self, tmp_path, rng):
        xtr, ytr = TestTrainingLoop().separable(rng)
        init = init_random(xtr, ytr, fixed_budget(2, 1), seed=0)
        config = TrainConfig(seed=0, max_epochs=3, batch_size=32)
        _, _, log = optimize_planes(xtr, ytr, xtr, ytr, init.weights,
                                    init.biases, init.offsets, config)
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(log.epochs)
        for row, record in zip(rows, log.epochs):
            assert {k: float(v) for k, v in row.items()} == \
                dataclasses.asdict(record)


def test_probe_config_is_short_and_flat_sharpness():
    probe = probe_train_config(seed=3)
    assert probe.alpha_start == probe.alpha_end
    assert probe.max_epochs < TrainConfig().max_epochs
    assert probe.seed == 3


class TestConfigValidation:
    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 1.5, float("nan")])
    def test_usage_momentum_must_lie_in_unit_interval(self, momentum):
        with pytest.raises(ValueError, match="usage_momentum"):
            TrainConfig(usage_momentum=momentum)

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0, -2.0),
                                         (1.0, float("nan")),
                                         (float("inf"), 1.0), (1.0, True)])
    def test_class_weights_must_be_finite_and_positive(self, weights):
        # the error names the bad entry; a bool weight used to be taken as 1
        entry = 0 if weights[0] == float("inf") else 1
        with pytest.raises(ValueError, match=rf"^class_weights\[{entry}\] "
                                             r"must be finite and > 0, got "):
            TrainConfig(class_weights=weights)

    @pytest.mark.parametrize("weights", [1.0, "1,2", np.array([1.0, 2.0])])
    def test_class_weights_must_be_a_tuple_or_list(self, weights):
        # a float raised "'float' object is not iterable", naming no field
        with pytest.raises(ValueError, match="^class_weights must be a tuple "
                                             "or list of numbers, got "):
            TrainConfig(class_weights=weights)

    @pytest.mark.parametrize("name", ["alpha_start", "alpha_end", "l2",
                                      "usage_boost", "usage_floor",
                                      "label_smoothing", "min_improvement",
                                      "clip_norm"])
    def test_nan_is_refused_naming_the_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            TrainConfig(**{name: float("nan")})

    @pytest.mark.parametrize("name,value", [
        ("usage_floor", float("inf")), ("alpha_end", float("inf")),
        ("l2", float("inf")), ("min_improvement", float("-inf")),
        ("alpha_start", 0.0), ("alpha_end", -1.0), ("usage_boost", -0.5),
        ("batch_size", 0), ("patience", 0), ("batch_size", 2.5),
        ("max_epochs", 2.5), ("patience", 1.5), ("seed", -1), ("seed", 1.5),
        ("batch_size", True), ("seed", False), ("learning_rate", True),
        ("l2", "1")])
    def test_out_of_range_value_is_refused_naming_the_field(self, name,
                                                            value):
        # a bool used to be stored as 1, 0 or True, and l2="1" raised a
        # TypeError
        with pytest.raises(ValueError, match=f"^{name} "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("clip", [0.0, -1.0, float("inf")])
    def test_clip_norm_off_switches_stay_accepted(self, clip):
        assert TrainConfig(clip_norm=clip).clip_norm == clip

    def test_class_weight_count_is_checked_before_lift_probing(
            self, tiny_blobs, monkeypatch):
        from planemix import features, workflow

        def no_probing(*args, **kwargs):
            raise AssertionError("lift probing ran before the config check")

        monkeypatch.setattr(features, "select_lift", no_probing)
        train, val, _ = workflow.split_dataset(tiny_blobs, seed=0)
        with pytest.raises(ValueError, match="class_weights has 2 entries "
                                             "for 3 classes"):
            workflow.train_classifier(
                train, val, config=TrainConfig(class_weights=(1.0, 2.0)))


    @pytest.mark.parametrize("kwargs,field", [
        ({"planes_cap": 0}, "planes_cap"), ({"rff_dim": 0}, "rff_dim"),
        ({"planes": "three"}, "planes"), ({"planes": 2.5}, "planes"),
        ({"planes": 0}, "planes"), ({"pca_variance": 1.5}, "pca_variance"),
        ({"pca_variance": 0.0}, "pca_variance"),
        ({"lift": "rff", "pca_variance": float("nan")}, "pca_variance"),
        ({"init": "bogus"}, "init"), ({"init_noise": float("nan")}, "init_noise"),
        ({"init_noise": -1.0}, "init_noise"), ({"planes_cap": 2.5}, "planes_cap"),
        ({"rff_dim": 2.5}, "rff_dim"), ({"lift": "bogus"}, "lift"),
        ({"rff_gamma": float("nan")}, "rff_gamma"),
        ({"lift": "linear", "rff_gamma": float("nan")}, "rff_gamma"),
        ({"lift": "rff", "rff_gamma": 0.0}, "rff_gamma"),
        ({"rff_gamma": float("inf")}, "rff_gamma"),
        ({"rff_gamma": True}, "rff_gamma"),
        ({"init_noise": True}, "init_noise")])
    def test_budget_and_lift_arguments_are_checked_before_lift_probing(
            self, tiny_blobs, monkeypatch, kwargs, field):
        # each used to fail only after all five lift probes had run
        from planemix import features, workflow

        def no_probing(*args, **kwargs):
            raise AssertionError("lift probing ran before the argument check")

        monkeypatch.setattr(features, "select_lift", no_probing)
        train, val, _ = workflow.split_dataset(tiny_blobs, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must"):
            workflow.train_classifier(train, val, **kwargs)

    def test_an_unknown_lift_names_every_lift(self, tiny_blobs):
        from planemix import workflow

        train, val, _ = workflow.split_dataset(tiny_blobs, seed=0)
        with pytest.raises(ValueError) as err:
            workflow.train_classifier(train, val, lift="bogus")
        assert str(err.value) == ("lift must be one of ('auto', 'linear', "
                                  "'rff'), got 'bogus'")

    def test_a_whole_float_planes_cap_fits(self, tiny_blobs):
        # 2.0 passed the whole-number check, then failed in the budget's range
        from planemix import workflow

        train, val, _ = workflow.split_dataset(tiny_blobs, seed=0)
        result = workflow.train_classifier(
            train, val, lift="linear", planes_cap=2.0,
            config=TrainConfig(seed=0, max_epochs=2))
        assert result.budget.cap == 2
        assert max(result.model.planes_per_class) <= 2


def test_log_softmax_stays_importable_from_training():
    from planemix import model

    assert log_softmax is model.log_softmax


class TestFitRecipe:
    @pytest.mark.parametrize("lift,fits", [("rff", 1), ("auto", 6)])
    def test_each_fit_lifts_its_training_rows_once(self, monkeypatch, lift,
                                                    fits):
        # a default fit probes five candidate lifts, then trains the winner
        from planemix import features, workflow
        from planemix.datasets import make_moons

        train, val, _ = workflow.split_dataset(make_moons(300, 0.25, seed=0),
                                               seed=0)
        original = features.FeaturePipeline.apply
        train_lifts = []

        def counting_apply(self, x):
            if np.shape(x) == train.features.shape \
                    and np.array_equal(x, train.features):
                train_lifts.append(self)
            return original(self, x)

        monkeypatch.setattr(features.FeaturePipeline, "apply", counting_apply)
        workflow.train_classifier(train, val, lift=lift,
                                  config=TrainConfig(seed=0))
        assert len(train_lifts) == fits

    def test_auto_planes_are_the_budget_seeded_by_the_init_spec(
            self, tiny_blobs):
        # on these blobs the budget at seed 4 is (2, 2, 2) and at seed 0,
        # the config's seed, (3, 3, 2)
        pipe = identity_pipeline(2)
        mdl, _ = fit(tiny_blobs, tiny_blobs, pipe, "auto", InitSpec(seed=4),
                     TrainConfig(seed=0, max_epochs=2), planes_cap=3)
        budget = auto_budget(pipe.apply(tiny_blobs.features),
                             tiny_blobs.labels, 3, cap=3, seed=4)
        assert tuple(mdl.planes_per_class) == budget.per_class


FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)
                if f.type == "float"]
INT_FIELDS = ["batch_size", "max_epochs", "patience"]


@given(st.fixed_dictionaries({}, optional={
    **{name: st.floats() for name in FLOAT_FIELDS},
    **{name: st.integers(-2, 3) for name in INT_FIELDS}}))
@settings(max_examples=300, deadline=None)
def test_config_builds_or_names_the_field_at_fault(values):
    try:
        config = TrainConfig(**values)
    except ValueError as exc:
        assert str(exc).split()[0] in values
    else:
        for name in FLOAT_FIELDS:
            value = getattr(config, name)
            assert not math.isnan(value)
            assert name == "clip_norm" or math.isfinite(value)
