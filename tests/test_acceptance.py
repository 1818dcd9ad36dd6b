"""End-to-end checks of the advertised behavior, one test per claim.

Each test records a one-line detail string; the hook in conftest.py prints a
PASS/FAIL line per claim after the run. Tests appear in claim order. The
heavyweight fits are shared through module-scoped fixtures, so the file runs
every protocol dataset once per seed plus the ablation grid.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from planemix import bench, calibration, cli, diagnostics, persist, workflow
from planemix.datasets import Dataset
from planemix.features import identity_pipeline, sample_rff
from planemix.model import PlaneMixture, class_scores, pooled_scores, posterior
from planemix.training import TrainConfig, UsageTracker, gradients, total_loss

SEEDS = (0, 1, 2)


@dataclass
class FitCase:
    seed: int
    result: workflow.FitResult
    test: Dataset
    metrics: dict


def run_fit(dataset: str, seed: int, **kwargs) -> FitCase:
    data = workflow.generate_dataset(dataset, seed=seed)
    train, val, test = workflow.split_dataset(data, seed)
    config = kwargs.pop("config", None) or TrainConfig(seed=seed)
    result = workflow.train_classifier(train, val, config=config, **kwargs)
    metrics = workflow.evaluate_model(result.model, test,
                                      result.stored_temperature)
    return FitCase(seed, result, test, metrics)


@pytest.fixture(scope="module")
def moons_fits():
    return [run_fit("moons", s) for s in SEEDS]


@pytest.fixture(scope="module")
def circles_fits():
    return [run_fit("circles", s) for s in SEEDS]


def random_mixture(gen, dim=None, alpha=None):
    class_count = int(gen.integers(2, 4))
    per_class = gen.integers(1, 4, class_count)
    offsets = np.concatenate([[0], np.cumsum(per_class)])
    d = dim if dim is not None else int(gen.integers(2, 6))
    m = int(offsets[-1])
    a = alpha if alpha is not None else float(gen.choice([1.0, 3.0, 6.0]))
    return PlaneMixture(0.5 * gen.standard_normal((m, d)),
                        0.3 * gen.standard_normal(m),
                        offsets, a, identity_pipeline(d))


def test_analytic_gradients_match_finite_differences(record_property):
    started = time.perf_counter()
    gen = np.random.default_rng(2024)
    h, worst = 1e-5, 0.0
    checked = 0
    while checked < 50:
        mdl = random_mixture(gen)
        batch = int(gen.integers(2, 9))
        lifted = gen.standard_normal((batch, mdl.pipeline.input_dim))
        labels = gen.integers(0, mdl.class_count, batch)
        config = TrainConfig(
            alpha_start=mdl.alpha, alpha_end=mdl.alpha,
            l2=float(gen.choice([0.0, 1e-3])),
            usage_boost=float(gen.choice([0.0, 0.5])),
            label_smoothing=float(gen.choice([0.0, 0.02])), seed=0)
        tracker = UsageTracker(mdl.offsets)
        grads = gradients(lifted, labels, mdl, tracker, config)
        for arr, analytic in ((mdl.weights, grads.weights),
                              (mdl.biases, grads.biases)):
            flat = arr.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = total_loss(lifted, labels, mdl, tracker, config)
                flat[i] = keep - h
                down = total_loss(lifted, labels, mdl, tracker, config)
                flat[i] = keep
                numeric = (up - down) / (2 * h)
                err = abs(analytic.ravel()[i] - numeric) / max(abs(numeric),
                                                               1e-5)
                worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - started
    record_property("detail", f"{checked} configs, max rel err {worst:.2e}, "
                              f"{elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_single_plane_mode_recovers_logistic_regression(record_property):
    gen = np.random.default_rng(77)
    # one plane per class makes pooling the identity, so the class scores and
    # the training gradient must coincide with plain softmax regression
    grad_gap = score_gap = 0.0
    for _ in range(20):
        mdl = random_mixture(gen)
        mdl = PlaneMixture(mdl.weights[:mdl.class_count],
                           mdl.biases[:mdl.class_count],
                           np.arange(mdl.class_count + 1), 4.0, mdl.pipeline)
        batch = 16
        lifted = gen.standard_normal((batch, mdl.pipeline.input_dim))
        labels = gen.integers(0, mdl.class_count, batch)
        flat = lifted @ mdl.weights.T + mdl.biases
        score_gap = max(score_gap, np.abs(
            pooled_scores(flat, mdl.offsets, mdl.alpha) - flat).max())
        probs = posterior(flat)
        onehot = np.eye(mdl.class_count)[labels]
        config = TrainConfig(alpha_start=4.0, alpha_end=4.0, l2=0.0,
                             usage_boost=0.0, label_smoothing=0.0, seed=0)
        grads = gradients(lifted, labels, mdl, UsageTracker(mdl.offsets),
                          config)
        closed_w = (probs - onehot).T @ lifted / batch
        closed_b = (probs - onehot).mean(axis=0)
        grad_gap = max(grad_gap,
                       np.abs(grads.weights - closed_w).max(),
                       np.abs(grads.biases - closed_b).max())

    centers = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 6.0]])
    pts = np.concatenate([c + 0.5 * gen.standard_normal((200, 2))
                          for c in centers])
    labels = np.repeat(np.arange(3), 200)
    order = gen.permutation(600)
    data = Dataset(pts[order], labels[order], 3)
    train, val, test = workflow.split_dataset(data, 0)
    result = workflow.train_classifier(
        train, val, planes=1, lift="linear",
        config=TrainConfig(alpha_start=4.0, alpha_end=4.0, l2=0.0,
                           usage_boost=0.0, label_smoothing=0.0, seed=0))
    acc = workflow.evaluate_model(result.model, test)["accuracy"]
    record_property("detail", f"score gap {score_gap:.1e}, grad gap "
                              f"{grad_gap:.1e}, blob acc {acc:.4f}")
    assert score_gap <= 1e-10
    assert grad_gap <= 1e-10
    assert acc >= 0.99


def test_moons_accuracy_with_automatic_budgeting(record_property, moons_fits):
    accs = [c.metrics["accuracy"] for c in moons_fits]
    seconds = sum(c.result.train_seconds for c in moons_fits)
    record_property("detail", f"mean acc {np.mean(accs):.4f} "
                              f"({'/'.join(f'{a:.4f}' for a in accs)}), "
                              f"fit time {seconds:.0f}s")
    assert np.mean(accs) >= 0.93
    assert seconds < 120.0


def test_circles_need_the_random_feature_lift(record_property, circles_fits):
    lifted_accs = [c.metrics["accuracy"] for c in circles_fits]
    for case in circles_fits:
        assert not case.result.model.pipeline.is_linear, \
            "auto lift selection should have chosen random features"
    linear_accs = [run_fit("circles", s, planes=1, lift="linear").
                   metrics["accuracy"] for s in SEEDS]
    record_property("detail", f"lifted {np.mean(lifted_accs):.4f}, "
                              f"linear-only {np.mean(linear_accs):.4f}")
    for acc in lifted_accs:
        assert acc >= 0.98
    for acc in linear_accs:
        assert acc <= 0.60


def test_spirals_accuracy(record_property):
    accs = [run_fit("spirals", s).metrics["accuracy"] for s in SEEDS]
    record_property("detail", f"mean acc {np.mean(accs):.4f} "
                              f"({'/'.join(f'{a:.4f}' for a in accs)})")
    assert np.mean(accs) >= 0.93


def test_anisotropic_blobs_accuracy(record_property):
    accs = [run_fit("aniso", s).metrics["accuracy"] for s in SEEDS]
    record_property("detail", f"mean acc {np.mean(accs):.4f} "
                              f"({'/'.join(f'{a:.4f}' for a in accs)})")
    assert np.mean(accs) >= 0.78


def test_temperature_scaling_calibrates_probabilities(record_property,
                                                      moons_fits):
    assert calibration.ece(np.array([[0.8, 0.2], [0.4, 0.6]]),
                           np.array([0, 0])) == pytest.approx(0.4, abs=1e-12)
    test_eces = []
    for case in moons_fits:
        fit = case.result.temperature
        assert fit is not None and not fit.degenerate
        assert fit.ece_after <= fit.ece_before + 1e-12
        assert fit.nll_after <= fit.nll_before + 1e-12
        scores = class_scores(case.result.model, case.test.features)
        scaled = scores / case.result.stored_temperature
        assert np.array_equal(np.argmax(scores, axis=1),
                              np.argmax(scaled, axis=1))
        test_eces.append(case.metrics["ece_scaled"])
        assert case.metrics["ece_scaled"] <= 0.05
    record_property("detail", "post-scaling test ece "
                    + "/".join(f"{e:.4f}" for e in test_eces))


def test_responsibilities_are_sharp_and_usage_balanced(record_property,
                                                       moons_fits):
    max_resp, entropies = [], []
    for case in moons_fits:
        mdl = case.result.model
        stats = diagnostics.responsibility_stats(mdl, case.test.features,
                                                 case.test.labels)
        max_resp.append(stats.mean_max)
        entropies.append(stats.mean_entropy)
        usage = diagnostics.plane_usage(mdl, case.test.features,
                                        case.test.labels)
        for row, missing in zip(usage.fractions, usage.absent):
            if not missing:
                assert abs(row.sum() - 1.0) <= 1e-9
    record_property("detail", f"mean max resp {np.mean(max_resp):.4f}, "
                              f"mean entropy {np.mean(entropies):.4f} nats")
    assert np.mean(max_resp) >= 0.95
    assert np.mean(entropies) <= 0.10


def test_pooling_respects_the_max_bound_and_posteriors_normalize(
        record_property):
    gen = np.random.default_rng(404)
    checked, worst_gap = 0, 0.0
    while checked < 10_000:
        mdl = random_mixture(gen)
        n = int(gen.integers(1, 40))
        x = 3.0 * gen.standard_normal((n, mdl.pipeline.input_dim))
        flat = x @ mdl.weights.T + mdl.biases
        pooled = pooled_scores(flat, mdl.offsets, mdl.alpha)
        sizes = np.diff(mdl.offsets)
        tops = np.maximum.reduceat(flat, mdl.offsets[:-1], axis=1)
        assert (pooled >= tops - 1e-10).all()
        assert (pooled <= tops + np.log(sizes) / mdl.alpha + 1e-10).all()
        probs = posterior(pooled)
        gap = np.abs(probs.sum(axis=1) - 1.0).max()
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10
        assert (probs >= 0.0).all()
        checked += n
    record_property("detail", f"{checked} instances, worst normalization "
                              f"gap {worst_gap:.1e}")


def test_random_features_approximate_the_gaussian_kernel(record_property):
    gen = np.random.default_rng(55)
    gamma, n_freq, d = 0.5, 4096, 5
    rff = sample_rff(d, n_freq, gamma, seed=9)
    x = gen.standard_normal((100, d))
    y = gen.standard_normal((100, d))
    fx, fy = rff.transform(x), rff.transform(y)
    norms = (fx ** 2).sum(axis=1)
    assert np.abs(norms - 2.0).max() <= 1e-12
    approx = (fx * fy).sum(axis=1) / 2.0
    exact = np.exp(-gamma * ((x - y) ** 2).sum(axis=1))
    err = np.abs(approx - exact).mean()
    record_property("detail", f"{n_freq} frequencies, mean kernel err "
                              f"{err:.4f}")
    assert err <= 0.1


def test_inference_cost_scales_linearly_with_plane_count(record_property):
    # up to three attempts; the detail line shows every attempt's R^2, so a
    # pass that needed a retry is visible
    r_squared = []
    for attempt in range(3):
        fit = bench.latency_scaling(seed=attempt)
        r_squared.append(f"{fit.r_squared:.4f}")
        if fit.r_squared >= 0.95:
            break
    points = ", ".join(f"{p.plane_count}:{p.latency_ns:.0f}ns"
                       for p in fit.points)
    record_property("detail", f"R^2 by attempt {', '.join(r_squared)}, slope "
                              f"{fit.slope_ns:.0f} ns/plane ({points})")
    assert fit.r_squared >= 0.95


def test_ablations_do_not_beat_the_full_recipe(record_property, moons_fits,
                                               circles_fits):
    baselines = {"moons": np.mean([c.metrics["accuracy"] for c in moons_fits]),
                 "circles": np.mean([c.metrics["accuracy"]
                                     for c in circles_fits])}
    arms = {
        "fixed_sharpness": dict(config_kw=dict(alpha_start=6.0, alpha_end=6.0)),
        "no_usage_boost": dict(config_kw=dict(usage_boost=0.0)),
        "random_init": dict(init="random"),
    }
    deltas = []
    for name, spec in arms.items():
        for dataset, base in baselines.items():
            accs = []
            for seed in SEEDS:
                config = TrainConfig(seed=seed, **spec.get("config_kw", {}))
                kwargs = {k: v for k, v in spec.items() if k != "config_kw"}
                accs.append(run_fit(dataset, seed, config=config,
                                    **kwargs).metrics["accuracy"])
            delta = float(np.mean(accs) - base)
            deltas.append(f"{name}/{dataset} {delta:+.4f}")
            assert np.mean(accs) <= base + 0.005, \
                f"{name} beat the full recipe on {dataset}"
    record_property("detail", "; ".join(deltas))


def test_cli_reruns_are_bit_identical(record_property, tmp_path):
    data_csv = str(tmp_path / "data.csv")
    assert cli.main(["generate", "--dataset", "moons", "--n", "1200",
                     "--seed", "0", "--out", data_csv]) == 0
    outputs = []
    for tag in ("a", "b"):
        run = tmp_path / tag
        run.mkdir()
        model_json = str(run / "model.json")
        assert cli.main(["fit", "--dataset", data_csv, "--planes", "3",
                         "--lift", "rff", "--rff-dim", "256", "--seed", "0",
                         "--max-epochs", "60", "--out", model_json]) == 0
        metrics_csv = str(run / "metrics.csv")
        assert cli.main(["evaluate", "--model", model_json, "--dataset",
                         data_csv, "--out", metrics_csv]) == 0
        outputs.append({name: (run / name).read_bytes()
                        for name in ("model.json", "model.train_log.csv",
                                     "metrics.csv")})
    same = {name: outputs[0][name] == outputs[1][name] for name in outputs[0]}
    record_property("detail", "model/log/metrics byte-identical: "
                    + "/".join(str(v) for v in same.values()))
    assert all(same.values()), f"rerun differed in {[k for k, v in same.items() if not v]}"
