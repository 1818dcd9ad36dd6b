"""Standardizer, PCA, random feature lift, and pipeline composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.datasets import Dataset, make_circles, split_dataset
from planemix.features import (
    AUTO_GAMMA_GRID,
    FINAL_RFF_DIM,
    FeaturePipeline,
    PcaMap,
    PipelineConfig,
    RffMap,
    Standardizer,
    build_pipeline,
    default_lift_candidates,
    fit_pca,
    fit_standardizer,
    identity_pipeline,
    sample_rff,
    select_lift,
)
from planemix.training import probe_train_config


class TestStandardizer:
    def test_transform_centers_and_scales(self, rng):
        x = rng.normal(3.0, 5.0, size=(500, 4))
        std = fit_standardizer(x)
        z = std.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_matches_population_moments(self, rng):
        x = rng.standard_normal((40, 3))
        std = fit_standardizer(x)
        assert np.allclose(std.mean, x.mean(axis=0))
        assert np.allclose(std.scale, x.std(axis=0))

    @pytest.mark.parametrize("x,message", [
        ([[0.0, 1.0], [1e200, 1.0], [2.0, 2.0]],
         "^train row 1, column 0 is too large to standardize$"),
        ([[0.0, 1.0], [1.0, 1.7e308], [2.0, 1.7e308]],
         "^train row 1, column 1 is too large to standardize$"),
        ([[0.0, 1.0], [1.0, np.inf], [2.0, 2.0]],
         "^train row 1, column 1 holds a non-finite value$")],
        ids=["square-overflows", "sum-overflows", "infinite"])
    def test_a_column_it_cannot_scale_is_refused_by_row_and_column(
            self, x, message):
        # the finite 1e200 cell used to leak numpy's "overflow encountered
        # in square", and Standardizer then named no row or column
        with pytest.raises(ValueError, match=message):
            fit_standardizer(np.array(x))

    def test_constant_column_does_not_blow_up(self):
        x = np.column_stack([np.full(50, 2.5), np.arange(50.0)])
        std = fit_standardizer(x)
        z = std.transform(x)
        assert std.scale[0] == 1.0
        assert np.allclose(z[:, 0], 0.0)
        assert np.isfinite(z).all()


class TestPca:
    def test_components_are_orthonormal(self, rng):
        x = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
        std = fit_standardizer(x)
        pca = fit_pca(std.transform(x), 0.9)
        r = pca.components.shape[1]
        assert np.allclose(pca.components.T @ pca.components, np.eye(r),
                           atol=1e-10)

    def test_full_variance_keeps_every_direction(self, rng):
        x = rng.standard_normal((100, 5))
        pca = fit_pca(x, 1.0)
        assert pca.components.shape == (5, 5)

    def test_retained_rank_matches_eigenvalue_tally(self, rng):
        # one dominant direction, the rest tiny: 0.5 retained keeps rank 1
        base = rng.standard_normal((300, 1)) * 10.0
        rest = rng.standard_normal((300, 3)) * 0.1
        x = np.hstack([base, rest])
        pca = fit_pca(x, 0.5)
        assert pca.components.shape[1] == 1

    def test_projection_agrees_with_eigendecomposition(self, rng):
        x = rng.standard_normal((150, 4))
        pca = fit_pca(x, 1.0)
        centered = x - pca.center
        cov = centered.T @ centered / len(x)
        evals = np.linalg.eigvalsh(cov)[::-1]
        assert np.allclose(np.sort(pca.eigenvalues)[::-1], evals, atol=1e-10)
        proj = pca.transform(x)
        assert np.allclose(proj.var(axis=0, ddof=0),
                           pca.eigenvalues[:proj.shape[1]], atol=1e-10)


class TestRandomFeatures:
    def test_output_dim_is_twice_the_frequency_count(self, rng):
        rff = sample_rff(3, 64, 1.0, seed=0)
        out = rff.transform(rng.standard_normal((10, 3)))
        assert out.shape == (10, 128)

    def test_frequency_variance_tracks_bandwidth(self):
        for gamma in (0.25, 1.0, 4.0):
            rff = sample_rff(2, 20000, gamma, seed=1)
            assert np.isclose(rff.omega.var(), 2.0 * gamma, rtol=0.05)

    def test_phases_cover_the_circle(self):
        rff = sample_rff(2, 5000, 1.0, seed=2)
        assert rff.phases.min() >= 0.0
        assert rff.phases.max() < 2.0 * np.pi
        assert rff.phases.mean() == pytest.approx(np.pi, rel=0.05)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_every_lifted_vector_has_squared_norm_two(self, seed):
        gen = np.random.default_rng(seed)
        rff = sample_rff(2, 128, float(gen.uniform(0.1, 4.0)), seed=seed)
        x = gen.standard_normal((5, 2)) * 3.0
        norms = (rff.transform(x) ** 2).sum(axis=1)
        assert np.allclose(norms, 2.0, atol=1e-12)

    def test_inner_products_approximate_the_scaled_gaussian_kernel(self, rng):
        gamma = 1.0
        rff = sample_rff(2, 2048, gamma, seed=3)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal((50, 2))
        approx = (rff.transform(x) * rff.transform(y)).sum(axis=1)
        exact = 2.0 * np.exp(-gamma * ((x - y) ** 2).sum(axis=1))
        assert np.abs(approx - exact).mean() < 0.1

    @pytest.mark.parametrize("shape", [(3,), (257, 3)])
    def test_one_buffer_lift_equals_the_concatenated_formula(self, rng, shape):
        # transform writes cos and sin into one buffer and scales it in
        # place; the arithmetic per element is that of the formula below
        rff = sample_rff(3, 96, 0.7, seed=4)
        x = 2.0 * rng.standard_normal(shape)
        z = x @ rff.omega + rff.phases
        direct = np.sqrt(2.0 / 96) * np.concatenate([np.cos(z), np.sin(z)],
                                                   axis=-1)
        assert np.array_equal(rff.transform(x), direct)

    def test_same_seed_same_features(self, rng):
        x = rng.standard_normal((4, 2))
        a = sample_rff(2, 32, 0.5, seed=9).transform(x)
        b = sample_rff(2, 32, 0.5, seed=9).transform(x)
        assert np.array_equal(a, b)


class TestPipeline:
    def test_identity_passthrough(self, rng):
        pipe = identity_pipeline(3)
        x = rng.standard_normal((6, 3))
        assert np.array_equal(pipe.apply(x), x)
        assert pipe.is_linear
        assert pipe.output_dim == 3

    def test_single_vector_matches_batch_row(self, rng):
        data = rng.standard_normal((30, 2))
        pipe = build_pipeline(data, PipelineConfig("rff", 16, 1.0, None, 0))
        batch = pipe.apply(data)
        single = pipe.apply(data[4:5])
        assert single.shape == (1, 32)
        assert np.allclose(single[0], batch[4], atol=1e-15)

    @pytest.mark.parametrize("x,shape", [
        ([1, 2], (1, 2)), (np.array([1.0, 2.0]), (1, 2)),
        ([[1, 2], [3, 4], [5, 6]], (3, 2)),
        (np.ones((3, 2), dtype=np.float32), (3, 2))],
        ids=["list-row", "1d-row", "list-batch", "float32-batch"])
    def test_check_input_returns_a_float64_batch(self, x, shape):
        # the one batch rule: a 1-D input is one row
        batch = identity_pipeline(2).check_input(x)
        assert batch.dtype == np.float64 and batch.shape == shape
        assert np.array_equal(batch, np.reshape(x, shape))

    @pytest.mark.parametrize("x,message", [
        (np.ones((2, 2, 2)),
         r"expected a 2-D batch of rows, got shape \(2, 2, 2\)"),
        (np.ones((4, 3)), "expected 2 input features, got 3"),
        (np.ones(3), "expected 2 input features, got 3"),
        (1.0, "expected 2 input features, got 1"),
        ([[1, 2], [3, np.nan]], "input row 1 holds a non-finite value")],
        ids=["3d", "wide-batch", "wide-row", "0d", "nan-row"])
    def test_check_input_and_apply_refuse_with_one_message(self, x, message):
        # a 0-D input to apply used to be refused by shape, while predict
        # refused it by width
        pipe = identity_pipeline(2)
        for check in (pipe.check_input, pipe.apply):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(x)

    def test_rff_pipeline_is_not_linear(self, rng):
        data = rng.standard_normal((30, 2))
        pipe = build_pipeline(data, PipelineConfig("rff", 16, 1.0, None, 0))
        assert not pipe.is_linear
        assert pipe.output_dim == 32

    @pytest.mark.parametrize("changes,message", [
        ({"rff_dim": 2.5}, "rff_dim must be a whole number >= 1, got 2.5"),
        ({"rff_gamma": 0}, "rff_gamma must be finite and > 0, got 0"),
        ({"seed": -1}, "seed must be a whole number >= 0, got -1"),
        ({"seed": 2.5}, "seed must be a whole number >= 0, got 2.5"),
        ({"rff_gamma": True}, "rff_gamma must be finite and > 0, got True"),
        ({"pca_variance": True},
         "pca_variance must lie in \\(0, 1\\], got True")],
        ids=["rff-dim-fraction", "rff-gamma-zero", "seed-negative",
             "seed-fraction", "rff-gamma-bool", "pca-variance-bool"])
    def test_a_recipe_refuses_bad_values_when_built(self, changes, message):
        # a bad seed used to build and fail later in numpy, naming no field
        with pytest.raises(ValueError, match="^" + message):
            PipelineConfig("rff", **changes)

    @pytest.mark.parametrize("rff_dim", [16.0, "16"])
    def test_a_recipe_stores_a_whole_rff_dim_as_an_int(self, rff_dim):
        got = PipelineConfig("rff", rff_dim=rff_dim).rff_dim
        assert got == 16 and isinstance(got, int)

    def test_a_recipe_stores_a_whole_seed_as_an_int(self):
        got = PipelineConfig(seed="3").seed
        assert got == 3 and isinstance(got, int)

    def test_linear_pipeline_standardizes(self, rng):
        data = rng.normal(5.0, 2.0, size=(100, 3))
        pipe = build_pipeline(data, PipelineConfig("linear"))
        z = pipe.apply(data)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)

    def test_pca_stage_reduces_width(self, rng):
        # six observed columns, only two independent sources behind them
        source = rng.standard_normal((200, 2))
        mixing = rng.standard_normal((2, 6))
        data = source @ mixing + 1e-6 * rng.standard_normal((200, 6))
        pipe = build_pipeline(data, PipelineConfig("linear", pca_variance=0.95))
        assert pipe.output_dim == 2


class TestLiftSelection:
    def test_candidate_grid_covers_linear_and_all_bandwidths(self):
        cands = default_lift_candidates()
        lifts = [c.lift for c in cands]
        assert lifts.count("linear") == 1
        gammas = sorted(c.rff_gamma for c in cands if c.lift == "rff")
        assert gammas == sorted(AUTO_GAMMA_GRID)

    def test_probing_prefers_the_lift_that_separates_circles(self):
        data = make_circles(600, noise=0.08, seed=0)
        tr, va, _ = split_dataset(data, 0)
        pipe, probes = select_lift(
            tr, va, default_lift_candidates(),
            probe_config=probe_train_config(), final_rff_dim=128)
        assert not pipe.is_linear
        assert len(probes) == len(default_lift_candidates())
        assert all(np.isfinite(p.val_loglik) or p.error for p in probes)

    def test_failed_candidates_are_recorded_not_raised(self, monkeypatch):
        from planemix import features

        data = make_circles(200, noise=0.08, seed=1)
        tr, va, _ = split_dataset(data, 1)
        # a zero-frequency lift is degenerate but must not abort selection;
        # PipelineConfig refuses rff_dim 0, so the frequencies come out empty
        monkeypatch.setattr(features, "sample_rff", lambda d, n, gamma, seed:
                            RffMap(np.ones((d, 0)), np.zeros(0), gamma))
        cands = [PipelineConfig("linear"), PipelineConfig("rff")]
        pipe, probes = select_lift(tr, va, cands,
                                   probe_config=probe_train_config(),
                                   final_rff_dim=FINAL_RFF_DIM)
        assert len(probes) == 2
        assert probes[1].error.startswith("rff.omega must have")
        assert pipe is not None


def test_pipeline_dataclass_shape():
    pipe = identity_pipeline(2)
    assert isinstance(pipe, FeaturePipeline)
    assert pipe.pca is None and pipe.rff is None


def _pca(d=3, r=2, **changes):
    parts = {"components": np.eye(d)[:, :r], "center": np.zeros(d),
             "eigenvalues": np.arange(d, 0, -1.0), "variance_retained": 0.9}
    parts.update(changes)
    return PcaMap(**parts)


def _rff(d=2, n_freq=4, **changes):
    parts = {"omega": np.ones((d, n_freq)), "phases": np.zeros(n_freq),
             "gamma": 1.0}
    parts.update(changes)
    return RffMap(**parts)


NAN2 = np.array([0.0, np.nan])


@pytest.mark.parametrize("build,message", [
    (lambda: Standardizer(np.zeros(2), np.ones(3)),
     "standardizer.scale has 3 entries, expected 2"),
    (lambda: Standardizer(np.zeros((2, 2)), np.ones(2)),
     "standardizer.mean must be 1-D, got 2-D"),
    (lambda: Standardizer(NAN2, np.ones(2)),
     "standardizer.mean holds non-finite values"),
    (lambda: Standardizer(np.zeros(2), np.array([1.0, np.inf])),
     "standardizer.scale holds non-finite values"),
    (lambda: Standardizer(np.zeros(2), np.array([1.0, 0.0])),
     r"standardizer.scale must be > 0, got 0.0 in entry 1"),
    (lambda: Standardizer(np.zeros(2), np.array([-1.0, 1.0])),
     r"standardizer.scale must be > 0, got -1.0 in entry 0"),
    (lambda: _pca(components=np.ones(3)), "pca.components must be 2-D"),
    (lambda: _pca(center=NAN2), "pca.center holds non-finite values"),
    (lambda: _pca(eigenvalues=NAN2), "pca.eigenvalues holds non-finite"),
    (lambda: _pca(variance_retained=0.0), r"pca.variance_retained must lie"),
    (lambda: _pca(variance_retained=float("nan")),
     r"pca.variance_retained must lie"),
    (lambda: _rff(phases=np.zeros(3)), "rff.phases has 3 entries, expected 4"),
    (lambda: _rff(omega=np.full((2, 4), np.inf)),
     "rff.omega holds non-finite values"),
    (lambda: _rff(gamma=0.0), r"rff.gamma must be finite and > 0"),
    (lambda: _rff(gamma=-1.0), r"rff.gamma must be finite and > 0"),
    (lambda: _rff(gamma=float("inf")), r"rff.gamma must be finite and > 0"),
    (lambda: sample_rff(2, 4, -1.0, 0), r"rff.gamma must be finite and > 0"),
    (lambda: sample_rff(2, 4, 0.0, 0), r"rff.gamma must be finite and > 0"),
    (lambda: sample_rff(2, 4, float("nan"), 0),
     r"rff.gamma must be finite and > 0"),
    (lambda: sample_rff(2, 4, float("inf"), 0),
     r"rff.gamma must be finite and > 0"),
    (lambda: sample_rff(2, 0, 1.0, 0), r"rff.omega must have at least one row"),
    (lambda: sample_rff(0, 4, 1.0, 0), r"rff.omega must have at least one row"),
    (lambda: FeaturePipeline(Standardizer(np.zeros(2), np.ones(2)),
                             pca=_pca(d=3)),
     "pca.center has 3 entries, expected 2"),
    (lambda: FeaturePipeline(Standardizer(np.zeros(3), np.ones(3)),
                             pca=_pca(d=3, components=np.eye(4)[:, :2])),
     "pca.components has 4 rows, expected 3"),
    (lambda: FeaturePipeline(Standardizer(np.zeros(3), np.ones(3)),
                             rff=_rff(d=2)),
     "rff.omega has 2 rows, expected 3"),
    (lambda: FeaturePipeline(Standardizer(np.zeros(3), np.ones(3)),
                             pca=_pca(d=3, r=2), rff=_rff(d=3)),
     "rff.omega has 3 rows, expected 2"),
], ids=["scale-width", "mean-rank", "mean-nan", "scale-inf", "scale-zero",
        "scale-negative", "components-rank", "center-nan", "eigenvalues-nan",
        "variance-zero", "variance-nan", "phases-width", "omega-inf",
        "gamma-zero", "gamma-negative", "gamma-inf", "sample-gamma-negative",
        "sample-gamma-zero", "sample-gamma-nan", "sample-gamma-inf",
        "sample-no-frequencies", "sample-no-inputs", "pca-center-width",
        "pca-components-width", "rff-after-standardizer",
        "rff-after-pca"])
@pytest.mark.filterwarnings("error")
def test_stages_refuse_bad_arrays_naming_the_attribute(build, message):
    with pytest.raises(ValueError, match="^" + message):
        build()


def test_consistent_stages_build_a_pipeline():
    pipe = FeaturePipeline(Standardizer(np.zeros(3), np.ones(3)),
                           pca=_pca(d=3, r=2), rff=_rff(d=2, n_freq=5))
    assert pipe.output_dim == 10
