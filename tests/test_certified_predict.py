"""predict's float32 trig path and the certificate that keeps its labels exact.

model.predict lifts RFF rows with float32 cos and sin and certifies each
label against the float64 one (model.py module docstring). The bound rests
on TRIG32_ERROR, a claim about numpy's float32 kernels that is checked here
on the running numpy, and on the rescoring of every uncertified block,
which the property and the constructed ties below exercise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.features import (
    FeaturePipeline,
    RffMap,
    fit_standardizer,
    sample_rff,
)
from planemix.model import (
    TRIG32_ERROR,
    PlaneMixture,
    certified_predict,
    class_scores,
    lifted_plane_scores,
    pooled_scores,
    predict,
)


def float32_trig(z: np.ndarray) -> np.ndarray:
    """cos and sin of z as RffMap.transform evaluates them for predict:
    float32 kernels writing into a float64 buffer."""
    out = np.empty((2,) + z.shape)
    np.cos(z, out=out[0], dtype=np.float32)
    np.sin(z, out=out[1], dtype=np.float32)
    return out


def trig_arguments() -> np.ndarray:
    """2.2M arguments: uniform on [-80, 80], at and next to multiples of
    pi/2 up to |z| = 31416, and log-uniform magnitudes out to 1e6."""
    gen = np.random.default_rng(20070101)
    k = gen.integers(-20000, 20000, 400_000) * (np.pi / 2)
    large = np.exp(gen.uniform(np.log(80.0), np.log(1e6), 400_000))
    return np.concatenate([
        gen.uniform(-80.0, 80.0, 1_000_000), k,
        k + gen.uniform(-1e-6, 1e-6, k.size),
        large * gen.choice([-1.0, 1.0], large.size)])


class TestTrigErrorBound:
    def test_float32_trig_stays_within_the_certified_bound(self):
        # the cast to float32 plus the kernel, against float64 cos and sin
        z = trig_arguments()
        err = np.abs(float32_trig(z) - np.stack([np.cos(z), np.sin(z)]))
        assert (err <= np.abs(z) * 2.0 ** -24 + TRIG32_ERROR).all()

    def test_the_kernel_alone_stays_within_delta(self):
        # at arguments already in float32 the cast is exact, so the whole
        # difference is the kernel's; it measured below 0.15 delta
        z = trig_arguments().astype(np.float32).astype(np.float64)
        err = np.abs(float32_trig(z) - np.stack([np.cos(z), np.sin(z)]))
        assert err.max() <= TRIG32_ERROR


def rff_model(gen, class_planes, alpha, d_in=2, freq=2048, scale=1.0):
    """A random RFF model; 4096 lifted dims give 128-row blocks and 16-row
    sub-blocks in predict's float32 pass."""
    pipe = FeaturePipeline(fit_standardizer(gen.standard_normal((32, d_in))),
                           rff=sample_rff(d_in, freq, 0.5,
                                          seed=int(gen.integers(1 << 30))))
    m = sum(class_planes)
    return PlaneMixture(scale * gen.standard_normal((m, 2 * freq)) / 4.0,
                        0.1 * gen.standard_normal(m),
                        np.concatenate([[0], np.cumsum(class_planes)]),
                        alpha, pipe)


def float32_path_labels(mdl, x):
    """The labels predict would return without its certificate."""
    lifted = mdl.pipeline.rff.transform(mdl.pipeline.affine(x), np.float32)
    scores = pooled_scores(lifted_plane_scores(mdl, lifted), mdl.offsets,
                           mdl.alpha)
    return np.argmax(scores, axis=1)


@given(seed=st.integers(0, 2 ** 32 - 1),
       class_planes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       alpha=st.sampled_from([1.0, 3.0, 6.0]),
       rows=st.one_of(st.just(1), st.integers(2, 255), st.integers(256, 700)),
       scale=st.sampled_from([0.01, 1.0, 10.0]))
@settings(max_examples=40, deadline=None)
def test_predict_is_the_float64_argmax(seed, class_planes, alpha, rows,
                                       scale):
    # one row, fewer than two 128-row blocks, or several blocks
    gen = np.random.default_rng(seed)
    mdl = rff_model(gen, class_planes, alpha, scale=scale)
    x = 2.0 * gen.standard_normal((rows, 2))
    labels, uncertified = certified_predict(mdl, x)
    assert np.array_equal(labels, np.argmax(class_scores(mdl, x), axis=1))
    assert np.array_equal(predict(mdl, x), labels)
    assert np.array_equal(uncertified, np.unique(uncertified))
    assert uncertified.size == 0 or 0 <= uncertified.min() <= \
        uncertified.max() < rows


class TestFallback:
    def test_near_ties_are_rescored_in_float64(self):
        # rows bisected onto the decision boundary, on both sides of it:
        # their margins sit far below the float32 error, so the float32
        # path alone gets some labels wrong
        gen = np.random.default_rng(5)
        mdl = rff_model(gen, (2, 2), 3.0)
        a, b = gen.standard_normal((2, 256, 2))
        sign = lambda x: np.sign(-np.diff(class_scores(mdl, x), axis=1)[:, 0])
        pairs = sign(a) != sign(b)
        a, b = a[pairs], b[pairs]
        for _ in range(60):
            mid = (a + b) / 2
            same = sign(mid) == sign(a)
            a[same], b[~same] = mid[same], mid[~same]
        x = np.vstack([a, b])
        exact = np.argmax(class_scores(mdl, x), axis=1)
        assert 0 < exact.sum() < exact.size
        assert not np.array_equal(float32_path_labels(mdl, x), exact)
        labels, uncertified = certified_predict(mdl, x)
        assert np.array_equal(labels, exact)
        assert uncertified.tolist() == list(range(x.shape[0]))

    def tie_in_the_second_block(self, rows=300, tie=200):
        # 300 rows are two blocks (128 and 172 rows); row 200 is a near-tie
        gen = np.random.default_rng(8)
        mdl = rff_model(gen, (1, 1), 6.0)
        x = 2.0 * gen.standard_normal((rows, 2))
        scores = class_scores(mdl, x)
        mdl = PlaneMixture(mdl.weights, mdl.biases + [0.0, scores[tie, 0]
                                                      - scores[tie, 1]],
                           mdl.offsets, mdl.alpha, mdl.pipeline)
        return mdl, x

    def test_a_far_row_is_certified_next_to_a_rescored_block(self):
        # the near-tie sends only the second block to float64
        mdl, x = self.tie_in_the_second_block()
        labels, uncertified = certified_predict(mdl, x)
        assert 200 in uncertified.tolist()
        assert uncertified.min() >= 128
        assert np.array_equal(labels, np.argmax(class_scores(mdl, x), axis=1))

    def test_a_rescored_block_is_not_checked_again(self, monkeypatch):
        # rescoring starts from the block's standardized rows; through
        # class_scores it checked, standardized and projected them again
        mdl, x = self.tie_in_the_second_block()
        checked = []
        check_input = FeaturePipeline.check_input
        monkeypatch.setattr(FeaturePipeline, "check_input", lambda pipe, rows:
                            checked.append(rows.shape) or check_input(pipe, rows))
        labels, uncertified = certified_predict(mdl, x)
        assert uncertified.size > 0
        assert checked == [x.shape]

    def test_a_tie_in_a_middle_sub_block_rescores_its_block(self,
                                                             monkeypatch):
        # 700 rows are blocks of 128, 128, 128, 128 and 188 rows, each
        # lifted in 16-row sub-blocks; row 168 sits in sub-block 160-175 of
        # block 128-255, which alone is lifted again in float64
        mdl, x = self.tie_in_the_second_block(rows=700, tie=168)
        lifts = []
        transform = RffMap.transform

        def counted(rff, s, trig=np.float64, out=None):
            lifts.append((s.shape[0], trig))
            return transform(rff, s, trig, out)

        monkeypatch.setattr(RffMap, "transform", counted)
        labels, uncertified = certified_predict(mdl, x)
        monkeypatch.undo()
        assert 168 in uncertified.tolist()
        assert 128 <= uncertified.min() <= uncertified.max() < 256
        assert [n for n, trig in lifts if trig is np.float64] == [128]
        assert [n for n, trig in lifts if trig is np.float32] == \
            [16] * 43 + [12]
        assert np.array_equal(labels, np.argmax(class_scores(mdl, x), axis=1))

    def test_exact_ties_go_to_the_lower_index(self):
        # classes 1 and 2 hold one identical plane, class 0 one far below
        gen = np.random.default_rng(6)
        mdl = rff_model(gen, (1, 1, 1), 1.0)
        w = mdl.weights.copy()
        w[2] = w[1]
        mdl = PlaneMixture(w, np.array([-1e3, 0.5, 0.5]), mdl.offsets,
                           mdl.alpha, mdl.pipeline)
        x = gen.standard_normal((260, 2))
        scores = class_scores(mdl, x)
        assert np.array_equal(scores[:, 1], scores[:, 2])
        labels, uncertified = certified_predict(mdl, x)
        assert labels.tolist() == [1] * 260
        assert uncertified.tolist() == list(range(260))

    def test_a_one_class_model_certifies_every_row(self):
        gen = np.random.default_rng(9)
        mdl = rff_model(gen, (3,), 3.0)
        labels, uncertified = certified_predict(mdl, gen.standard_normal((5, 2)))
        assert labels.tolist() == [0] * 5
        assert uncertified.size == 0

    def test_linear_models_rescore_nothing(self):
        gen = np.random.default_rng(4)
        mdl = rff_model(gen, (1, 2), 3.0)
        linear = PlaneMixture(gen.standard_normal((3, 2)), np.zeros(3),
                              mdl.offsets, 3.0,
                              FeaturePipeline(mdl.pipeline.standardizer))
        x = gen.standard_normal((50, 2))
        labels, uncertified = certified_predict(linear, x)
        assert np.array_equal(labels, np.argmax(class_scores(linear, x), 1))
        assert uncertified.size == 0


class TestSubBlockRounding:
    @pytest.mark.parametrize("d_in", [2, 16, 100])
    def test_sub_block_z_stays_within_the_allowance_of_block_z(self, d_in):
        # z = s @ omega + phases as RffMap.transform forms it, for a 256-row
        # block and for its sub-blocks; the certificate allows them to part
        # by 2 * gamma_(d+1) * Z_i on the running BLAS
        gen = np.random.default_rng(d_in)
        rff = sample_rff(d_in, 1024, 0.5, seed=d_in)
        s = 3.0 * gen.standard_normal((256, d_in))
        n = d_in + 1
        allowance = 2 * n * 2.0 ** -53 / (1 - n * 2.0 ** -53) * (
            np.abs(s) @ np.abs(rff.omega).max(axis=1)
            + np.abs(rff.phases).max())

        def z_of(rows):
            z = rows @ rff.omega
            z += rff.phases
            return z

        block = z_of(s)
        for sub in (1, 16, 32, 33):
            parts = np.vstack([z_of(s[i:i + sub])
                               for i in range(0, s.shape[0], sub)])
            assert (np.abs(parts - block) <= allowance[:, None]).all()


class TestFloat32Range:
    @pytest.mark.parametrize("far_row", [[1e39, 0.0], [-3e38, 1.0],
                                         [1e36, 0.0], [0.0, 1e300]])
    def test_a_row_beyond_float32_range_is_rescored_without_a_warning(
            self, far_row):
        # a z beyond float32 range overflows the cast, so its cos and sin
        # are NaN; the certificate rescored the row, but numpy used to warn
        # on the way
        gen = np.random.default_rng(10)
        mdl = rff_model(gen, (2, 1), 3.0)
        x = gen.standard_normal((300, 2))
        x[200] = far_row
        for batch, far in ((x, 200), (x[200:201], 0), (x[190:210], 10)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                labels, uncertified = certified_predict(mdl, batch)
                exact = np.argmax(class_scores(mdl, batch), axis=1)
            assert np.array_equal(labels, exact)
            assert far in uncertified.tolist()

    @pytest.mark.parametrize("far_row", [[1e39, 0.0], [0.0, 1e300]])
    def test_a_block_with_a_row_beyond_float32_range_skips_float32(
            self, far_row, monkeypatch):
        # the block is rescored in float64 whole, so a float32 lift of it
        # is wasted; only the far row is reported
        gen = np.random.default_rng(10)
        mdl = rff_model(gen, (2, 1), 3.0)
        x = gen.standard_normal((20, 2))
        x[10] = far_row
        lifts = []
        transform = RffMap.transform

        def counted(rff, s, trig=np.float64, out=None):
            lifts.append((s.shape[0], trig))
            return transform(rff, s, trig, out)

        monkeypatch.setattr(RffMap, "transform", counted)
        labels, uncertified = certified_predict(mdl, x)
        monkeypatch.undo()
        assert lifts == [(20, np.float64)]
        assert uncertified.tolist() == [10]
        assert np.array_equal(labels, np.argmax(class_scores(mdl, x), axis=1))
