"""Cluster-count selection and geometry-seeded plane initialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.budgeting import (
    MAX_BUDGET_POINTS,
    SILHOUETTE_THRESHOLD,
    InitSpec,
    PlaneBudget,
    auto_budget,
    auto_plane_budget,
    fixed_budget,
    init_auto,
    init_kmeans,
    init_logreg,
    init_random,
    initial_planes,
    kmeans,
    silhouette_score,
)


def blob(rng, center, n=50, spread=0.2):
    return center + spread * rng.standard_normal((n, 2))


def reference_silhouette(points, labels):
    """Brute-force silhouette straight from the definition."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    vals = np.zeros(n)
    for i in range(n):
        mine = labels == labels[i]
        if mine.sum() == 1:
            vals[i] = 0.0
            continue
        a = d[i, mine & (np.arange(n) != i)].mean()
        b = min(d[i, labels == c].mean()
                for c in np.unique(labels) if c != labels[i])
        vals[i] = (b - a) / max(a, b)
    return float(vals.mean())


def pairwise_sq(x, y):
    d2 = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * (x @ y.T)
    return np.clip(d2, 0.0, None)


def reference_kmeans(points, k, seed, max_iter=100, tol=1e-6):
    """Lloyd in feature form, centers as vectors: kmeans++ seeding, an
    emptied cluster re-seeded at the point farthest from its center, stop
    once no center moves by tol. Returns (centers, assignments, iterations,
    reseeds)."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = pairwise_sq(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        idx = rng.integers(n) if total <= 0 else rng.choice(n, p=closest / total)
        centers[j] = x[idx]
        closest = np.minimum(closest, pairwise_sq(x, centers[j:j + 1])[:, 0])
    reseeds = 0
    for it in range(1, max_iter + 1):
        d2 = pairwise_sq(x, centers)
        assign = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            if not mask.any():
                far = d2[np.arange(n), assign].argmax()
                new_centers[j] = x[far]
                assign[far] = j
                reseeds += 1
            else:
                new_centers[j] = x[mask].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    assign = pairwise_sq(x, centers).argmin(axis=1)
    return centers, assign, it, reseeds


def lifted_moons_class(rows=400, seed=0):
    from planemix.datasets import make_moons
    from planemix.features import PipelineConfig, build_pipeline

    data = make_moons(rows, 0.25, seed=seed)
    pipe = build_pipeline(data, PipelineConfig("rff", rff_dim=256,
                                               rff_gamma=0.5, seed=seed))
    return pipe.apply(data.features)[data.labels == 0]


class TestKMeansOracle:
    """The Gram-form kmeans against the feature-form reference above: the
    same assignments, centers, iteration count and reseed count, bit for
    bit, with and without a Gram matrix from the caller."""

    def assert_matches_reference(self, points, k, seed):
        centers, assign, iterations, reseeds = reference_kmeans(points, k, seed)
        for gram in (None, points @ points.T):
            res = kmeans(points, k, seed, gram=gram)
            assert np.array_equal(res.assignments, assign)
            assert np.array_equal(res.centers, centers)
            assert (res.iterations, res.reseeds) == (iterations, reseeds)
        return reseeds

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 7, (3, 1)])
    def test_seeded_gaussian_points(self, k, seed):
        gen = np.random.default_rng(11)
        points = np.vstack([blob(gen, (0, 0), n=60, spread=1.0),
                            blob(gen, (3, 1), n=40, spread=0.7)])
        self.assert_matches_reference(points, k, seed)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rff_lifted_moons_class(self, k):
        points = lifted_moons_class()
        assert points.shape[1] == 512
        self.assert_matches_reference(points, k, (0, 0))

    @pytest.mark.parametrize("data_seed,dist", [(2076, "cauchy"),
                                                (202, "grid")])
    def test_an_emptied_cluster_is_reseeded_as_the_reference_does(
            self, data_seed, dist):
        # heavy-tailed 1-d points empty a cluster during Lloyd; points on a
        # small grid repeat, so tied seeds leave a cluster empty at once
        gen = np.random.default_rng(data_seed)
        n = int(gen.integers(5, 15))
        points = (gen.standard_cauchy((n, 1)) if dist == "cauchy"
                  else gen.integers(0, 4, (n, 2)).astype(float))
        assert self.assert_matches_reference(points, 4, 0) >= 1


class TestKMeans:
    def test_single_center_is_the_mean(self, rng):
        pts = rng.standard_normal((80, 3))
        res = kmeans(pts, 1, seed=0)
        assert np.allclose(res.centers[0], pts.mean(axis=0), atol=1e-9)

    def test_recovers_well_separated_clusters(self, rng):
        pts = np.vstack([blob(rng, (0, 0)), blob(rng, (8, 0)),
                         blob(rng, (4, 7))])
        res = kmeans(pts, 3, seed=1)
        # each true group lands in exactly one recovered cluster
        for lo in (0, 50, 100):
            assert len(set(res.assignments[lo:lo + 50])) == 1
        assert res.reseeds == 0

    def test_assignments_cover_every_point(self, rng):
        pts = rng.standard_normal((60, 2))
        res = kmeans(pts, 4, seed=2)
        assert res.assignments.shape == (60,)
        assert set(res.assignments) <= set(range(4))

    def test_deterministic_in_seed(self, rng):
        pts = rng.standard_normal((100, 2))
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.assignments, b.assignments)

    def test_inertia_never_worse_than_single_cluster(self, rng):
        pts = rng.standard_normal((90, 2))
        one = kmeans(pts, 1, seed=0).inertia
        four = kmeans(pts, 4, seed=0).inertia
        assert four <= one + 1e-9

    def test_rejects_more_clusters_than_points(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.standard_normal((3, 2)), 5, seed=0)

    # max_iter 0 and -3 used to fail with an UnboundLocalError, 2.5 with a
    # bare TypeError, and a NaN tol was taken silently
    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, "many"])
    def test_max_iter_must_be_a_whole_number_of_at_least_one(self, rng,
                                                             max_iter):
        with pytest.raises(ValueError, match=r"max_iter must be a whole "
                                             r"number >= 1, got "):
            kmeans(rng.standard_normal((20, 2)), 2, seed=0, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [np.nan, -1e-6, np.inf])
    def test_tol_must_be_finite_and_not_negative(self, rng, tol):
        with pytest.raises(ValueError, match=r"tol must be finite and >= 0, "
                                             r"got "):
            kmeans(rng.standard_normal((20, 2)), 2, seed=0, tol=tol)

    def test_whole_float_and_digit_max_iter_run(self, rng):
        pts = rng.standard_normal((20, 2))
        want = kmeans(pts, 2, seed=0, max_iter=3)
        for max_iter in (3.0, "3"):
            got = kmeans(pts, 2, seed=0, max_iter=max_iter)
            assert np.array_equal(got.assignments, want.assignments)
            assert got.iterations == want.iterations


class TestSilhouette:
    def test_matches_brute_force_reference(self, rng):
        pts = rng.standard_normal((40, 2))
        labels = rng.integers(0, 3, size=40)
        if len(set(labels)) < 2:
            labels[0] = (labels[0] + 1) % 3
        assert silhouette_score(pts, labels) == pytest.approx(
            reference_silhouette(pts, labels), abs=1e-10)

    def test_hand_worked_four_point_example(self):
        # two pairs on a line: {0, 1} and {10, 11}, one-dimensional
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        # every point: a = 1, b = mean distance to the far pair
        # point 0: b = (10 + 11) / 2 = 10.5 -> s = 9.5 / 10.5
        # point 1: b = (9 + 10) / 2 = 9.5  -> s = 8.5 / 9.5
        expected = np.mean([9.5 / 10.5, 8.5 / 9.5, 8.5 / 9.5, 9.5 / 10.5])
        assert silhouette_score(pts, labels) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_tight_separated_clusters_score_near_one(self, rng):
        pts = np.vstack([blob(rng, (0, 0), spread=0.05),
                         blob(rng, (50, 0), spread=0.05)])
        labels = np.repeat([0, 1], 50)
        assert silhouette_score(pts, labels) > 0.95

    def test_swapped_labels_score_negative(self, rng):
        pts = np.vstack([blob(rng, (0, 0), spread=0.05),
                         blob(rng, (50, 0), spread=0.05)])
        labels = np.repeat([1, 0], 50)
        wrong = np.concatenate([labels[25:], labels[:25]])
        assert silhouette_score(pts, wrong) < 0

    def test_requires_two_clusters(self, rng):
        with pytest.raises(ValueError):
            silhouette_score(rng.standard_normal((10, 2)), np.zeros(10, int))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_always_within_minus_one_and_one(self, seed):
        gen = np.random.default_rng(seed)
        pts = gen.standard_normal((30, 2))
        labels = gen.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        s = silhouette_score(pts, labels)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestBudget:
    def test_counts_clear_cluster_structure(self, rng):
        two = np.vstack([blob(rng, (0, 0)), blob(rng, (8, 0))])
        three = np.vstack([blob(rng, (0, 0)), blob(rng, (8, 0)),
                           blob(rng, (4, 7))])
        assert auto_plane_budget(two, seed=0) == 2
        assert auto_plane_budget(three, seed=0) == 3

    def test_cap_limits_the_answer(self, rng):
        five = np.vstack([blob(rng, (i * 6, (i % 2) * 6), n=40)
                          for i in range(5)])
        assert auto_plane_budget(five, cap=4, seed=0) == 4
        assert auto_plane_budget(five, cap=2, seed=0) == 2
        assert auto_plane_budget(five, cap=1, seed=0) == 1

    def test_the_first_best_silhouette_wins_and_nan_never_does(
            self, rng, monkeypatch):
        # strict > from -inf: a NaN score at k = 2 must not block k = 3
        from planemix import budgeting

        scores = {2: float("nan"), 3: 0.5}
        monkeypatch.setattr(
            budgeting, "_silhouette_from_dists",
            lambda dists, assignments: scores[np.unique(assignments).size])
        three = np.vstack([blob(rng, (0, 0)), blob(rng, (8, 0)),
                           blob(rng, (4, 7))])
        assert auto_plane_budget(three, cap=3, seed=0) == 3

    def test_too_few_points_fall_back_to_one_plane(self, rng):
        assert auto_plane_budget(rng.standard_normal((7, 2)), cap=4,
                                 seed=0) == 1

    def test_identical_points_fall_back_to_one_plane(self):
        assert auto_plane_budget(np.ones((40, 2)), seed=0) == 1

    def test_threshold_constant_is_the_documented_gate(self):
        assert SILHOUETTE_THRESHOLD == 0.20

    def test_auto_budget_is_per_class(self, rng):
        # class 0 spreads over three lobes, class 1 over two
        x0 = np.vstack([blob(rng, (0, 0)), blob(rng, (8, 0)),
                        blob(rng, (4, 7))])
        x1 = np.vstack([blob(rng, (20, 0)), blob(rng, (28, 0))])
        lifted = np.vstack([x0, x1])
        labels = np.repeat([0, 1], [150, 100])
        budget = auto_budget(lifted, labels, 2, seed=0)
        assert budget.per_class[0] == 3
        assert budget.per_class[1] == 2

    def test_fixed_budget_repeats_the_request(self):
        assert fixed_budget(3, 2).per_class == (2, 2, 2)
        # an explicit request may exceed the auto cap
        assert fixed_budget(2, 9, cap=4).per_class == (9, 9)

    def test_budget_total_matches_offsets_contract(self, rng):
        budget = fixed_budget(3, 2)
        assert sum(budget.per_class) == 6

    @pytest.mark.parametrize("per_class,message", [
        ((2.5, 2), "planes must be a whole number >= 1, got 2.5"),
        ((2, 0), "planes must be a whole number >= 1, got 0")],
        ids=["fraction", "zero"])
    def test_a_budget_refuses_a_count_that_is_not_whole(self, per_class,
                                                        message):
        # (2.5, 2) used to build with total 4.5 and offsets [0, 2, 4]
        with pytest.raises(ValueError, match="^" + message):
            PlaneBudget(per_class, 4)

    def test_a_budget_stores_whole_counts_as_ints(self):
        budget = PlaneBudget((2.0, np.int64(3)), 4)
        assert budget.per_class == (2, 3) and budget.total == 5
        assert all(type(m) is int for m in budget.per_class)


class TestInit:
    def two_lobe_problem(self, rng):
        x0 = np.vstack([blob(rng, (-4, 0)), blob(rng, (4, 0))])
        x1 = blob(rng, (0, 6), n=100)
        lifted = np.vstack([x0, x1])
        labels = np.repeat([0, 1], 100)
        return lifted, labels

    def test_kmeans_init_shapes_and_unit_norms(self, rng):
        lifted, labels = self.two_lobe_problem(rng)
        budget = auto_budget(lifted, labels, 2, seed=0)
        init = init_kmeans(lifted, labels, budget, seed=0)
        m_total = sum(budget.per_class)
        assert init.weights.shape == (m_total, 2)
        assert init.biases.shape == (m_total,)
        assert init.offsets.tolist() == [0, *np.cumsum(budget.per_class)]
        norms = np.linalg.norm(init.weights, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_kmeans_init_planes_point_at_their_lobes(self, rng):
        lifted, labels = self.two_lobe_problem(rng)
        budget = auto_budget(lifted, labels, 2, seed=0)
        init = init_kmeans(lifted, labels, budget, seed=0)
        mu = lifted.mean(axis=0)
        # class 0 owns two planes, one per lobe; each scores its own lobe
        # center above the global mean
        z_own = init.weights[:2] @ (np.array([[-4.0, 0.0], [4.0, 0.0]]) - mu).T
        assert z_own.max(axis=1).min() > 0.5

    def test_logreg_init_separates_clean_blobs(self, rng):
        x0 = blob(rng, (-3, 0), n=80)
        x1 = blob(rng, (3, 0), n=80)
        lifted = np.vstack([x0, x1])
        labels = np.repeat([0, 1], 80)
        init = init_logreg(lifted, labels, fixed_budget(2, 1), seed=0)
        z = lifted @ init.weights.T + init.biases
        assert ((z[:, 0] > z[:, 1]) == (labels == 0)).mean() > 0.95

    def test_random_init_is_small_and_seeded(self, rng):
        lifted, labels = self.two_lobe_problem(rng)
        a = init_random(lifted, labels, fixed_budget(2, 2), seed=3)
        b = init_random(lifted, labels, fixed_budget(2, 2), seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.abs(a.weights).max() < 0.1
        assert a.strategy == "random"

    def test_auto_init_prefers_geometry_on_clean_data(self, rng):
        lifted, labels = self.two_lobe_problem(rng)
        budget = auto_budget(lifted, labels, 2, seed=0)
        init = init_auto(lifted, labels, budget, seed=0)
        assert init.strategy == "kmeans"

    def test_dispatcher_honors_the_requested_strategy(self, rng):
        lifted, labels = self.two_lobe_problem(rng)
        budget = fixed_budget(2, 2)
        for strategy in ("kmeans", "logreg", "random"):
            init = initial_planes(lifted, labels, budget,
                                  InitSpec(strategy=strategy, seed=0))
            assert init.strategy == strategy

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_spec_refuses_a_seed_that_is_not_whole(self, seed):
        # such a seed used to build and fail later in numpy, naming no field
        with pytest.raises(ValueError,
                           match=f"^seed must be a whole number >= 0, "
                                 f"got {seed}"):
            InitSpec(seed=seed)

    def test_spec_stores_a_whole_seed_as_an_int(self):
        got = InitSpec(seed="3").seed
        assert got == 3 and isinstance(got, int)

    def test_dispatcher_rejects_unknown_strategy(self, rng):
        lifted, labels = self.two_lobe_problem(rng)
        with pytest.raises(ValueError):
            initial_planes(lifted, labels, fixed_budget(2, 1),
                           InitSpec(strategy="destiny", seed=0))


class TestInitFallback:
    """init_auto's chain: kmeans, then logreg when kmeans is rejected, then
    random when logreg fails; the note records every reason."""

    def rings(self):
        # both ring centroids sit at the global mean, so every kmeans
        # direction is degenerate
        angles = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        return np.vstack([ring, 3.0 * ring]), np.repeat([0, 1], 40)

    def test_degenerate_centroids_fall_back_to_logreg(self):
        lifted, labels = self.rings()
        init = init_auto(lifted, labels, fixed_budget(2, 1), seed=0)
        assert init.strategy == "logreg"
        assert init.notes[-1].startswith(
            "kmeans init rejected (class 0: degenerate centroid")

    def test_a_failed_logreg_falls_back_to_random(self, monkeypatch):
        from planemix import training

        def diverges(*args, **kwargs):
            raise FloatingPointError("binary plane fit diverged")

        monkeypatch.setattr(training, "fit_binary_plane", diverges)
        lifted, labels = self.rings()
        init = init_auto(lifted, labels, fixed_budget(2, 1), seed=0)
        assert init.strategy == "random"
        assert init.notes[-1].startswith(
            "kmeans init rejected (class 0: degenerate centroid")
        assert init.notes[-1].endswith(
            "; logreg init failed (binary plane fit diverged)")

    def test_a_negative_silhouette_falls_back_to_logreg(self, rng,
                                                         monkeypatch):
        from planemix import budgeting

        monkeypatch.setattr(budgeting, "_silhouette_from_dists",
                            lambda dists, assignments: -0.1)
        lifted = np.vstack([blob(rng, (-4, 0)), blob(rng, (4, 0))])
        labels = np.repeat([0, 1], 50)
        init = init_auto(lifted, labels, fixed_budget(2, 2), seed=0)
        assert init.strategy == "logreg"
        assert init.notes[-1] == (
            "kmeans init rejected (class 0: silhouette -0.100 < 0 at k=2; "
            "class 1: silhouette -0.100 < 0 at k=2)")


def traced_peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """numpy reports its arrays to tracemalloc, so the traced peak bounds
    the n x n arrays a call holds at once."""

    def test_init_above_the_budget_limit_forms_no_n_by_n_array(self, rng):
        n = MAX_BUDGET_POINTS + 1
        lifted = rng.standard_normal((n, 2))
        peak = traced_peak_bytes(init_kmeans, lifted, np.zeros(n, int),
                                 fixed_budget(1, 2), 0)
        assert peak < n * n * 8

    def test_budget_holds_one_n_by_n_array(self, rng):
        # the Gram matrix becomes the silhouette's distances in place
        n = 1200
        x = np.vstack([blob(rng, (0, 0), n=n // 2), blob(rng, (8, 0), n=n // 2)])
        peak = traced_peak_bytes(auto_plane_budget, x, 4, 0)
        assert peak < 1.5 * n * n * 8
