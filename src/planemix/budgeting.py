"""Plane budgeting and geometry-aware initialization.

How many planes a class gets is decided by clustering its training points in
the lifted space and reading the silhouette: clear multi-cluster structure
earns extra planes, anything murky defaults to one. Initial plane directions
then point from the global data mean toward the per-cluster centroids, which
starts training with planes already spread over the class's regions.

k-means and the silhouette are written out here rather than imported: the
budget contract depends on details most libraries do not pin down or expose
(greedy++-free seeding, farthest-point reseeding of emptied clusters with a
reseed count, exact brute-force silhouette).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SILHOUETTE_THRESHOLD = 0.20
# budgeting clusters at most this many points per class; beyond it, a seeded
# subsample keeps the O(n^2) silhouette affordable
MAX_BUDGET_POINTS = 5000


@dataclass
class KMeansResult:
    centers: np.ndarray       # (k, d)
    assignments: np.ndarray   # (n,) int
    inertia: float
    reseeds: int              # emptied clusters re-seeded during Lloyd updates
    iterations: int


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100,
           tol: float = 1e-6) -> KMeansResult:
    """Lloyd's algorithm with kmeans++ seeding; deterministic in seed.

    Emptied clusters are re-seeded at the point farthest from its current
    center, and the event is counted: repeated reseeding is the signal the
    initializer uses to distrust the clustering.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if x.ndim != 2 or n == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)

    x_sq = (x * x).sum(1)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = _pairwise_sq(x, centers[:1], x_sq)[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:  # all mass on existing centers; fall back to uniform
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centers[j] = x[idx]
        closest = np.minimum(
            closest, _pairwise_sq(x, centers[j:j + 1], x_sq)[:, 0])

    reseeds = 0
    assign = np.zeros(n, dtype=np.int64)
    for it in range(1, max_iter + 1):
        d2 = _pairwise_sq(x, centers, x_sq)
        assign = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            if not mask.any():
                # farthest point from its assigned center takes over the slot
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
    d2 = _pairwise_sq(x, centers, x_sq)
    assign = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return KMeansResult(centers, assign, inertia, reseeds, it)


def _pairwise_sq(x: np.ndarray, y: np.ndarray,
                 x_sq: np.ndarray | None = None) -> np.ndarray:
    # ||x||^2 + ||y||^2 - 2 x.y, clipped: rounding can dip a hair below zero;
    # x_sq, when given, is ||x||^2 computed once by a caller that reuses x
    if x_sq is None:
        x_sq = (x * x).sum(1)
    d2 = (x_sq[:, None] + (y * y).sum(1)[None, :] - 2.0 * (x @ y.T))
    return np.clip(d2, 0.0, None)


def silhouette_score(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over all points, textbook O(n^2) form.

    s_i = (b_i - a_i)/max(a_i, b_i) with a_i the mean distance to the point's
    own cluster (excluding itself) and b_i the smallest mean distance to any
    other cluster. Points in singleton clusters contribute 0.
    """
    x = np.asarray(points, dtype=np.float64)
    dists = np.sqrt(_pairwise_sq(x, x))
    return _silhouette_from_dists(dists, np.asarray(assignments))


def _silhouette_from_dists(dists: np.ndarray, assignments: np.ndarray) -> float:
    labels, cluster = np.unique(assignments, return_inverse=True)
    if labels.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    rows = np.arange(dists.shape[0])
    onehot = np.eye(labels.size)[cluster]
    sums = dists @ onehot                 # (n, k) distance sum to each cluster
    sizes = onehot.sum(axis=0)
    own = sizes[cluster]
    mean_to = sums / sizes
    mean_to[rows, cluster] = np.inf       # b ranges over the other clusters
    b = mean_to.min(axis=1)
    scores = np.zeros(rows.size)          # convention: singletons score 0
    multi = own > 1
    a = sums[rows, cluster][multi] / (own[multi] - 1)
    scores[multi] = (b[multi] - a) / np.maximum(a, b[multi])
    return float(scores.mean())


def auto_plane_budget(class_points: np.ndarray, cap: int = 4, seed: int = 0) -> int:
    """Plane count for one class from clustering structure in the lifted space.

    Tries k in 2..min(cap, n-1) and keeps the best-silhouette k if the score
    clears the threshold; otherwise one plane. Classes too small to support
    the cap (n < 2*cap) get one plane outright.
    """
    x = np.asarray(class_points, dtype=np.float64)
    n = x.shape[0]
    if n < 2 * cap:
        return 1
    if n > MAX_BUDGET_POINTS:
        keep = np.random.default_rng((seed, 977)).choice(n, MAX_BUDGET_POINTS,
                                                         replace=False)
        x, n = x[keep], MAX_BUDGET_POINTS
    k_hi = min(cap, n - 1)
    if k_hi < 2:
        return 1
    dists = np.sqrt(_pairwise_sq(x, x))
    best_k, best_score = 1, -np.inf
    for k in range(2, k_hi + 1):
        km = kmeans(x, k, seed)
        if np.unique(km.assignments).size < 2:
            continue
        score = _silhouette_from_dists(dists, km.assignments)
        if score > best_score:
            best_k, best_score = k, score
    return best_k if best_score >= SILHOUETTE_THRESHOLD else 1


@dataclass(frozen=True)
class PlaneBudget:
    per_class: tuple[int, ...]
    cap: int = 4

    def __post_init__(self):
        # named after train_classifier's arguments, which end up here
        if any(m < 1 for m in self.per_class):
            raise ValueError(f"planes must be >= 1 for every class, got "
                             f"{list(self.per_class)}")
        if self.cap < 1:
            raise ValueError(f"planes_cap must be >= 1, got {self.cap!r}")

    @property
    def total(self) -> int:
        return sum(self.per_class)

    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.per_class)]).astype(np.int64)


def fixed_budget(class_count: int, planes: int | str, cap: int = 4) -> PlaneBudget:
    """The same plane count for every class; planes may be given as digits."""
    try:
        count = int(planes)
        if count != float(planes):  # int() would truncate 2.5 to 2
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"planes must be 'auto' or a whole number, "
                         f"got {planes!r}") from None
    return PlaneBudget((count,) * class_count, cap)


def auto_budget(lifted: np.ndarray, labels: np.ndarray, class_count: int,
                cap: int = 4, seed: int = 0) -> PlaneBudget:
    """Run auto_plane_budget per class; per-class seeds derive from (seed, c)."""
    per = []
    for c in range(class_count):
        pts = lifted[labels == c]
        if pts.shape[0] == 0:
            raise ValueError(f"class {c} has no training points")
        per.append(auto_plane_budget(pts, cap, seed=_class_seed(seed, c)))
    return PlaneBudget(tuple(per), cap)


def _class_seed(seed: int, c: int) -> tuple[int, int]:
    return (seed, c)


@dataclass(frozen=True)
class InitSpec:
    strategy: str = "auto"       # auto | kmeans | logreg | random
    noise_scale: float = 0.05    # logreg replica jitter, relative to ||w||
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("auto", "kmeans", "logreg", "random"):
            raise ValueError(f"unknown init strategy {self.strategy!r}")


@dataclass
class InitialPlanes:
    weights: np.ndarray
    biases: np.ndarray
    offsets: np.ndarray
    strategy: str                     # what actually ran (auto resolves)
    notes: list[str]


_DEGENERATE_NORM = 1e-9
_KMEANS_MAX_RESEEDS = 2


def init_kmeans(lifted: np.ndarray, labels: np.ndarray, budget: PlaneBudget,
                seed: int = 0) -> InitialPlanes:
    """Planes face per-cluster centroids from the global mean, unit length.

    For class c with M_c planes, cluster its points into M_c groups; each
    plane gets w = (mu_cluster - mu_all)/||...||, b = -w.mu_all, i.e. the
    plane scores grow in the direction of its cluster and vanish at the
    global mean. Degenerate directions fall back to a random unit vector.
    """
    x = np.asarray(lifted, dtype=np.float64)
    offsets = budget.offsets()
    w = np.zeros((budget.total, x.shape[1]))
    b = np.zeros(budget.total)
    mu_all = x.mean(axis=0)
    notes = []
    for c, m_c in enumerate(budget.per_class):
        pts = x[labels == c]
        if pts.shape[0] < m_c:
            raise ValueError(f"class {c}: {pts.shape[0]} points cannot seed "
                             f"{m_c} planes")
        rng = np.random.default_rng(_class_seed(seed, c))
        km = kmeans(pts, m_c, seed=_class_seed(seed, c))
        if km.reseeds > _KMEANS_MAX_RESEEDS:
            notes.append(f"class {c}: kmeans reseeded {km.reseeds} times")
        if m_c >= 2 and pts.shape[0] <= MAX_BUDGET_POINTS \
                and np.unique(km.assignments).size >= 2:
            score = silhouette_score(pts, km.assignments)
            if score < 0:
                notes.append(f"class {c}: silhouette {score:.3f} < 0 at k={m_c}")
        for j in range(m_c):
            direction = km.centers[j] - mu_all
            norm = np.linalg.norm(direction)
            if norm < _DEGENERATE_NORM:
                direction = rng.standard_normal(x.shape[1])
                norm = np.linalg.norm(direction)
                notes.append(f"class {c}: degenerate centroid, random direction")
            row = offsets[c] + j
            w[row] = direction / norm
            b[row] = -w[row] @ mu_all
    return InitialPlanes(w, b, offsets, "kmeans", notes)


def init_logreg(lifted: np.ndarray, labels: np.ndarray, budget: PlaneBudget,
                noise_scale: float = 0.05, seed: int = 0) -> InitialPlanes:
    """One-vs-rest logistic planes, replicated with jitter to fill the budget."""
    from . import training  # runtime import; training imports this module

    x = np.asarray(lifted, dtype=np.float64)
    offsets = budget.offsets()
    w = np.zeros((budget.total, x.shape[1]))
    b = np.zeros(budget.total)
    for c, m_c in enumerate(budget.per_class):
        targets = (labels == c).astype(np.int64)
        w_c, b_c = training.fit_binary_plane(x, targets, seed=_class_seed(seed, c))
        rng = np.random.default_rng(_class_seed(seed, c))
        std = noise_scale * np.linalg.norm(w_c)
        for j in range(m_c):
            row = offsets[c] + j
            jitter = std * rng.standard_normal(x.shape[1]) if j > 0 else 0.0
            w[row] = w_c + jitter
            b[row] = b_c
    return InitialPlanes(w, b, offsets, "logreg", [])


def init_random(lifted: np.ndarray, labels: np.ndarray, budget: PlaneBudget,
                seed: int = 0) -> InitialPlanes:
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal((budget.total, lifted.shape[1]))
    return InitialPlanes(w, np.zeros(budget.total), budget.offsets(), "random", [])


def init_auto(lifted: np.ndarray, labels: np.ndarray, budget: PlaneBudget,
              noise_scale: float = 0.05, seed: int = 0) -> InitialPlanes:
    """kmeans if its clustering looks stable, else logreg, else random."""
    try:
        planes = init_kmeans(lifted, labels, budget, seed)
        if not planes.notes:
            return planes
        reason = "; ".join(planes.notes)
    except ValueError as exc:
        reason = str(exc)
    try:
        planes = init_logreg(lifted, labels, budget, noise_scale, seed)
        planes.notes.append(f"kmeans init rejected ({reason})")
        return planes
    except (ValueError, FloatingPointError) as exc:
        planes = init_random(lifted, labels, budget, seed)
        planes.notes.append(f"kmeans init rejected ({reason}); "
                            f"logreg init failed ({exc})")
        return planes


def initial_planes(lifted: np.ndarray, labels: np.ndarray, budget: PlaneBudget,
                   spec: InitSpec) -> InitialPlanes:
    if spec.strategy == "kmeans":
        return init_kmeans(lifted, labels, budget, spec.seed)
    if spec.strategy == "logreg":
        return init_logreg(lifted, labels, budget, spec.noise_scale, spec.seed)
    if spec.strategy == "random":
        return init_random(lifted, labels, budget, spec.seed)
    return init_auto(lifted, labels, budget, spec.noise_scale, spec.seed)
