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

Both work on the Gram matrix G = X X^T of a class's lifted points. k-means
runs Lloyd in Gram form, as kernel k-means does (Dhillon, Guan & Kulis 2004,
"Kernel k-means, spectral clustering and normalized cuts"): a center is the
mean of a set of points, and its distances come from G times the 0/1
membership matrix, which an iteration updates only at the rows of the points
that changed sets. At 1024-2048 lifted columns this costs far less than
sweeping the points themselves. The budget builds G once per class, runs
every candidate k on it, then overwrites it in row blocks with the distance
matrix its silhouettes read, so a second n x n array never coexists with it.
The budget (every candidate k) and initialization (its one k) do this
through one routine, _clusterings. Without a Gram matrix (a direct call, or
a class above MAX_BUDGET_POINTS) k-means takes G's rows and products from
the points, and no n x n array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import training
from .checks import checked_choice, checked_real, checked_whole

SILHOUETTE_THRESHOLD = 0.20
# Lloyd stops after KMEANS_MAX_ITER iterations, or once no center moves by
# KMEANS_TOL
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6
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


def kmeans(points: np.ndarray, k: int, seed: int,
           gram: np.ndarray | None = None) -> KMeansResult:
    """Lloyd's algorithm with kmeans++ seeding, in Gram form; deterministic in seed.

    Emptied clusters are re-seeded at the point farthest from its current
    center, and the event is counted: repeated reseeding is the signal the
    initializer uses to distrust the clustering.

    Each center is the mean of a set of points, column j of a 0/1 matrix S.
    With G = X X^T, m_j = |C_j| and GS = G S, the squared distance from
    point i to center j is G_ii - 2 (GS)_ij / m_j + (S^T G S)_jj / m_j^2, so
    an iteration costs O(nk) once GS is known. After the first iteration GS
    is updated from the rows of G of the points whose sets changed, or
    recomputed when many did. The shift that stops the loop is exactly 0 for
    an unchanged set, as the feature-form update gives, and is read off the
    same products otherwise. The centers are formed once, at the end.

    gram, when given, is G for these points, built once by a caller that
    reuses it; without it G's rows and products come from the points
    themselves and no n x n array is formed.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    n, d = x.shape
    k = checked_whole("k", k, 1)
    if k > n:
        raise ValueError(f"k={k} out of range for {n} points")
    diag = _squared_norms(x, gram)
    rng = np.random.default_rng(seed)

    # kmeans++: each pick is drawn in proportion to its squared distance
    # to the nearest pick so far; a pick's row of G is column j of GS
    s = np.zeros((n, k))
    gs = np.empty((n, k))
    closest = np.full(n, np.inf)
    pick = rng.integers(n)
    for j in range(k):
        s[pick, j] = 1.0
        gs[:, j] = x @ x[pick] if gram is None else gram[pick]
        closest = np.minimum(
            closest, np.clip(diag + diag[pick] - 2.0 * gs[:, j], 0.0, None))
        if j + 1 < k:
            total = closest.sum()
            if total <= 0:  # all mass on existing centers; fall back to uniform
                pick = rng.integers(n)
            else:
                pick = rng.choice(n, p=closest / total)

    rows = np.arange(n)
    sizes = s.sum(axis=0)
    c_sq = _column_dots(s, gs) / sizes ** 2    # ||c_j||^2
    reseeds = 0
    for it in range(1, KMEANS_MAX_ITER + 1):
        d2 = _center_sq(diag, gs, sizes, c_sq)
        assign = d2.argmin(axis=1)
        new_s = np.zeros((n, k))
        for j in range(k):
            if not (assign == j).any():
                # farthest point from its assigned center takes over the slot
                assign[d2[rows, assign].argmax()] = j
                reseeds += 1
            new_s[:, j] = assign == j
        moved = new_s != s
        moved_rows = np.flatnonzero(moved.any(axis=1))
        if not moved_rows.size:
            break
        # the new GS from whichever reads the fewest numbers: the points,
        # twice (2nd), or G: a copy of its rows that moved (2 n_moved n)
        # while they are at most a quarter of it, else all of it (n^2)
        n_moved = moved_rows.size
        if gram is None or d <= min(n_moved, n // 2):
            new_gs = x @ (x.T @ new_s)
        elif 4 * n_moved <= n:
            new_gs = gs + gram[moved_rows].T @ (new_s[moved_rows]
                                                - s[moved_rows])
        else:
            new_gs = gram @ new_s
        new_sizes = new_s.sum(axis=0)
        new_c_sq = _column_dots(new_s, new_gs) / new_sizes ** 2
        # ||c_new - c_old||^2, for the centers whose sets changed
        shift_sq = (new_c_sq + c_sq
                    - 2.0 * _column_dots(new_s, gs) / (new_sizes * sizes))
        shift = np.sqrt(np.clip(shift_sq[moved.any(axis=0)], 0.0, None))
        s, gs, sizes, c_sq = new_s, new_gs, new_sizes, new_c_sq
        if shift.max() < KMEANS_TOL:
            break
    d2 = _center_sq(diag, gs, sizes, c_sq)
    assign = d2.argmin(axis=1)
    inertia = float(d2[rows, assign].sum())
    centers = np.stack([x[s[:, j] > 0].mean(axis=0) for j in range(k)])
    return KMeansResult(centers, assign, inertia, reseeds, it)


def _squared_norms(x: np.ndarray, gram: np.ndarray | None = None
                   ) -> np.ndarray:
    """The squared norm of each row of the points x, read off gram's
    diagonal when it is given.

    Lloyd's sums and the silhouette's distance sums stay within 4 n^2 times
    the largest squared norm, so a row whose squared norm is larger than
    float64 allows for that, or not finite, is refused by its row number.
    """
    n = max(x.shape[0], 1)
    with np.errstate(over="ignore"):
        diag = (x * x).sum(1) if gram is None else gram.diagonal().copy()
    fits = diag <= np.finfo(np.float64).max / (4.0 * n * n)
    if not fits.all():
        row = int(np.argmin(fits))
        raise ValueError(f"points row {row} " + (
            "is too large to cluster" if np.isfinite(x[row]).all()
            else "holds a non-finite value"))
    return diag


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _center_sq(diag: np.ndarray, gs: np.ndarray, sizes: np.ndarray,
               c_sq: np.ndarray) -> np.ndarray:
    # ||x_i||^2 + ||c_j||^2 - 2 x_i.c_j, clipped: rounding can dip a hair
    # below zero
    d2 = gs * (-2.0 / sizes)
    d2 += c_sq
    d2 += diag[:, None]
    return np.maximum(d2, 0.0, out=d2)


def _distances_in_place(gram: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite G = X X^T with the Euclidean distances between the rows of
    x, row block by row block, so no second n x n array is formed."""
    x_sq = (x * x).sum(1)
    for lo in range(0, gram.shape[0], _DISTANCE_BLOCK_ROWS):
        block = gram[lo:lo + _DISTANCE_BLOCK_ROWS]
        block *= -2.0
        block += x_sq[lo:lo + _DISTANCE_BLOCK_ROWS, None] + x_sq[None, :]
        np.clip(block, 0.0, None, out=block)
        np.sqrt(block, out=block)
    return gram


_DISTANCE_BLOCK_ROWS = 256


def silhouette_score(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over all points, textbook O(n^2) form.

    s_i = (b_i - a_i)/max(a_i, b_i) with a_i the mean distance to the point's
    own cluster (excluding itself) and b_i the smallest mean distance to any
    other cluster. Points in singleton clusters contribute 0. A row too
    large to cluster is refused by its number, as kmeans refuses it.
    """
    x = np.asarray(points, dtype=np.float64)
    _squared_norms(x)
    dists = _distances_in_place(x @ x.T, x)
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

    Tries k in 2..cap and keeps the best-silhouette k if the score clears
    the threshold; otherwise one plane. Classes too small to support the cap
    (n < 2*cap), and every class at cap 1, get one plane outright.
    """
    cap = checked_whole("cap", cap, 1)
    x = np.asarray(class_points, dtype=np.float64)
    n = x.shape[0]
    if cap < 2 or n < 2 * cap:
        return 1
    if n > MAX_BUDGET_POINTS:
        keep = np.random.default_rng((seed, 977)).choice(n, MAX_BUDGET_POINTS,
                                                         replace=False)
        x = x[keep]
    best_k, best_score = 1, -np.inf
    for k, (_, score) in enumerate(_clusterings(x, range(2, cap + 1), seed),
                                   start=2):
        if score is not None and score > best_score:
            best_k, best_score = k, score
    return best_k if best_score >= SILHOUETTE_THRESHOLD else 1


def _clusterings(points: np.ndarray, ks, seed
                 ) -> list[tuple[KMeansResult, float | None]]:
    """k-means on one class for each k in ks, and the silhouette of each
    clustering, all from one Gram matrix: every k clusters on it, then it
    becomes the distances in place, and it is freed on return. A silhouette
    is None when there is none to read: k = 1, fewer than two clusters left,
    or a class too large for an n x n matrix, which clusters without one."""
    if points.shape[0] > MAX_BUDGET_POINTS or max(ks) < 2:
        return [(kmeans(points, k, seed=seed), None) for k in ks]
    gram = points @ points.T
    tried = [kmeans(points, k, seed=seed, gram=gram) for k in ks]
    dists = _distances_in_place(gram, points)
    return [(km, _silhouette_from_dists(dists, km.assignments)
             if k > 1 and np.unique(km.assignments).size > 1 else None)
            for k, km in zip(ks, tried)]


@dataclass(frozen=True)
class PlaneBudget:
    per_class: tuple[int, ...]
    cap: int = 4

    def __post_init__(self):
        # named after train_classifier's arguments, which end up here
        object.__setattr__(self, "per_class", tuple(
            checked_whole("planes", m, 1) for m in self.per_class))
        object.__setattr__(self, "cap", checked_whole("planes_cap", self.cap, 1))

    @property
    def total(self) -> int:
        return sum(self.per_class)

    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.per_class)]).astype(np.int64)


def fixed_budget(class_count: int, planes: int | str, cap: int = 4) -> PlaneBudget:
    """The same plane count for every class; planes may be given as digits."""
    return PlaneBudget((checked_whole("planes", planes, 1),) * class_count, cap)


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


INIT_STRATEGIES = ("auto", "kmeans", "logreg", "random")


@dataclass(frozen=True)
class InitSpec:
    strategy: str = "auto"       # one of INIT_STRATEGIES
    noise_scale: float = 0.05    # logreg replica jitter, relative to ||w||
    seed: int = 0

    def __post_init__(self):
        # named after train_classifier's arguments, which end up here
        checked_choice("init", self.strategy, INIT_STRATEGIES)
        checked_real("init_noise", self.noise_scale, "be finite and >= 0")
        object.__setattr__(self, "seed", checked_whole("seed", self.seed, 0))


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
        [(km, score)] = _clusterings(pts, [m_c], _class_seed(seed, c))
        if km.reseeds > _KMEANS_MAX_RESEEDS:
            notes.append(f"class {c}: kmeans reseeded {km.reseeds} times")
        if score is not None and score < 0:
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
