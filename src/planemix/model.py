"""Per-class mixtures of hyperplanes pooled by a temperature-controlled soft-OR.

Each class c owns a block of planes. A plane scores an input by an affine map
in the lifted feature space; the class score is the softened maximum of its
plane scores,

    s_c(x) = (1/alpha) * log(sum_m exp(alpha * z_{c,m}(x))),

which approaches max_m z_{c,m} as alpha grows and always satisfies

    max_m z_{c,m} <= s_c <= max_m z_{c,m} + ln(M_c)/alpha.

Classes compete through an ordinary softmax over their pooled scores. Two
segment kernels, pooled_scores and segment_responsibilities, do all of the
pooling and softmax work; every other score path here calls them. Both
subtract each segment's maximum before exponentiating, so extreme scores and
sharp alphas do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeaturePipeline


@dataclass(frozen=True)
class PlaneMixture:
    """Frozen classifier: plane parameters, pooling sharpness, feature pipeline.

    Plane rows for class c live in weights[offsets[c]:offsets[c+1]]. Instances
    are immutable once built; reads are thread-safe.
    """

    weights: np.ndarray              # (m_total, lifted_dim) float64
    biases: np.ndarray               # (m_total,)
    offsets: np.ndarray              # (class_count + 1,) int, offsets[0] == 0
    alpha: float
    pipeline: FeaturePipeline
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        off = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "offsets", off)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("weights must be (m_total, dim) with aligned biases")
        if off.ndim != 1 or off.size < 2 or off[0] != 0 \
                or off[-1] != w.shape[0] or np.any(np.diff(off) < 1):
            raise ValueError("offsets must start at 0, end at m_total, "
                             "and give every class at least one plane")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("plane parameters must be finite")

    @property
    def class_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def plane_count(self) -> int:
        return self.weights.shape[0]

    @property
    def lifted_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def planes_per_class(self) -> np.ndarray:
        return np.diff(self.offsets)

    def with_alpha(self, alpha: float) -> "PlaneMixture":
        return PlaneMixture(self.weights, self.biases, self.offsets, alpha,
                            self.pipeline, self.class_names)


@dataclass(frozen=True)
class ForwardResult:
    plane_scores: tuple[np.ndarray, ...]       # per class, length M_c
    responsibilities: tuple[np.ndarray, ...]   # per class, sums to 1
    class_scores: np.ndarray                   # (class_count,)
    posterior: np.ndarray                      # (class_count,), sums to 1


def _one_block(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score vectors stacked as rows of one block, with its offsets."""
    z = np.atleast_1d(z)
    width = z.shape[-1]
    return z.reshape(-1, width), np.array([0, width])


def class_score(plane_scores: np.ndarray, alpha: float) -> float:
    """Soft-OR pooling of one class's plane scores."""
    z = np.atleast_1d(np.asarray(plane_scores, dtype=np.float64))
    if z.ndim != 1:
        raise ValueError(f"class_score takes one score vector, got shape {z.shape}")
    rows, offsets = _one_block(z)
    return float(pooled_scores(rows, offsets, alpha)[0, 0])


def responsibilities(plane_scores: np.ndarray, alpha: float) -> np.ndarray:
    """Within-class softmax at sharpness alpha over the last axis.

    Accepts one class's score vector or a batch of them stacked as rows;
    each vector's responsibilities sum to 1.
    """
    z = np.asarray(plane_scores, dtype=np.float64)
    rows, offsets = _one_block(z)
    return segment_responsibilities(rows, offsets, alpha).reshape(z.shape)


def posterior(class_scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: the responsibilities at unit sharpness."""
    return responsibilities(class_scores, 1.0)


def lifted_plane_scores(model: PlaneMixture, lifted: np.ndarray) -> np.ndarray:
    """(n, m_total) plane scores for rows already in the lifted space."""
    return lifted @ model.weights.T + model.biases


def pooled_scores(plane_mat: np.ndarray, offsets: np.ndarray,
                  alpha: float) -> np.ndarray:
    """Per-class soft-OR over columns of an (n, m_total) plane-score matrix."""
    n = plane_mat.shape[0]
    out = np.empty((n, len(offsets) - 1))
    for c in range(len(offsets) - 1):
        seg = plane_mat[:, offsets[c]:offsets[c + 1]]
        top = seg.max(axis=1)
        out[:, c] = top + np.log(
            np.exp(alpha * (seg - top[:, None])).sum(axis=1)) / alpha
    return out


def segment_responsibilities(plane_mat: np.ndarray, offsets: np.ndarray,
                             alpha: float) -> np.ndarray:
    """(n, m_total) responsibilities; each class block sums to 1 per row."""
    out = np.empty_like(plane_mat)
    for c in range(len(offsets) - 1):
        seg = plane_mat[:, offsets[c]:offsets[c + 1]]
        e = np.exp(alpha * (seg - seg.max(axis=1, keepdims=True)))
        out[:, offsets[c]:offsets[c + 1]] = e / e.sum(axis=1, keepdims=True)
    return out


def _plane_matrix(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """(n, m_total) plane scores for a batch of raw inputs."""
    lifted = model.pipeline.apply(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return lifted_plane_scores(model, lifted)


def plane_responsibilities(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """(n, m_total) within-class responsibilities for a batch of raw inputs."""
    return segment_responsibilities(_plane_matrix(model, x), model.offsets,
                                    model.alpha)


def forward(model: PlaneMixture, x: np.ndarray) -> ForwardResult:
    """Full single-example pass: plane scores, responsibilities, posterior."""
    plane_mat = _plane_matrix(model, x)
    if plane_mat.shape[0] != 1:
        raise ValueError(f"forward takes one example, got {plane_mat.shape[0]} rows")
    resp = segment_responsibilities(plane_mat, model.offsets, model.alpha)
    scores = pooled_scores(plane_mat, model.offsets, model.alpha)[0]
    bounds = model.offsets[1:-1]
    return ForwardResult(tuple(np.split(plane_mat[0], bounds)),
                         tuple(np.split(resp[0], bounds)), scores,
                         posterior(scores))


def class_scores(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """(n, class_count) pooled scores for a batch of raw inputs."""
    return pooled_scores(_plane_matrix(model, x), model.offsets, model.alpha)


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of an (n, C) score matrix."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_posterior(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    return log_softmax(class_scores(model, x))


def predict_proba(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    return posterior(class_scores(model, x))


def predict(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """Batch argmax prediction; score ties resolve to the lower class index."""
    return np.argmax(class_scores(model, x), axis=1)
