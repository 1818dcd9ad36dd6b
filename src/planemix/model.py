"""Per-class mixtures of hyperplanes pooled by a temperature-controlled soft-OR.

Each class c owns a block of planes. A plane scores an input by an affine map
in the lifted feature space; the class score is the softened maximum of its
plane scores,

    s_c(x) = (1/alpha) * log(sum_m exp(alpha * z_{c,m}(x))),

which approaches max_m z_{c,m} as alpha grows and always satisfies

    max_m z_{c,m} <= s_c <= max_m z_{c,m} + ln(M_c)/alpha.

Classes compete through an ordinary softmax over their pooled scores. One
segment kernel, _segment_exp, does the pooling and softmax work behind every
score path here, with no loop over classes: reduceat takes each block's
maximum and sum around one exp over the whole plane-score matrix. Shifting
out each block's maximum first keeps extreme scores and sharp alphas from
overflowing.

Every batch path (class_scores, predict, predict_proba, log_posterior,
plane_responsibilities) gets its plane scores from _plane_matrix. It checks
the raw batch once, then lifts and multiplies it in row blocks of
max(128, 4 MiB / (8 * lifted_dim)) rows when the batch holds at least two
such blocks, so a 16384-row batch at 2048 lifted dims never holds more than a
256-row lift and its temporaries. The 128-row floor keeps each block's matrix
products off OpenBLAS's small-matrix GEMM path. With OpenBLAS 0.3.31 on its
SkylakeX kernel and one thread, blocks of 2-64 rows moved the scores of a
16384-row batch at 2048 lifted dims by up to 3.6e-15, while blocks of
96-2048 rows gave scores equal to a whole-batch lift bit for bit; the floor
leaves a margin because where the small-matrix path ends depends on the CPU
kernel OpenBLAS picks. Pooling, responsibilities and argmax run once on the
assembled (n, m_total) matrix.

A PlaneMixture checks its arrays when it is built: ranks, finite values,
one bias per plane, weight columns equal to the pipeline's output width, and
offsets that pass _checked_offsets, the one offsets rule the segment kernel
also applies on every call. Errors start with the attribute they name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeaturePipeline, check_width, checked_array


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
        w = checked_array("weights", self.weights, 2)
        b = checked_array("biases", self.biases, 1)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "offsets", np.asarray(
            _checked_offsets(self.offsets, w.shape[0]), dtype=np.int64))
        check_width("biases", b.shape[0], "entries", w.shape[0])
        check_width("weights", w.shape[1], "columns", self.pipeline.output_dim)
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.class_names is not None:
            check_width("class_names", len(self.class_names), "entries",
                        self.class_count)

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


def _checked_offsets(offsets, m_total: int) -> np.ndarray:
    """offsets as an integer array, or a ValueError naming them.

    They must be whole numbers that start at 0, end at m_total and strictly
    increase, so every class block holds at least one plane; reduceat would
    otherwise score an empty block with its neighbour's value or fold
    trailing columns into the last block. Integer input passes through
    unconverted, and the checks run on Python ints, which costs less than
    numpy calls on one row.
    """
    offsets = np.asarray(offsets)
    # sorted(set(...)) equals the list only when it strictly increases
    bounds = offsets.tolist()
    if offsets.ndim != 1 or len(bounds) < 2 or bounds[0] != 0 \
            or bounds[-1] != m_total or sorted(set(bounds)) != bounds \
            or (offsets.dtype.kind not in "iu"
                and not all(float(v).is_integer() for v in bounds)):
        raise ValueError(f"offsets must be whole numbers that start at 0, end "
                         f"at {m_total} and strictly increase, got {bounds}")
    return offsets if offsets.dtype.kind in "iu" else offsets.astype(np.int64)


def _segment_exp(plane_mat: np.ndarray, offsets: np.ndarray, alpha: float):
    """Per class block: maxima top (n, C), e = exp(alpha * (z - top)) over the
    whole matrix, block sums of e (n, C), and the block sizes."""
    offsets = _checked_offsets(offsets, plane_mat.shape[1])
    starts = offsets[:-1]
    sizes = offsets[1:] - starts
    top = np.maximum.reduceat(plane_mat, starts, axis=1)
    e = np.exp(alpha * (plane_mat - np.repeat(top, sizes, axis=1)))
    return top, e, np.add.reduceat(e, starts, axis=1), sizes


def pooled_scores(plane_mat: np.ndarray, offsets: np.ndarray,
                  alpha: float) -> np.ndarray:
    """(n, class_count) soft-OR over the class blocks of a plane-score matrix."""
    top, _, sums, _ = _segment_exp(plane_mat, offsets, alpha)
    return top + np.log(sums) / alpha


def segment_responsibilities(plane_mat: np.ndarray, offsets: np.ndarray,
                             alpha: float) -> np.ndarray:
    """(n, m_total) responsibilities; each class block sums to 1 per row."""
    _, e, sums, sizes = _segment_exp(plane_mat, offsets, alpha)
    return e / np.repeat(sums, sizes, axis=1)


# target size of one block's lift, and the floor on its rows that keeps
# blocked scores bit-identical (module docstring)
_BLOCK_BYTES = 4 << 20
_MIN_BLOCK_ROWS = 128


def _plane_matrix(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """(n, m_total) plane scores for a batch of raw inputs.

    With rows = max(128, 4 MiB // (8 * lifted_dim)), a batch of fewer than
    2 * rows rows is lifted and scored whole. A larger one is checked once,
    so errors name the caller's rows, then lifted and scored in blocks of
    rows rows into one output matrix; the remainder joins the last block, so
    no block is smaller than rows, whose floor of 128 keeps the scores equal
    to a whole-batch lift bit for bit. That is 256-row blocks at 2048 lifted
    dims; a linear model at width 2 would block only from 524288 rows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * model.lifted_dim))
    pipe = model.pipeline
    if n < 2 * rows:
        return lifted_plane_scores(model, pipe.apply(x))
    pipe.check_input(x)
    out = np.empty((n, model.plane_count))
    last = n // rows - 1
    for i in range(last + 1):
        block = slice(i * rows, n if i == last else (i + 1) * rows)
        out[block] = lifted_plane_scores(model, pipe.transform(x[block]))
    return out


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
    """(n, class_count) pooled scores for a batch of raw inputs.

    A batch of at least 2 * max(128, 4 MiB // (8 * lifted_dim)) rows is
    lifted in blocks of that many rows (see _plane_matrix). No block is
    smaller than 128 rows, which keeps the matrix products off OpenBLAS's
    small-matrix GEMM path and its different rounding, so the scores equal
    those of one whole-batch lift exactly.
    """
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
