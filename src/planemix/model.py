"""Per-class mixtures of hyperplanes pooled by a temperature-controlled soft-OR.

Each class c owns a block of planes. A plane scores an input by an affine map
in the lifted feature space; the class score is the softened maximum of its
plane scores,

    s_c(x) = (1/alpha) * log(sum_m exp(alpha * z_{c,m}(x))),

which approaches max_m z_{c,m} as alpha grows and always satisfies

    max_m z_{c,m} <= s_c <= max_m z_{c,m} + ln(M_c)/alpha.

Classes compete through an ordinary softmax over their pooled scores. One
segment kernel, _segment_exp, does the pooling and softmax work behind every
score path here and behind each training step: each block's maximum, one
exp over the whole plane-score matrix less those maxima, and each block's
sum. Shifting out each block's maximum first keeps extreme scores and sharp
alphas from overflowing.

Below _MIN_COLUMN_ROWS = 128 rows, np.maximum.reduceat and np.add.reduceat
take the block maxima and sums along the rows. From 128 rows on they are
folded column by column, so each ufunc call covers every row instead of
one row and block: the maximum as a chain of np.maximum, the sum as the
block's first column plus the sum of the rest added left to right, and
the maxima are spread back over the planes by an index through the
plane-to-class map. That is the order of numpy 2.4.6's reduceat along a
row: it starts from a block's first entry and adds the pairwise sum of the
rest, a plain left-to-right loop below 8 terms. A maximum is exact in any
order, and of tied 0.0 and -0.0 both keep the later one. A block of more
than 8 planes keeps reduceat on its own columns. Both sides of the
threshold therefore give the same bits, which tests/test_model.py checks
against reduceat. The columns are contiguous when the plane matrix is
column-major, as lifted_plane_scores gives it from 128 rows by computing
(W @ l.T).T + b, bit-equal to l @ W.T + b and faster there (256 rows at
1024 dims: 163 against 216 us). The kernel's outputs are C-ordered like
reduceat's, because later reductions over them (a training step's usage
mean and bias gradient, log_softmax's row sum) add in an order set by
layout. log_softmax's row maximum is the one-block case of the same fold.
With one BLAS thread on a 2-core Xeon, scoring 3 + 3 planes at lifted
width 2 (the product plus pooling) took 22.4 us through reduceat against
25.6 us by columns at 128 rows, and 34.4 against 30.0 us at 256; at 2048
dims the column path won from 96 rows (155 against 182 us), and pooling
4096 rows took about half of reduceat's time. At one row the reduceat
kernel took 4.6 us against 16 us by columns, whose cost is mostly one
ufunc call per block and step, so every batch below the threshold,
one-row predict included, keeps reduceat.

Every batch path (class_scores, predict, plane_responsibilities) gets its
plane scores from _plane_matrix. It checks the raw batch once, then lifts
and multiplies it in row blocks of max(128, 4 MiB / (8 * lifted_dim)) rows
when the batch holds at least two such blocks, so a 16384-row batch at 2048
lifted dims never holds more than a 256-row lift and its temporaries. The
128-row floor keeps each block's matrix products off OpenBLAS's small-matrix
GEMM path. With OpenBLAS 0.3.31 on its SkylakeX kernel and one thread,
blocks of 2-64 rows moved the scores of a 16384-row batch at 2048 lifted
dims by up to 3.6e-15, while blocks of 96-2048 rows gave scores equal to a
whole-batch lift bit for bit; the floor leaves a margin because where the
small-matrix path ends depends on the CPU kernel OpenBLAS picks. Pooling,
responsibilities and argmax run once on the assembled (n, m_total) matrix.

predict on an RFF model evaluates the lift's cos and sin in float32 and
proves each label equal to the float64 one; every other step, and every
other path (class_scores, plane_responsibilities, training, calibration)
stays float64.
certified_predict takes the row blocks of _row_blocks, computes s (the
rows after standardize and PCA) once per block, and runs the float32 pass
on sub-blocks of sub = _TRIG_BLOCK_BYTES // (8 * D) rows of s, D the lifted
width: 32 rows at 2048 dims. Each sub-block is lifted with z = s @ omega +
phases cast to float32 for cos and sin, whose results land in one float64
lift buffer of sub rows made once per call, then multiplied by the planes
(lifted_plane_scores) into the block's plane-score matrix, which is pooled
once; the block is then certified and, where needed, rescored whole as
below. A batch of at most sub rows, such as one row, is lifted whole
without the buffer. Two effects make this faster. RffMap.transform adds
the phases in place, so a lift holds one z array: a 256-row block's
z = s @ omega + phases used to hold two 2 MiB arrays at once, glibc gave
the freed top of its heap back to the system after each block and
faulted it in again on the next, and a 16384-row predict took 129024
minor page faults, now 32 (class_scores, which shares the lift, went
from 129072 to 48). And at 2048 dims a sub-block's z (256 KiB) and lift
(512 KiB) fit a 4 MiB L2 cache. With one BLAS thread on a 2-core Xeon
(4 MiB L2), numpy 2.4.6 and the served moons model's shape, two sweeps
of 12 rounds of two 16384-row predicts gave these medians for the
sub-block rows: 16 rows 117-121k rows/s, 32 rows 118-129k, 64 rows
115-123k, 128 rows 92-99k; one float32 lift per 256-row block ran at
83-87k with the phases added in place and 35-37k without. 32 rows
(512 KiB) is at the top with the smallest footprint.

The cast to float32 moves z by at most |z| * 2^-24, cos and sin are
1-Lipschitz, and numpy's float32 kernels stay within delta = TRIG32_ERROR =
2^-21 of the true value at their float32 argument. On numpy 2.4.6 (AVX-512
kernels) that error stayed below 0.15 * delta over 2.2M arguments out to
|z| = 1e6, including multiples of pi/2; tests/test_certified_predict.py
checks it on the running numpy. The sub-block's z can also round
differently from the block's float64 z that a rescore lifts, since the
two come from matrix products of different shapes (OpenBLAS, for one,
takes a small-matrix kernel for some). Each is an inner product of d + 1
terms, d the width of s, so each lies within gamma_(d+1) * Z_i of the
exact z whatever its summation order (Higham 2002, section 3.1), and the
two lie within 2 * gamma_(d+1) * Z_i of each other, where Z_i =
sum_k |s_ik| * max_j |omega_kj| + max_j |phases_j| bounds |z_ij|. With
r = sqrt(2/F) for F frequencies, each lifted feature of row i therefore
moves by at most r * (Z_i * (2^-24 + 2 * gamma_(d+1)) + delta). Plane m
moves by at most that times ||w_m||_1, and soft-OR pooling is 1-Lipschitz
in the max norm, so each class score moves by at most

    B_i = L * r * (Z_i * (2^-24 + 2 * gamma_(d+1)) + delta) + E,
    L = max_m ||w_m||_1,

where the float64 slack E covers what rounding adds on both paths:

    E = 2 * gamma_n * (L * r * (1 + delta) + max_m |b_m| + (1 + ln M) / alpha)

with gamma_n = n*u / (1 - n*u), u = 2^-53, n = D + 2M + 16, D the lifted
width and M the most planes in a class. gamma_(D+1) * (sum |w||l| + |b|)
bounds a plane's matmul and bias rounding in any summation order, so it
holds for a sub-block's product as for a block's; the scale and the
float64 trig add a few u * r * L, and pooling adds a few u times the
largest plane score plus (1 + ln M) * u / alpha from exp, the block sum
and log. A row is certified when its top-two margin of
float32-path class scores exceeds 2 * B_i; the constants of that threshold
are rounded up by a factor 1 + 2^-30, which covers the rounding of z and
of the threshold itself. The threshold is per_z * (|s| @ gain) + floor,
gain from PlaneMixture._score_bound below, and per_z and floor computed
once per model. Rows it does not certify, among them every
exact tie and every NaN score, are rescored one whole block at a time by
the float64 lift of the block's s, the steps class_scores takes on that
block, so the labels are those of np.argmax(class_scores(model, x), axis=1)
bit for bit, ties going to the lower index. certified_predict returns the
rescored row indices next to the labels. On the benchmark's served moons
model (2048 lifted dims, 3 + 3 planes) and three 16384-row pools, B_i
stayed below 1.26e-5 while the measured class-score change stayed below
7.5e-8, at least 112 times inside it. Over 21 such pools the smallest
top-two margin was 3.5e-5, the largest threshold 2 * B_i 2.6e-5, and no
row needed rescoring; on 11 more (moons seeds 10000-10010) 2 of 180224
rows fell below their threshold, the smallest margin 2.5e-6, and were
rescored. A row whose threshold reaches reach = per_z * 2^126, per_z the
threshold's factor on Z_i, may have a z beyond float32 range (below reach,
Z_i < 2^126 and |z| stays under float32's largest value, about 2^128),
where the cast would give inf and cos and sin NaN. Its block skips the
float32 pass and is rescored whole, with those rows reported as rescored.

Every batch path refuses a finite input row that the model cannot score
within float64 range. For a row whose features after standardize and PCA
are s, Z = |s| @ gain + shift (PlaneMixture._score_bound) bounds every |z|
of an RFF lift (gain holds the largest |omega| of each feature, shift the
largest phase) or, times max(1, alpha), every plane score of a linear model
(the largest |w| of each feature, the largest bias). A row whose s is not
finite, or whose 2 * Z is not, is refused by its number in the caller's
batch with a ValueError and no numpy warning. The doubling leaves room for
the rounding of z, and on a linear model for pooling, which multiplies a
difference of two plane scores by alpha. certified_predict's threshold is
per_z * (|s| @ gain) plus a floor, from the same product. Computing s
under np.errstate and testing every row costs about 4 us a call, and a
one-row predict takes 17-37 us: with one BLAS thread on a 2-core Xeon, 25
alternating rounds of 2000 calls in one process gave medians of 39.46
against 36.53 us before the check on the served RFF model and 20.81
against 16.78 us on the linear aniso model (np.errstate alone, and every
numpy reduction on a one-row array, cost about 1 us). So _score_bound also
holds a limit, computed once per model by carrying a bound on every input
entry through the affine stages: a batch whose entries all lie within it
keeps every s and Z below 2^1000, and only a batch beyond it takes the
checked path. The test is np.abs(x).max() on a batch of more than 16
entries and, on fewer, Python's sum of their magnitudes (0.3 against
1.5 us on one row), which is at least their maximum; with it the same
medians were 37.33 and 17.19 us, and 4096-row predict on the linear model
241 us against 261 us with every row checked.

A PlaneMixture checks its arrays when it is built: ranks, finite values,
one bias per plane, weight columns equal to the pipeline's output width, and
offsets that pass _checked_offsets, the one offsets rule the segment kernel
also applies on every call. Errors start with the attribute they name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .checks import check_width, checked_array, checked_real
from .features import FeaturePipeline

# Bound on the error of numpy's float32 cos and sin against the true value
# at their float32 argument; tests/test_certified_predict.py checks it on
# the running numpy. The unit roundoffs of float32 and float64, and the
# factor that rounds the certificate's constants up (module docstring).
TRIG32_ERROR = 2.0 ** -21
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
_ROUND_UP = 1 + 2.0 ** -30


def _gamma(n: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u) at float64's unit roundoff u."""
    return n * _U64 / (1 - n * _U64)


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
        checked_real("alpha", self.alpha, "be finite and > 0")
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

    @cached_property
    def _score_bound(self) -> tuple[np.ndarray, float, float]:
        """(gain, shift, limit): on a row whose pre-lift features are s,
        Z = |s| @ gain + shift bounds every |z| of an RFF lift, or every
        plane score of a linear model times max(1, alpha); and a batch whose
        entries all lie within limit of 0 keeps every s and Z below 2^1000.
        Computed on first use, once per model (module docstring)."""
        pipe = self.pipeline
        if pipe.rff is not None:
            gain = np.abs(pipe.rff.omega).max(axis=1)
            shift = float(np.abs(pipe.rff.phases).max())
        else:
            sharp = max(1.0, self.alpha)
            gain = np.abs(self.weights).max(axis=0) * sharp
            shift = float(np.abs(self.biases).max()) * sharp
        std = pipe.standardizer
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # every |s_j| <= slope * limit + offset
            slope = (1.0 / std.scale).max()
            offset = (np.abs(std.mean) / std.scale).max()
            if pipe.pca is not None:
                widen = np.abs(pipe.pca.components).sum(axis=0).max()
                offset = widen * (offset + np.abs(pipe.pca.center).max())
                slope = slope * widen
            top = np.float64(2.0 ** 1000)
            limit = min((top - offset) / slope,
                        (top - shift - gain.sum() * offset)
                        / (gain.sum() * slope))
        return gain, shift, float(limit) if limit > 0 else 0.0

    @cached_property
    def _trig32_threshold(self) -> tuple[float, float, float]:
        """(per_z, floor, reach) of an RFF model: a row whose pre-RFF
        features are s and whose Z is |s| @ gain + shift (_score_bound)
        keeps its float32-trig label when its top-two margin exceeds
        per_z * (|s| @ gain) + floor, and while that threshold stays below
        reach every z of the row lies in float32 range. Computed on first
        use, once per model; the bound is derived in the module
        docstring."""
        rff = self.pipeline.rff
        root = np.sqrt(2.0 / rff.omega.shape[1])
        l1 = float(np.abs(self.weights).sum(axis=1).max())
        planes = int(self.planes_per_class.max())
        slack = 2 * _gamma(self.lifted_dim + 2 * planes + 16) * (
            l1 * root * (1 + TRIG32_ERROR) + float(np.abs(self.biases).max())
            + (1 + np.log(planes)) / self.alpha)
        per_z = float(2 * l1 * root * _ROUND_UP
                      * (_U32 + 2 * _gamma(rff.omega.shape[0] + 1)))
        floor = _ROUND_UP * (per_z * self._score_bound[1]
                             + 2 * (l1 * root * TRIG32_ERROR + slack))
        return per_z, float(floor), per_z * 2.0 ** 126

    def with_alpha(self, alpha: float) -> "PlaneMixture":
        return replace(self, alpha=alpha)


def responsibilities(plane_scores: np.ndarray, alpha: float) -> np.ndarray:
    """Within-class softmax at sharpness alpha over the last axis.

    Accepts one class's score vector or a batch of them stacked as rows;
    each vector's responsibilities sum to 1.
    """
    z = np.asarray(plane_scores, dtype=np.float64)
    width = np.atleast_1d(z).shape[-1]
    return segment_responsibilities(z.reshape(-1, width), np.array([0, width]),
                                    alpha).reshape(z.shape)


def posterior(class_scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: the responsibilities at unit sharpness."""
    return responsibilities(class_scores, 1.0)


def lifted_plane_scores(model: PlaneMixture, lifted: np.ndarray) -> np.ndarray:
    """(n, m_total) plane scores for rows already in the lifted space.

    From _MIN_COLUMN_ROWS rows the product is taken as (W @ l.T).T, faster
    there and column-major, the layout the segment kernel folds; fewer rows
    keep l @ W.T. Both give the same bits (module docstring).
    """
    if lifted.shape[0] < _MIN_COLUMN_ROWS:
        return lifted @ model.weights.T + model.biases
    return (model.weights @ lifted.T).T + model.biases


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


def _plane_classes(offsets: np.ndarray) -> np.ndarray:
    """(m_total,) class index of each plane for checked offsets."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _fold_blocks(ufunc, rows: np.ndarray, bounds: list[int]) -> np.ndarray:
    """(C, n): rows bounds[c] to bounds[c + 1] - 1 of rows folded by ufunc,
    in np.ufunc.reduceat's order along a row: the block's first row, ufunc
    the fold of the rest taken left to right. A block of more than 8 rows
    takes reduceat itself, whose order differs there (module docstring)."""
    out = np.empty((len(bounds) - 1, rows.shape[1]))
    for acc, lo, hi in zip(out, bounds, bounds[1:]):
        if hi - lo > 8:
            ufunc.reduceat(rows[lo:hi], [0], axis=0, out=acc[None])
        elif hi - lo == 1:
            acc[...] = rows[lo]
        elif hi - lo == 2:
            ufunc(rows[lo], rows[lo + 1], out=acc)
        else:
            ufunc(rows[lo + 1], rows[lo + 2], out=acc)
            for j in range(lo + 3, hi):
                ufunc(acc, rows[j], out=acc)
            ufunc(rows[lo], acc, out=acc)
    return out


def _segment_exp(plane_mat: np.ndarray, offsets: np.ndarray, alpha: float,
                 plane_class: np.ndarray | None = None):
    """Per class block: maxima top (n, C), e = exp(alpha * (z - top)) over the
    whole matrix, and the block sums of e (n, C).

    Below _MIN_COLUMN_ROWS rows, reduceat takes each block's maximum and sum
    along the rows. From there on they are folded column by column, with
    the maxima spread back over the planes through plane_class, the class of
    each plane (built here when not given); both give the same bits (module
    docstring). The column path returns transposed views.
    """
    offsets = _checked_offsets(offsets, plane_mat.shape[1])
    if plane_mat.shape[0] < _MIN_COLUMN_ROWS:
        starts = offsets[:-1]
        top = np.maximum.reduceat(plane_mat, starts, axis=1)
        e = np.exp(alpha * (plane_mat - np.repeat(top, offsets[1:] - starts,
                                                  axis=1)))
        return top, e, np.add.reduceat(e, starts, axis=1)
    if plane_class is None:
        plane_class = _plane_classes(offsets)
    bounds = offsets.tolist()
    columns = plane_mat.T
    top = _fold_blocks(np.maximum, columns, bounds)
    e = columns - top[plane_class]
    e *= alpha
    np.exp(e, out=e)
    return top.T, e.T, _fold_blocks(np.add, e, bounds).T


def _pooled(top: np.ndarray, sums: np.ndarray, alpha: float) -> np.ndarray:
    """Soft-OR scores from _segment_exp's maxima and sums, C-ordered."""
    out = np.log(sums, out=np.empty(sums.shape))
    out /= alpha
    out += top
    return out


def _shares(e: np.ndarray, sums: np.ndarray,
            plane_class: np.ndarray) -> np.ndarray:
    """Responsibilities from _segment_exp's e and sums, C-ordered."""
    return np.divide(e, sums[:, plane_class], out=np.empty(e.shape))


def _pool_and_share(plane_mat: np.ndarray, offsets: np.ndarray, alpha: float,
                    plane_class: np.ndarray):
    """(pooled_scores, segment_responsibilities) from one kernel pass, for
    checked offsets and their plane_class."""
    top, e, sums = _segment_exp(plane_mat, offsets, alpha, plane_class)
    return _pooled(top, sums, alpha), _shares(e, sums, plane_class)


def pooled_scores(plane_mat: np.ndarray, offsets: np.ndarray,
                  alpha: float) -> np.ndarray:
    """(n, class_count) soft-OR over the class blocks of a plane-score matrix."""
    top, _, sums = _segment_exp(plane_mat, offsets, alpha)
    return _pooled(top, sums, alpha)


def segment_responsibilities(plane_mat: np.ndarray, offsets: np.ndarray,
                             alpha: float) -> np.ndarray:
    """(n, m_total) responsibilities; each class block sums to 1 per row."""
    offsets = _checked_offsets(offsets, plane_mat.shape[1])
    plane_class = _plane_classes(offsets)
    _, e, sums = _segment_exp(plane_mat, offsets, alpha, plane_class)
    return _shares(e, sums, plane_class)


# target size of one block's lift, and the floor on its rows that keeps
# blocked scores bit-identical (module docstring)
_BLOCK_BYTES = 4 << 20
_MIN_BLOCK_ROWS = 128
# rows from which the segment kernel folds column by column (module docstring)
_MIN_COLUMN_ROWS = 128
# target size of one sub-block's lift in predict's float32 pass (module
# docstring)
_TRIG_BLOCK_BYTES = 512 << 10


def _row_blocks(model: PlaneMixture, n: int) -> list[slice]:
    """The row slices a checked batch of n rows is lifted in.

    With rows = max(128, 4 MiB // (8 * lifted_dim)), a batch of fewer than
    2 * rows rows is one block. A larger one is cut into blocks of rows
    rows; the remainder joins the last block, so no block is smaller than
    rows, whose floor of 128 keeps the scores equal to a whole-batch lift bit
    for bit. That is 256-row blocks at 2048 lifted dims; a linear model at
    width 2 would block only from 524288 rows.
    """
    if n < 2 * _MIN_BLOCK_ROWS:
        return [slice(0, n)]
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * model.weights.shape[1]))
    last = max(n // rows, 1) - 1
    return [slice(i * rows, n if i == last else (i + 1) * rows)
            for i in range(last + 1)]


def _checked_batch(model: PlaneMixture, x) -> tuple[np.ndarray, bool]:
    """x checked by FeaturePipeline.check_input, and whether an entry may
    lie beyond the limit of PlaneMixture._score_bound, so that _pre_lift
    must check its rows for overflow. On a few entries the test is Python's
    sum of their magnitudes, which is cheaper and at least their maximum
    (module docstring)."""
    x = model.pipeline.check_input(x)
    limit = model._score_bound[2]
    if x.size <= 16:
        return x, sum(map(abs, x.ravel().tolist())) > limit
    return x, bool(np.abs(x).max() > limit)


def _pre_lift(model: PlaneMixture, x: np.ndarray, start: int, guarded: bool,
              want_z: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(s, z): the rows x of a checked batch after the affine stages, and
    z = |s| @ gain (PlaneMixture._score_bound), the part of each row's
    bound Z that grows with s, when want_z or guarded asks for it; x starts
    at the batch's row start. Guarded, for a batch beyond the limit, s and
    z are computed with overflow ignored, and the first row whose s or
    doubled bound 2 * Z is not finite is refused by its number."""
    gain, shift, _ = model._score_bound
    if not guarded:
        s = model.pipeline.affine(x)
        return s, np.abs(s) @ gain if want_z else None
    with np.errstate(over="ignore", invalid="ignore"):
        s = model.pipeline.affine(x)
        z = np.abs(s) @ gain
        fits = np.isfinite(s).all(axis=1) & np.isfinite(2 * (z + shift))
    if not fits.all():
        raise ValueError(f"input row {start + int(np.argmin(fits))} is out "
                         f"of range: the model's features of it overflow "
                         f"float64")
    return s, z


def _lift(model: PlaneMixture, x: np.ndarray, start: int,
          guarded: bool) -> np.ndarray:
    """The lifted rows x of a checked batch (see _pre_lift)."""
    s = _pre_lift(model, x, start, guarded)[0]
    rff = model.pipeline.rff
    return s if rff is None else rff.transform(s)


def _plane_matrix(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """(n, m_total) plane scores for a batch of raw inputs.

    The whole batch is checked once, so errors name the caller's rows, then
    lifted and scored in the blocks of _row_blocks into one output matrix.
    """
    x, guarded = _checked_batch(model, x)
    blocks = _row_blocks(model, x.shape[0])
    if len(blocks) == 1:
        return lifted_plane_scores(model, _lift(model, x, 0, guarded))
    out = np.empty((x.shape[0], model.plane_count), order="F")
    for block in blocks:
        out[block] = lifted_plane_scores(
            model, _lift(model, x[block], block.start, guarded))
    return out


def plane_responsibilities(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """(n, m_total) within-class responsibilities for a batch of raw inputs."""
    return segment_responsibilities(_plane_matrix(model, x), model.offsets,
                                    model.alpha)


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
    """Row-wise log-softmax of an (n, C) score matrix; its row maximum is
    the one-block case of the segment kernel's maxima."""
    if scores.shape[0] < _MIN_COLUMN_ROWS:
        top = scores.max(axis=1, keepdims=True)
    else:
        top = _fold_blocks(np.maximum, scores.T, [0, scores.shape[1]]).T
    shifted = scores - top
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _top_two_margin(scores: np.ndarray) -> np.ndarray:
    """Per row, the best class score minus the second best; NaN where a
    score is NaN, and infinite for a one-class model."""
    if scores.shape[1] == 1:
        return np.full(scores.shape[0], np.inf)
    top = np.partition(scores, -2, axis=1)
    return top[:, -1] - top[:, -2]


def certified_predict(model: PlaneMixture,
                      x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch argmax labels, and the indices of the rows they were rescored
    for in float64.

    The labels equal np.argmax(class_scores(model, x), axis=1) exactly. A
    linear model takes that path and rescores no row. An RFF model lifts
    each block of _row_blocks with float32 cos and sin, in sub-blocks of
    _TRIG_BLOCK_BYTES // (8 * lifted_dim) rows through one reused buffer,
    and certifies each row's label by the bound in the module docstring,
    which holds for any split into sub-blocks. Every block that holds an
    uncertified row is rescored whole in float64 from its pre-RFF rows s,
    the steps class_scores runs on that block, so its scores are those of
    the whole batch bit for bit. A block holding a row that may leave
    float32 range skips the float32 pass, and those rows are the ones it
    reports.
    """
    rff = model.pipeline.rff
    if rff is None:
        return np.argmax(class_scores(model, x), axis=1), np.empty(0, np.intp)
    x, guarded = _checked_batch(model, x)
    per_z, floor, reach = model._trig32_threshold
    sub = max(1, _TRIG_BLOCK_BYTES // (8 * model.lifted_dim))
    # a block is the whole batch or holds at least max(128, 8 * sub) rows,
    # so once the batch outgrows one sub-block every block does
    lifted = np.empty((sub, model.lifted_dim)) if x.shape[0] > sub else None
    labels = np.empty(x.shape[0], dtype=np.intp)
    uncertified = []
    for block in _row_blocks(model, x.shape[0]):
        s, z = _pre_lift(model, x[block], block.start, guarded, True)
        bound = per_z * z + floor
        # only a row whose bound reaches reach can have a z beyond float32
        # range, so its block goes straight to the float64 rescore; Python's
        # max is the cheaper check on a few rows
        if bound.size and max(bound.tolist()) >= reach:
            unsure = bound >= reach
        else:
            if lifted is None:
                planes = lifted_plane_scores(model,
                                             rff.transform(s, np.float32))
            else:
                planes = np.empty((s.shape[0], model.plane_count), order="F")
                for i in range(0, s.shape[0], sub):
                    part = s[i:i + sub]
                    planes[i:i + sub] = lifted_plane_scores(model, rff.transform(
                        part, np.float32, lifted[:part.shape[0]]))
            scores = pooled_scores(planes, model.offsets, model.alpha)
            # not (margin > bound), so a NaN margin is uncertified too
            unsure = ~(_top_two_margin(scores) > bound)
        if unsure.any():
            uncertified.append(block.start + np.flatnonzero(unsure))
            scores = pooled_scores(lifted_plane_scores(model, rff.transform(s)),
                                   model.offsets, model.alpha)
        labels[block] = np.argmax(scores, axis=1)
    return labels, (np.concatenate(uncertified) if uncertified
                    else np.empty(0, np.intp))


def predict(model: PlaneMixture, x: np.ndarray) -> np.ndarray:
    """Batch argmax prediction; score ties resolve to the lower class index.

    The labels of certified_predict, which are those of
    np.argmax(class_scores(model, x), axis=1).
    """
    return certified_predict(model, x)[0]
