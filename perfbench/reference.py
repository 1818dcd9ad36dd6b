"""Untimed reference scoring from a model's arrays, and computed kernel counts.

The reference re-derives class scores from the raw arrays of a PlaneMixture
(standardize, optional PCA, optional cos/sin lift, plane matmul, per-class
log-sum-exp), written here rather than calling the library's scoring, so
the benchmark can check `model.predict` against something it does not share
code with. It follows the same arithmetic order as the library, so labels
agree exactly except where two class scores tie to rounding.
"""

from __future__ import annotations

import numpy as np

# a row whose top two reference scores are closer than this is a tie: either
# label is correct, since the two paths may round the last bits differently
TIE_MARGIN = 1e-9
FLOAT_BYTES = 8


def lift(model, x: np.ndarray) -> np.ndarray:
    pipe = model.pipeline
    z = (x - pipe.standardizer.mean) / pipe.standardizer.scale
    if pipe.pca is not None:
        z = (z - pipe.pca.center) @ pipe.pca.components
    if pipe.rff is not None:
        u = z @ pipe.rff.omega + pipe.rff.phases
        root = np.sqrt(2.0 / pipe.rff.omega.shape[1])
        z = root * np.concatenate([np.cos(u), np.sin(u)], axis=-1)
    return z


def class_scores(model, x: np.ndarray) -> np.ndarray:
    planes = lift(model, np.atleast_2d(np.asarray(x, dtype=np.float64))) \
        @ model.weights.T + model.biases
    off = model.offsets
    out = np.empty((planes.shape[0], len(off) - 1))
    for c in range(len(off) - 1):
        seg = planes[:, off[c]:off[c + 1]]
        top = seg.max(axis=1)
        out[:, c] = top + np.log(
            np.exp(model.alpha * (seg - top[:, None])).sum(axis=1)) / model.alpha
    return out


def label_mismatches(predicted: np.ndarray, scores: np.ndarray) -> int:
    """Rows whose predicted label is not a reference argmax (ties excused)."""
    predicted = np.asarray(predicted)
    best = scores.max(axis=1)
    picked = scores[np.arange(scores.shape[0]), predicted]
    return int((best - picked > TIE_MARGIN * np.maximum(1.0, np.abs(best))).sum())


def kernel_counts(model) -> dict[str, float]:
    """Per-row flops, trig evaluations and array bytes, from shapes alone.

    Bytes count what each numpy step of the library's lift reads and writes
    for one row (x @ omega, + phases, cos, sin, concatenate, scale); shared
    parameter arrays are left out, since batching amortizes them. The plane
    matmul reads the lifted row and writes one score per plane.
    """
    pipe = model.pipeline
    d_lift = model.lifted_dim
    planes = model.plane_count
    out = {"features.rff_flops_per_row": 0.0, "features.rff_trig_per_row": 0.0,
           "features.rff_bytes_per_row": 0.0}
    if pipe.rff is not None:
        d_in, freq = pipe.rff.omega.shape
        out["features.rff_flops_per_row"] = float(2 * d_in * freq + freq
                                                  + 2 * freq)
        out["features.rff_trig_per_row"] = float(2 * freq)
        out["features.rff_bytes_per_row"] = float(FLOAT_BYTES * (
            d_in + freq          # x @ omega
            + 2 * freq           # + phases
            + 2 * freq           # cos
            + 2 * freq           # sin
            + 4 * freq           # concatenate
            + 4 * freq))         # scale by sqrt(2/D)
    out["model.plane_flops_per_row"] = float(2 * d_lift * planes + planes)
    out["model.plane_bytes_per_row"] = float(FLOAT_BYTES * (d_lift + planes))
    return out
