"""Interpretability reports: which plane answers for which region, and why.

Responsibilities are evaluated at the model's stored sharpness. With the
annealed final value they are near one-hot, so "which plane fired" is almost
always a crisp question, and each prediction reduces to one plane's weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import checked_whole
from .datasets import csv_text
from .model import PlaneMixture, plane_responsibilities, predict


@dataclass(frozen=True)
class ResponsibilityStats:
    mean_max: float       # mean over samples of the winning responsibility
    mean_entropy: float   # mean responsibility entropy (nats), 0*log(0) := 0


def _own_planes(model: PlaneMixture, labels: np.ndarray) -> np.ndarray:
    """(n, m_total) mask of the planes belonging to each sample's class."""
    classes = np.arange(model.class_count)
    if not np.isin(labels, classes).all():
        raise ValueError(f"labels must be class indices in [0, {classes.size})")
    return np.repeat(classes, model.planes_per_class) == labels[:, None]


def responsibility_stats(model: PlaneMixture, x: np.ndarray,
                         labels: np.ndarray) -> ResponsibilityStats:
    """Sharpness of within-class responsibilities on the true class's planes."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("need at least one sample")
    own = _own_planes(model, labels)
    # other classes' planes read 0, which adds nothing to either statistic
    block = np.where(own, plane_responsibilities(model, x), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(block > 0, block * np.log(block), 0.0)
    return ResponsibilityStats(float(block.max(axis=1).mean()),
                               float(-terms.sum(axis=1).mean()))


@dataclass
class PlaneUsage:
    fractions: list[np.ndarray]   # per class, winner fraction per plane
    absent: list[bool]            # classes with no samples get a zero row


def plane_usage(model: PlaneMixture, x: np.ndarray,
                labels: np.ndarray) -> PlaneUsage:
    """Fraction of each class's samples won by each of its planes.

    A plane "wins" a sample when it has the largest responsibility; ties go
    to the lower plane index. Rows sum to 1 except for absent classes, which
    are zero and flagged.
    """
    labels = np.asarray(labels)
    own = _own_planes(model, labels)
    # responsibilities are >= 0, so a plane of another class never wins
    winners = np.where(own, plane_responsibilities(model, x), -1.0).argmax(axis=1)
    wins = np.bincount(winners, minlength=model.plane_count)
    members = own[:, model.offsets[:-1]].sum(axis=0)  # samples per class
    per_plane = np.repeat(members, model.planes_per_class)
    fractions = np.divide(wins, per_plane, out=np.zeros(model.plane_count),
                          where=per_plane > 0)
    return PlaneUsage(np.split(fractions, model.offsets[1:-1]),
                      [bool(m == 0) for m in members])


def plane_saliency(model: PlaneMixture, class_idx: int, plane_idx: int,
                   feature_names: list[str] | None = None) -> list[tuple[str, float]]:
    """Input-feature weights of one plane, in raw units, largest magnitude first.

    Requires an affine pipeline: a random-features stage scrambles the
    correspondence between plane weights and named inputs, so saliency is
    refused there. Standardization (and PCA, being linear) are folded back
    into raw-feature units.
    """
    pipe = model.pipeline
    if not pipe.is_linear:
        raise ValueError("plane_saliency needs an affine pipeline; "
                         "random-feature lifts have no per-input weights")
    if not 0 <= class_idx < model.class_count:
        raise ValueError(f"class index {class_idx} out of range")
    lo, hi = model.offsets[class_idx], model.offsets[class_idx + 1]
    if not 0 <= plane_idx < hi - lo:
        raise ValueError(f"plane index {plane_idx} out of range for class {class_idx}")
    w = model.weights[lo + plane_idx]
    if pipe.pca is not None:
        w = pipe.pca.components @ w
    w_raw = w / pipe.standardizer.scale
    names = feature_names or [f"f{j}" for j in range(w_raw.shape[0])]
    if len(names) != w_raw.shape[0]:
        raise ValueError("feature_names length does not match input dimension")
    return [(names[j], float(w_raw[j])) for j in np.argsort(-np.abs(w_raw))]


@dataclass
class GridMap:
    """Values sampled on a 2-D lattice; rows follow ys, columns follow xs."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray        # (len(ys), len(xs)) or (len(ys), len(xs), k)
    kind: str                 # "decision" or "responsibility"

    def to_csv(self, path: str) -> None:
        """One row per lattice point: x, y, then its value, or its k values
        as columns v0..v{k-1}."""
        header = ["x", "y", "value"] if self.values.ndim == 2 else \
            ["x", "y", *(f"v{m}" for m in range(self.values.shape[2]))]
        values = self.values.reshape(-1, len(header) - 2).tolist()
        points = ((float(x), float(y)) for y in self.ys for x in self.xs)
        with open(path, "w") as fh:
            fh.write(csv_text(header, ([*xy, *v]
                                       for xy, v in zip(points, values))))


def bounds_from(x: np.ndarray):
    """Data bounding box padded by a tenth of each side's span (of 1 for a
    flat side)."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    pad = 0.1 * np.where(hi > lo, hi - lo, 1.0)
    return ((float(lo[0] - pad[0]), float(hi[0] + pad[0])),
            (float(lo[1] - pad[1]), float(hi[1] + pad[1])))


def _grid_axes(model: PlaneMixture, bounds, resolution: int):
    if model.pipeline.input_dim != 2:
        raise ValueError("grids are defined for 2-D input spaces only")
    resolution = checked_whole("resolution", resolution, 1)
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("bounds must be strictly increasing intervals")
    return np.linspace(x_lo, x_hi, resolution), np.linspace(y_lo, y_hi, resolution)


def _grid_points(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def decision_grid(model: PlaneMixture, bounds, resolution: int = 300) -> GridMap:
    """Predicted class over a lattice spanning bounds."""
    xs, ys = _grid_axes(model, bounds, resolution)
    labels = predict(model, _grid_points(xs, ys))
    return GridMap(xs, ys, labels.reshape(len(ys), len(xs)), "decision")


def responsibility_grid(model: PlaneMixture, class_idx: int, bounds,
                        resolution: int = 300) -> GridMap:
    """One class's responsibility vectors over a lattice; last slot is the winner."""
    if not 0 <= class_idx < model.class_count:
        raise ValueError(f"class index {class_idx} out of range")
    xs, ys = _grid_axes(model, bounds, resolution)
    resp = plane_responsibilities(model, _grid_points(xs, ys))
    lo, hi = model.offsets[class_idx], model.offsets[class_idx + 1]
    block = resp[:, lo:hi]
    winner = block.argmax(axis=1).astype(np.float64)
    values = np.concatenate([block, winner[:, None]], axis=1)
    return GridMap(xs, ys, values.reshape(len(ys), len(xs), hi - lo + 1),
                   "responsibility")
