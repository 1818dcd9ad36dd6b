"""Synthetic 2-D benchmark generators, CSV loading and writing, and
stratified splits.

All generators are pure functions of their parameters and seed: same inputs,
bit-identical arrays. Labels are int64 and balanced to within one sample.
csv_text is the one CSV writer behind every table the package writes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import checked_at_most, checked_real, checked_whole


@dataclass
class Dataset:
    """Feature matrix plus integer labels in [0, class_count)."""

    features: np.ndarray          # (n, d) float64
    labels: np.ndarray            # (n,) int64
    class_count: int
    feature_names: list[str] | None = None
    class_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-D and aligned with features rows")
        self.class_count = checked_whole("class_count", self.class_count, 2)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("labels out of range for class_count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx])


# The generators' upper bounds. Below MAX_SCALE, noise and turns keep the
# rows finite, far past any use; above MAX_ROWS, n is refused by name
# rather than by a MemoryError, or by exhausting the machine's memory.
MAX_ROWS = 1_000_000
MAX_SCALE = 1_000_000


def _halves(n: int) -> tuple[int, int]:
    # class sizes balanced to within one sample
    return n - n // 2, n // 2


def make_moons(n: int, noise: float = 0.25, seed: int = 0) -> Dataset:
    """Two interleaved half-circle arcs with isotropic Gaussian noise.

    Class 0 sits on the upper unit half-circle centred at the origin; class 1
    on a lower arc shifted by (1, 0.5). noise is the per-coordinate std.
    """
    n = checked_at_most("n", checked_whole("n", n, 2), MAX_ROWS)
    seed = checked_whole("seed", seed, 0)
    checked_real("noise", noise, "be finite and >= 0")
    checked_at_most("noise", noise, MAX_SCALE)
    n0, n1 = _halves(n)
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    pts0 = np.column_stack([np.cos(t0), np.sin(t0)])
    pts1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([pts0, pts1])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    x = x + noise * rng.standard_normal(x.shape)  # exact when noise == 0
    return Dataset(x, y, 2, feature_names=["x0", "x1"])


def make_circles(n: int, radius_ratio: float = 0.5, noise: float = 0.08,
                 seed: int = 0) -> Dataset:
    """Concentric circles: class 0 at radius 1, class 1 at radius_ratio."""
    n = checked_at_most("n", checked_whole("n", n, 2), MAX_ROWS)
    seed = checked_whole("seed", seed, 0)
    checked_real("radius_ratio", radius_ratio, "lie in (0, 1)")
    checked_real("noise", noise, "be finite and >= 0")
    checked_at_most("noise", noise, MAX_SCALE)
    n0, n1 = _halves(n)
    t0 = np.linspace(0.0, 2.0 * np.pi, n0, endpoint=False)
    t1 = np.linspace(0.0, 2.0 * np.pi, n1, endpoint=False)
    pts0 = np.column_stack([np.cos(t0), np.sin(t0)])
    pts1 = radius_ratio * np.column_stack([np.cos(t1), np.sin(t1)])
    x = np.vstack([pts0, pts1])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    x = x + noise * rng.standard_normal(x.shape)
    return Dataset(x, y, 2, feature_names=["x0", "x1"])


# Fixed shear applied to three unit-variance blobs on an equilateral triangle.
# Side length tuned so the best achievable accuracy sits near 0.85, leaving the
# problem genuinely overlapping rather than saturated.
_ANISO_SHEAR = np.array([[0.6, -0.6], [-0.4, 0.8]])
_ANISO_SIDE = 2.6


def make_aniso_blobs(n: int, seed: int = 0) -> Dataset:
    """Three overlapping Gaussian blobs sheared into anisotropic clusters."""
    n = checked_at_most("n", checked_whole("n", n, 3), MAX_ROWS)
    seed = checked_whole("seed", seed, 0)
    base = _ANISO_SIDE * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    centers = base - base.mean(axis=0)
    sizes = [n // 3 + (1 if r < n % 3 else 0) for r in range(3)]
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for c, sz in enumerate(sizes):
        parts.append(centers[c] + rng.normal(0.0, 1.0, size=(sz, 2)))
        labels.append(np.full(sz, c, dtype=np.int64))
    x = np.vstack(parts) @ _ANISO_SHEAR
    return Dataset(x, np.concatenate(labels), 3, feature_names=["x0", "x1"])


def make_two_spirals(n: int, turns: float = 2.0, seed: int = 0) -> Dataset:
    """Two interleaved Archimedean spirals (r proportional to angle), no noise.

    Class 1 is class 0 rotated by pi about the origin. turns sets how many
    full revolutions each arm makes; seed is accepted for interface symmetry
    but the construction is deterministic in (n, turns) alone.
    """
    n = checked_at_most("n", checked_whole("n", n, 2), MAX_ROWS)
    checked_whole("seed", seed, 0)  # checked, then unused: no noise here
    checked_real("turns", turns, "be finite and > 0")
    checked_at_most("turns", turns, MAX_SCALE)
    n0, n1 = _halves(n)
    theta_lo = 0.5 * np.pi                      # keep the arms off the origin
    theta_hi = theta_lo + 2.0 * np.pi * turns
    scale = 1.0 / theta_hi                      # max radius 1
    arms = []
    for m, sign in ((n0, 1.0), (n1, -1.0)):
        theta = np.linspace(theta_lo, theta_hi, m)
        r = scale * theta
        arms.append(np.column_stack([sign * r * np.cos(theta),
                                     sign * r * np.sin(theta)]))
    x = np.vstack(arms)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(x, y, 2, feature_names=["x0", "x1"])


def load_csv(path: str, label_column: str | int = "label") -> Dataset:
    """Load a CSV with a header row, numeric features and one label column.

    Labels may be arbitrary strings or numbers; they are re-encoded to
    0..C-1 in order of first appearance and the original values recorded in
    class_names. Unparsable or non-finite cells raise ValueError naming
    the row and column.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # drop blank lines
    if not rows:
        raise ValueError(f"{path}: empty file")

    header, rows = rows[0], rows[1:]
    if not rows:
        raise ValueError(f"{path}: header but no data rows")

    ncol = len(header)
    if isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else ncol + label_column
        if not 0 <= label_idx < ncol:
            raise ValueError(f"{path}: label column index {label_column} out of range")
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"{path}: no column named {label_column!r}") from None

    feat_names = [h for j, h in enumerate(header) if j != label_idx]
    feats = np.empty((len(rows), ncol - 1), dtype=np.float64)
    raw_labels = []
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, expected {ncol}")
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # float() also parses nan and inf
                raise ValueError(
                    f"{path}: row {i + 1}, column {header[j]!r}: "
                    f"cannot parse {cell!r} as a finite number")
            feats[i, k] = value
            k += 1

    # first-appearance encoding keeps the mapping reproducible
    encoding: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        if lab not in encoding:
            encoding[lab] = len(encoding)
        labels[i] = encoding[lab]
    if len(encoding) < 2:
        raise ValueError(f"{path}: found {len(encoding)} distinct label(s), need >= 2")
    return Dataset(feats, labels, len(encoding),
                   feature_names=feat_names, class_names=list(encoding))


# the evaluation protocol's train, val and test fractions
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


def _apportion(count: int) -> list[int]:
    # largest-remainder rounding; ties broken by split order (train, val, test)
    exact = [count * f for f in SPLIT_FRACTIONS]
    base = [int(np.floor(e)) for e in exact]
    short = count - sum(base)
    order = sorted(range(3), key=lambda k: (-(exact[k] - base[k]), k))
    for k in order[:short]:
        base[k] += 1
    return base


def split_dataset(data: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified 60/20/20 train/val/test split; each part keeps every
    class's share within one sample.

    Deterministic in seed; every class must have at least 3 members.
    """
    rng = np.random.default_rng(checked_whole("seed", seed, 0))
    picks: list[list[np.ndarray]] = [[], [], []]
    for c in range(data.class_count):
        idx = np.flatnonzero(data.labels == c)
        if idx.size < 3:
            raise ValueError(f"class {c} has {idx.size} samples, need >= 3 to split")
        idx = rng.permutation(idx)
        counts = _apportion(idx.size)
        cuts = np.cumsum(counts)[:2]
        for part, chunk in zip(picks, np.split(idx, cuts)):
            part.append(chunk)
    out = []
    for part in picks:
        merged = np.sort(np.concatenate(part))
        out.append(data.subset(merged))
    return tuple(out)


def csv_text(header, rows) -> str:
    """header and then rows as CSV text with LF line ends.

    csv.writer quotes a cell that holds a comma, a double quote or a line
    break, writes None as an empty cell and any other value through str,
    so a float is its shortest round-trip repr.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def save_csv(data: Dataset, path: str) -> None:
    """Write features plus a trailing label column, with a header row."""
    names = data.feature_names or [f"f{j}" for j in range(data.dim)]
    labels = data.class_names or [str(c) for c in range(data.class_count)]
    with open(path, "w") as fh:
        fh.write(csv_text([*names, "label"],
                          ([*map(float, row), labels[lab]]
                           for row, lab in zip(data.features, data.labels))))
