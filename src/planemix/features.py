"""Feature lifts: standardization, variance-targeted PCA, random Fourier features.

A fitted FeaturePipeline applies the stages in a fixed order
(standardize -> optional PCA -> optional RFF) and is frozen afterwards: the
transform is a pure function, safe to share across threads.

Every stage checks what it stores when it is built, through the checks
module (rank, finiteness, the widths of its arrays against each other,
scale > 0, gamma and variance_retained against checks.RULES), and the
pipeline checks that each stage's input width is the output width of the
stage before it. A ValueError from any of these checks starts with the
attribute path it names, e.g. "standardizer.scale has 3 entries, expected 2",
so a model file loader can put the file location in front of it.

FeaturePipeline.check_input returns the checked float64 batch (a 1-D x is
one row; then a 2-D shape, its feature width, no non-finite row), and apply
is check_input followed by transform (the stages), so it returns a 2-D
batch. A caller that lifts one batch in parts, as model scoring does for
large batches, checks the whole batch once so errors name the caller's row
numbers, then transforms them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import (check_width, checked_array, checked_choice, checked_real,
                     checked_whole)
from .datasets import Dataset


def _as_matrix(data) -> np.ndarray:
    x = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray   # population std; zero-variance columns clamped to 1

    def __post_init__(self):
        for name in ("mean", "scale"):
            object.__setattr__(self, name, checked_array(
                f"standardizer.{name}", getattr(self, name), 1))
        check_width("standardizer.scale", self.scale.shape[0], "entries",
                    self.mean.shape[0])
        if not (self.scale > 0).all():
            col = int(np.argmin(self.scale > 0))
            raise ValueError(f"standardizer.scale must be > 0, got "
                             f"{float(self.scale[col])!r} in entry {col}")

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale


def fit_standardizer(train) -> Standardizer:
    """Per-feature mean and population std (denominator N) from training rows.

    A column whose mean or std is not finite is refused by the train row and
    the column of its first non-finite cell, or else of its largest cell: a
    finite cell can be too large for its square to fit a float64.
    """
    x = _as_matrix(train)
    if x.shape[0] < 1:
        raise ValueError("need at least one row")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        scale = x.std(axis=0)  # ddof=0
    bad = ~(np.isfinite(mean) & np.isfinite(scale))
    if bad.any():
        col = int(np.argmax(bad))
        finite = np.isfinite(x[:, col])
        row = int(np.argmin(finite) if not finite.all()
                  else np.argmax(np.abs(x[:, col])))
        names = train.feature_names if isinstance(train, Dataset) else None
        column = repr(names[col]) if names else col
        what = ("is too large to standardize" if finite.all()
                else "holds a non-finite value")
        raise ValueError(f"train row {row}, column {column} {what}")
    scale = np.where(scale > 1e-12, scale, 1.0)
    return Standardizer(mean, scale)


@dataclass(frozen=True)
class PcaMap:
    components: np.ndarray        # (d, r) orthonormal columns, eigenvalue order
    center: np.ndarray            # (d,)
    eigenvalues: np.ndarray       # all d eigenvalues, descending
    variance_retained: float

    def __post_init__(self):
        # center and the rows of components are the input width; the
        # pipeline checks both against the stage before, which tells which
        # of the two is off where comparing them with each other cannot
        for name, ndim in (("components", 2), ("center", 1), ("eigenvalues", 1)):
            object.__setattr__(self, name, checked_array(
                f"pca.{name}", getattr(self, name), ndim))
        checked_real("pca.variance_retained", self.variance_retained,
                     "lie in (0, 1]")

    @property
    def rank(self) -> int:
        return self.components.shape[1]

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.center) @ self.components


def fit_pca(train_std: np.ndarray, variance_retained: float) -> PcaMap:
    """Smallest component count whose cumulative explained variance reaches the target."""
    x = _as_matrix(train_std)
    center = x.mean(axis=0)
    xc = x - center
    cov = xc.T @ xc / x.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    total = float(evals.sum())
    if total <= 0:
        raise ValueError("data has zero total variance, nothing to retain")
    ratio = np.cumsum(evals) / total
    # small tolerance so variance_retained=1.0 is reachable despite rounding
    r = int(np.searchsorted(ratio, variance_retained - 1e-12) + 1)
    r = min(r, evals.shape[0])
    return PcaMap(evecs[:, :r].copy(), center, evals, variance_retained)


@dataclass(frozen=True)
class RffMap:
    """Random cosine/sine features approximating a Gaussian kernel.

    With frequencies drawn N(0, 2*gamma) the inner product of two transformed
    points estimates 2*exp(-gamma*||x - y||^2); the leading factor 2 is part of
    the contract (||phi(x)||^2 == 2 exactly).
    """

    omega: np.ndarray    # (d_in, n_freq)
    phases: np.ndarray   # (n_freq,), uniform on [0, 2*pi)
    gamma: float

    def __post_init__(self):
        # gamma first: a bad gamma is what puts non-finite values in omega
        checked_real("rff.gamma", self.gamma, "be finite and > 0")
        for name, ndim in (("omega", 2), ("phases", 1)):
            object.__setattr__(self, name, checked_array(
                f"rff.{name}", getattr(self, name), ndim))
        if 0 in self.omega.shape:
            raise ValueError(f"rff.omega must have at least one row and one "
                             f"column, got shape {self.omega.shape}")
        check_width("rff.phases", self.phases.shape[0], "entries",
                    self.omega.shape[1])

    @property
    def output_dim(self) -> int:
        return 2 * self.omega.shape[1]

    def transform(self, x: np.ndarray, trig=np.float64,
                  out: np.ndarray | None = None) -> np.ndarray:
        """sqrt(2/F) * [cos(z), sin(z)] with z = x @ omega + phases, written
        into one float64 output buffer and scaled in place.

        trig is the precision cos and sin are evaluated in. Library callers
        other than model.predict keep the float64 default; predict passes
        float32 and proves its labels against the float64 ones (model.py).
        out, when given, is the float64 buffer of the result's shape that
        the features are written into; predict reuses one across the
        sub-blocks of a batch.
        """
        z = x @ self.omega
        z += self.phases
        freq = self.omega.shape[1]
        if out is None:
            out = np.empty(z.shape[:-1] + (2 * freq,))
        np.cos(z, out=out[..., :freq], dtype=trig)
        np.sin(z, out=out[..., freq:], dtype=trig)
        out *= math.sqrt(2.0 / freq)
        return out


def sample_rff(d_in: int, n_freq: int, gamma: float, seed: int) -> RffMap:
    """Frequencies drawn N(0, 2*gamma), phases U[0, 2*pi); gamma is checked
    before its root is taken, and RffMap names a zero size."""
    checked_real("rff.gamma", gamma, "be finite and > 0")
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((d_in, n_freq))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_freq)
    omega *= np.sqrt(2.0 * gamma)
    return RffMap(omega, phases, gamma)


@dataclass(frozen=True)
class FeaturePipeline:
    standardizer: Standardizer
    pca: PcaMap | None = None
    rff: RffMap | None = None

    def __post_init__(self):
        """Each stage's input width is the output width of the stage before."""
        width = self.input_dim
        if self.pca is not None:
            check_width("pca.center", self.pca.center.shape[0], "entries", width)
            check_width("pca.components", self.pca.components.shape[0], "rows",
                        width)
            width = self.pca.rank
        if self.rff is not None:
            check_width("rff.omega", self.rff.omega.shape[0], "rows", width)

    @property
    def input_dim(self) -> int:
        return self.standardizer.mean.shape[0]

    @property
    def output_dim(self) -> int:
        if self.rff is not None:
            return self.rff.output_dim
        if self.pca is not None:
            return self.pca.rank
        return self.input_dim

    @property
    def is_linear(self) -> bool:
        """True when the map is affine, so plane weights pull back to input units."""
        return self.rff is None

    def check_input(self, x) -> np.ndarray:
        """x as a float64 batch of rows the stages can take; a 1-D x is one
        row. A ValueError names the batch's shape, its feature width or the
        first row holding a non-finite value."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D batch of rows, got shape {x.shape}")
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got {x.shape[1]}")
        if not np.isfinite(x).all():
            row = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise ValueError(f"input row {row} holds a non-finite value")
        return x

    def affine(self, x: np.ndarray) -> np.ndarray:
        """The stages before the optional RFF map: standardize, then PCA."""
        out = self.standardizer.transform(x)
        if self.pca is not None:
            out = self.pca.transform(out)
        return out

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The stages on a batch that check_input has passed."""
        out = self.affine(x)
        if self.rff is not None:
            out = self.rff.transform(out)
        return out

    def apply(self, x) -> np.ndarray:
        """check_input, then transform."""
        return self.transform(self.check_input(x))


def identity_pipeline(dim: int) -> FeaturePipeline:
    """Pass-through pipeline; used for models built directly in working space."""
    return FeaturePipeline(Standardizer(np.zeros(dim), np.ones(dim)))


# the lifts a pipeline can be built with; 'auto' probes them and keeps one
PIPELINE_LIFTS = ("linear", "rff")
LIFTS = ("auto", *PIPELINE_LIFTS)


@dataclass(frozen=True)
class PipelineConfig:
    """Recipe for building a pipeline; `lift` is one of PIPELINE_LIFTS."""

    lift: str = "linear"
    rff_dim: int = 1024          # frequency count; lifted dimension is twice this
    rff_gamma: float = 1.0
    pca_variance: float | None = None
    seed: int = 0

    def __post_init__(self):
        checked_choice("lift", self.lift, PIPELINE_LIFTS)
        object.__setattr__(self, "rff_dim",
                           checked_whole("rff_dim", self.rff_dim, 1))
        checked_real("rff_gamma", self.rff_gamma, "be finite and > 0")
        if self.pca_variance is not None:
            checked_real("pca_variance", self.pca_variance, "lie in (0, 1]")
        object.__setattr__(self, "seed", checked_whole("seed", self.seed, 0))


def build_pipeline(train, config: PipelineConfig) -> FeaturePipeline:
    x = _as_matrix(train)
    std = fit_standardizer(x)
    x_std = std.transform(x)
    pca = None
    if config.pca_variance is not None:
        pca = fit_pca(x_std, config.pca_variance)
        x_std = pca.transform(x_std)
    rff = None
    if config.lift == "rff":
        rff = sample_rff(x_std.shape[1], config.rff_dim, config.rff_gamma, config.seed)
    return FeaturePipeline(std, pca, rff)


# gamma grid probed in auto mode; probes run at half the final frequency count
AUTO_GAMMA_GRID = (0.25, 0.5, 1.0, 2.0)
PROBE_RFF_DIM = 512
FINAL_RFF_DIM = 1024


def default_lift_candidates(pca_variance: float | None = None,
                            seed: int = 0) -> list[PipelineConfig]:
    cands = [PipelineConfig("linear", pca_variance=pca_variance, seed=seed)]
    for g in AUTO_GAMMA_GRID:
        cands.append(PipelineConfig("rff", rff_dim=PROBE_RFF_DIM, rff_gamma=g,
                                    pca_variance=pca_variance, seed=seed))
    return cands


@dataclass
class LiftProbe:
    config: PipelineConfig
    output_dim: int
    val_loglik: float
    error: str | None = None


def select_lift(train: Dataset, val: Dataset, candidates, probe_config,
                final_rff_dim: int):
    """Probe-fit each candidate pipeline and keep the best by held-out log-likelihood.

    Each probe is one workflow.fit, the training recipe for that candidate's
    pipeline, with automatic plane budgeting seeded by the candidate's seed.
    Returns (pipeline, probes). Ties go to the smaller lifted dimension. The
    winning RFF candidate is rebuilt at final_rff_dim frequencies for the
    returned pipeline; probes train with probe_config and stay at their
    own (cheaper) dimension.
    """
    # runtime import: these modules depend on this one
    from . import budgeting, calibration, model as model_ops, workflow

    # every probe standardizes the same rows, so a column that cannot be
    # standardized is refused once, here, not once per probe
    fit_standardizer(train)
    probes: list[LiftProbe] = []
    best = None
    for cand in candidates:
        pipe = None
        try:
            pipe = build_pipeline(train, cand)
            mdl, log = workflow.fit(train, val, pipe, "auto",
                                    budgeting.InitSpec(seed=cand.seed), probe_config)
            if log.diverged:
                probes.append(LiftProbe(cand, pipe.output_dim, -np.inf, "diverged"))
                continue
            ll = -calibration.nll(model_ops.class_scores(mdl, val.features),
                                  val.labels)
        except (ValueError, FloatingPointError) as exc:
            dim = pipe.output_dim if pipe is not None else 0
            probes.append(LiftProbe(cand, dim, -np.inf, str(exc)))
            continue
        probe = LiftProbe(cand, pipe.output_dim, ll)
        probes.append(probe)
        if best is None or (ll, -pipe.output_dim) > (best.val_loglik, -best.output_dim):
            best = probe
    if best is None:
        raise RuntimeError("no lift candidate survived probing: "
                           + "; ".join(p.error or "?" for p in probes))
    chosen = best.config
    if chosen.lift == "rff":
        chosen = replace(chosen, rff_dim=final_rff_dim)
    return build_pipeline(train, chosen), probes
