"""Feature lifts: standardization, variance-targeted PCA, random Fourier features.

A fitted FeaturePipeline applies the stages in a fixed order
(standardize -> optional PCA -> optional RFF) and is frozen afterwards: the
transform is a pure function, safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale


def fit_standardizer(train) -> Standardizer:
    """Per-feature mean and population std (denominator N) from training rows."""
    x = _as_matrix(train)
    if x.shape[0] < 1:
        raise ValueError("need at least one row")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)  # ddof=0
    scale = np.where(scale > 1e-12, scale, 1.0)
    return Standardizer(mean, scale)


@dataclass(frozen=True)
class PcaMap:
    components: np.ndarray        # (d, r) orthonormal columns, eigenvalue order
    center: np.ndarray            # (d,)
    eigenvalues: np.ndarray       # all d eigenvalues, descending
    variance_retained: float

    @property
    def rank(self) -> int:
        return self.components.shape[1]

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.center) @ self.components


def fit_pca(train_std: np.ndarray, variance_retained: float) -> PcaMap:
    """Smallest component count whose cumulative explained variance reaches the target."""
    if not 0 < variance_retained <= 1:
        raise ValueError("variance_retained must lie in (0, 1]")
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

    @property
    def output_dim(self) -> int:
        return 2 * self.omega.shape[1]

    def transform(self, x: np.ndarray) -> np.ndarray:
        z = x @ self.omega + self.phases
        root = np.sqrt(2.0 / self.omega.shape[1])
        return root * np.concatenate([np.cos(z), np.sin(z)], axis=-1)


def sample_rff(d_in: int, n_freq: int, gamma: float, seed: int) -> RffMap:
    if d_in < 1 or n_freq < 1:
        raise ValueError("d_in and n_freq must be >= 1")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    rng = np.random.default_rng(seed)
    omega = rng.normal(0.0, np.sqrt(2.0 * gamma), size=(d_in, n_freq))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_freq)
    return RffMap(omega, phases, gamma)


def rff_transform(rff: RffMap, x: np.ndarray) -> np.ndarray:
    return rff.transform(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class FeaturePipeline:
    standardizer: Standardizer
    pca: PcaMap | None = None
    rff: RffMap | None = None

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

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got {x.shape[1]}")
        if not np.isfinite(x).all():
            row = int(np.argmin(np.isfinite(x).all(axis=1)))
            raise ValueError(f"input row {row} holds a non-finite value")
        out = self.standardizer.transform(x)
        if self.pca is not None:
            out = self.pca.transform(out)
        if self.rff is not None:
            out = self.rff.transform(out)
        return out[0] if squeeze else out


def identity_pipeline(dim: int) -> FeaturePipeline:
    """Pass-through pipeline; used for models built directly in working space."""
    return FeaturePipeline(Standardizer(np.zeros(dim), np.ones(dim)))


@dataclass(frozen=True)
class PipelineConfig:
    """Recipe for building a pipeline; `lift` is 'linear' or 'rff'."""

    lift: str = "linear"
    rff_dim: int = 1024          # frequency count; lifted dimension is twice this
    rff_gamma: float = 1.0
    pca_variance: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.lift not in ("linear", "rff"):
            raise ValueError(f"unknown lift {self.lift!r}")

    def describe(self) -> str:
        parts = []
        if self.pca_variance is not None:
            parts.append(f"pca({self.pca_variance:g})")
        if self.lift == "rff":
            parts.append(f"rff(dim={self.rff_dim}, gamma={self.rff_gamma:g})")
        return "+".join(parts) if parts else "linear"


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


def select_lift(train: Dataset, val: Dataset, candidates, probe_config=None,
                final_rff_dim: int | None = FINAL_RFF_DIM):
    """Probe-fit each candidate pipeline and keep the best by held-out log-likelihood.

    Each probe is one training.fit, the training recipe for that candidate's
    pipeline, with automatic plane budgeting seeded by the candidate's seed.
    Returns (pipeline, probes). Ties go to the smaller lifted dimension. The
    winning RFF candidate is rebuilt at final_rff_dim for the returned
    pipeline; probes stay at their own (cheaper) dimension.
    """
    # runtime import: these modules depend on this one
    from . import budgeting, calibration, model as model_ops, training

    if probe_config is None:
        probe_config = training.probe_train_config()
    probes: list[LiftProbe] = []
    best = None
    for cand in candidates:
        pipe = None
        try:
            pipe = build_pipeline(train, cand)
            mdl, log = training.fit(train, val, pipe, "auto",
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
    if chosen.lift == "rff" and final_rff_dim is not None:
        chosen = replace(chosen, rff_dim=final_rff_dim)
    return build_pipeline(train, chosen), probes
