"""Mini-batch optimizer for plane mixtures: losses, Adam and the epoch loop.

The objective is smoothed cross-entropy on the pooled class scores plus a
usage-aware ridge penalty: planes that rarely win responsibility get their
weights shrunk harder, which prunes dead planes without a discrete step,

    coeff_{c,m} = l2 * (1 + usage_boost / (usage_{c,m} + usage_floor)).

Usage is a momentum-tracked mean of within-class responsibilities; it is
treated as constant inside each step, so the analytic gradient of the ridge
term is 2 * coeff * w (the derivative of coeff's own usage dependence is
deliberately not chased). Pooling sharpness is annealed linearly over the
first half of the epoch budget: soft early on so gradients reach every plane,
near-max later so planes specialize.

optimize_planes builds what every step of a fit shares once, as
_FitConstants: the checked offsets, the class of each plane, each class's
smoothed target row (a batch's targets are rows[labels], the floats
smooth_targets gives) and the class-weight vector. Each step then takes
its pooled scores and responsibilities from one pass of model's segment
kernel; total_loss and gradients build the same constants on each call,
so the finite-difference oracles run the step code itself. The validation
pass pools through pooled_scores, and every step calls adam_step through
this module's global, the names the benchmark wraps.

workflow.fit runs the training recipe (lift, budget, init) around this loop.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .datasets import csv_text
from .checks import checked_choice, checked_real, checked_whole
# segment_responsibilities is imported only for perfbench's wrapper
from .model import (PlaneMixture, _checked_offsets, _plane_classes,
                    _pool_and_share, lifted_plane_scores, log_softmax,
                    pooled_scores, segment_responsibilities)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY_RATE = 0.97  # per epoch, exponential schedule
LR_SCHEDULES = ("cosine", "exponential", "constant")


# (checks.RULES entry, fields) of the real-number fields; clip_norm <= 0 or
# inf turns clipping off, so only NaN is refused there
_CONFIG_RULES = (
    ("be finite and > 0",
     ("alpha_start", "alpha_end", "learning_rate", "usage_floor")),
    ("be finite and >= 0", ("l2", "usage_boost")),
    ("be finite", ("min_improvement",)),
    ("not be NaN", ("clip_norm",)),
    ("lie in [0, 1)", ("label_smoothing", "usage_momentum")),
)
# (field, least value) of the whole-number fields, stored as ints
_WHOLE_FIELDS = (("batch_size", 1), ("max_epochs", 1), ("patience", 1),
                 ("seed", 0))


@dataclass(frozen=True)
class TrainConfig:
    alpha_start: float = 3.0
    alpha_end: float = 6.0
    l2: float = 1e-4
    usage_boost: float = 0.5
    usage_floor: float = 1e-3
    label_smoothing: float = 0.02
    class_weights: tuple[float, ...] | None = None
    batch_size: int = 256
    learning_rate: float = 1e-2
    lr_schedule: str = field(default="cosine",
                             metadata={"choices": LR_SCHEDULES})
    max_epochs: int = 300
    patience: int = 12
    min_improvement: float = 1e-5
    clip_norm: float = 5.0
    usage_momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for rule, names in _CONFIG_RULES:
            for name in names:
                checked_real(name, getattr(self, name), rule)
        checked_choice("lr_schedule", self.lr_schedule, LR_SCHEDULES)
        weights = () if self.class_weights is None else self.class_weights
        if not isinstance(weights, (tuple, list)):
            raise ValueError(f"class_weights must be a tuple or list of "
                             f"numbers, got {weights!r}")
        for i, weight in enumerate(weights):
            checked_real(f"class_weights[{i}]", weight, "be finite and > 0")
        for name, least in _WHOLE_FIELDS:
            object.__setattr__(self, name,
                               checked_whole(name, getattr(self, name), least))


def probe_train_config(seed: int = 0) -> TrainConfig:
    """Short fixed-sharpness schedule used when probing feature lifts."""
    return TrainConfig(alpha_start=4.0, alpha_end=4.0, max_epochs=30,
                       patience=30, seed=seed)


def smooth_targets(labels: np.ndarray, class_count: int,
                   smoothing: float) -> np.ndarray:
    """(n, C) rows: 1 - smoothing + smoothing/C on the true class, smoothing/C off it."""
    labels = np.asarray(labels)
    out = np.full((labels.shape[0], class_count), smoothing / class_count)
    out[np.arange(labels.shape[0]), labels] += 1.0 - smoothing
    return out


class UsageTracker:
    """Momentum-blended mean responsibilities, one entry per plane.

    Rows for one class always sum to 1: both the seed (uniform within each
    class) and every batch mean are simplex points, and blending is convex.
    """

    def __init__(self, offsets: np.ndarray, momentum: float = 0.9):
        checked_real("momentum", momentum, "lie in [0, 1)")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.momentum = momentum
        sizes = np.diff(self.offsets)
        self.usage = np.repeat(1.0 / sizes, sizes)

    def update(self, batch_usage: np.ndarray) -> None:
        self.usage = self.momentum * self.usage + (1.0 - self.momentum) * batch_usage


def usage_coefficients(usage: np.ndarray, l2: float, usage_boost: float,
                       usage_floor: float) -> np.ndarray:
    """Per-plane ridge coefficients; low usage inflates the penalty."""
    return l2 * (1.0 + usage_boost / (usage + usage_floor))


def cross_entropy(scores: np.ndarray, targets: np.ndarray,
                  sample_weights: np.ndarray | None = None) -> float:
    """Mean cross-entropy from raw class scores.

    Taking scores rather than probabilities keeps the log stabilized: the
    log-probabilities come from a shifted log-sum-exp and can never hit
    log(0) for finite scores.
    """
    logp = log_softmax(np.asarray(scores, dtype=np.float64))
    if not np.isfinite(logp).all():
        raise ValueError("non-finite log-probabilities in cross_entropy")
    return _mean_cross_entropy(logp, targets, sample_weights)


def _mean_cross_entropy(logp, targets, sample_weights) -> float:
    per_row = -(targets * logp).sum(axis=1)
    if sample_weights is not None:
        per_row = per_row * sample_weights
    return float(per_row.mean())


@dataclass
class Grads:
    weights: np.ndarray
    biases: np.ndarray


@dataclass(frozen=True)
class _FitConstants:
    """What every step of one fit shares, built once per fit.

    The checked offsets, the class of each plane, each class's smoothed
    target row (rows[labels] equals smooth_targets(labels, ...) float for
    float) and the class-weight vector, None without class weights.
    """

    offsets: np.ndarray
    plane_class: np.ndarray
    target_rows: np.ndarray
    class_weights: np.ndarray | None

    @classmethod
    def build(cls, offsets, plane_count: int,
              config: TrainConfig) -> "_FitConstants":
        offsets = _checked_offsets(offsets, plane_count)
        class_count = len(offsets) - 1
        weights = config.class_weights
        return cls(offsets, _plane_classes(offsets),
                   smooth_targets(np.arange(class_count), class_count,
                                  config.label_smoothing),
                   None if weights is None
                   else np.asarray(weights, dtype=np.float64))

    def targets(self, labels: np.ndarray) -> np.ndarray:
        return self.target_rows[labels]

    def sample_weights(self, labels: np.ndarray) -> np.ndarray | None:
        weights = self.class_weights
        return None if weights is None else weights[labels]


def _loss_and_grads(planes, constants: _FitConstants, alpha, lifted, labels,
                    tracker: UsageTracker, config: TrainConfig,
                    update_tracker: bool = True):
    """Fused batch pass on planes, a TrainState or a PlaneMixture: one
    segment-kernel pass gives the pooled scores and the responsibilities.
    The loss uses the same (post-blend) ridge coefficients as the
    gradients."""
    n = lifted.shape[0]
    weights = planes.weights
    plane_mat = lifted_plane_scores(planes, lifted)
    scores, resp = _pool_and_share(plane_mat, constants.offsets, alpha,
                                   constants.plane_class)
    logp = log_softmax(scores)
    targets = constants.targets(labels)
    sw = constants.sample_weights(labels)

    if update_tracker:
        tracker.update(resp.mean(axis=0))
    coeff = usage_coefficients(tracker.usage, config.l2, config.usage_boost,
                               config.usage_floor)
    with np.errstate(over="ignore"):  # a diverging fit: inf, caught by the caller
        penalty = float((coeff * (weights * weights).sum(axis=1)).sum())

    loss = _mean_cross_entropy(logp, targets, sw) + penalty

    pooled_grad = np.exp(logp) - targets          # d(mean CE)/d(scores) * n
    if sw is not None:
        pooled_grad = pooled_grad * sw[:, None]
    pooled_grad /= n
    plane_grad = pooled_grad[:, constants.plane_class] * resp
    d_weights = plane_grad.T @ lifted + 2.0 * coeff[:, None] * weights
    d_biases = plane_grad.sum(axis=0)
    return loss, Grads(d_weights, d_biases)


def total_loss(lifted: np.ndarray, labels: np.ndarray, model: PlaneMixture,
               tracker: UsageTracker, config: TrainConfig) -> float:
    """Smoothed cross-entropy plus usage-aware ridge; pure in the tracker."""
    constants = _FitConstants.build(model.offsets, model.plane_count, config)
    loss, _ = _loss_and_grads(model, constants, model.alpha, lifted, labels,
                              tracker, config, update_tracker=False)
    return loss


def gradients(lifted: np.ndarray, labels: np.ndarray, model: PlaneMixture,
              tracker: UsageTracker, config: TrainConfig) -> Grads:
    """Analytic batch gradients; blends batch usage into the tracker first."""
    constants = _FitConstants.build(model.offsets, model.plane_count, config)
    _, grads = _loss_and_grads(model, constants, model.alpha, lifted, labels,
                               tracker, config)
    return grads


def clip_global_norm(grads: Grads, clip_norm: float) -> Grads:
    """Rescale so the joint weight+bias gradient norm is at most clip_norm."""
    norm = math.sqrt(float((grads.weights ** 2).sum() + (grads.biases ** 2).sum()))
    if norm > clip_norm > 0:
        factor = clip_norm / norm
        grads.weights *= factor
        grads.biases *= factor
    return grads


def lr_at(schedule: str, base_lr: float, epoch: int, max_epochs: int) -> float:
    if schedule == "cosine":
        return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / max_epochs))
    if schedule == "exponential":
        return base_lr * LR_DECAY_RATE ** epoch
    if schedule == "constant":
        return base_lr
    raise ValueError(f"unknown lr_schedule {schedule!r}")


def alpha_at(config: TrainConfig, epoch: int, max_epochs: int) -> float:
    """Linear ramp from alpha_start to alpha_end over the first half of training."""
    ramp = 0.5 * max_epochs
    if epoch >= ramp:
        return config.alpha_end
    return config.alpha_start + (config.alpha_end - config.alpha_start) * epoch / ramp


@dataclass
class TrainState:
    weights: np.ndarray
    biases: np.ndarray
    m_weights: np.ndarray
    v_weights: np.ndarray
    m_biases: np.ndarray
    v_biases: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, weights: np.ndarray, biases: np.ndarray) -> "TrainState":
        return cls(weights.copy(), biases.copy(),
                   np.zeros_like(weights), np.zeros_like(weights),
                   np.zeros_like(biases), np.zeros_like(biases))


def adam_step(state: TrainState, grads: Grads, lr: float) -> TrainState:
    """Bias-corrected Adam update in place."""
    state.step += 1
    t = state.step
    for param, grad, m, v in ((state.weights, grads.weights, state.m_weights, state.v_weights),
                              (state.biases, grads.biases, state.m_biases, state.v_biases)):
        m += (1.0 - ADAM_BETA1) * (grad - m)
        v += (1.0 - ADAM_BETA2) * (grad * grad - v)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    alpha: float
    lr: float
    usage_min: float
    usage_max: float


@dataclass
class TrainLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    diverged: bool = False
    stopped_early: bool = False
    best_epoch: int = -1
    best_val_loss: float = math.inf
    init_strategy: str = ""
    notes: list[str] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        """One row per epoch and one column per EpochRecord field; floats are
        written as repr, so they read back exactly."""
        columns = fields(EpochRecord)
        with open(path, "w") as fh:
            fh.write(csv_text([f.name for f in columns], (
                [int(v) if f.type == "int" else float(v)
                 for f, v in zip(columns, astuple(r))] for r in self.epochs)))


def _validation_loss(planes, constants: _FitConstants, alpha, lifted, labels):
    # smoothed cross-entropy only: the ridge term is a training-time device
    scores = pooled_scores(lifted_plane_scores(planes, lifted),
                           constants.offsets, alpha)
    return cross_entropy(scores, constants.targets(labels),
                         constants.sample_weights(labels))


def optimize_planes(lifted_train, labels_train, lifted_val, labels_val,
                    weights0, biases0, offsets, config: TrainConfig):
    """Core epoch loop on pre-lifted features; returns (weights, biases, log).

    Early stopping watches validation loss at the current annealed sharpness
    and restores the best snapshot. A non-finite batch loss or parameter
    aborts with the last finite snapshot and sets the divergence flag.
    """
    state = TrainState.fresh(np.asarray(weights0, dtype=np.float64),
                             np.asarray(biases0, dtype=np.float64))
    constants = _FitConstants.build(offsets, state.weights.shape[0], config)
    tracker = UsageTracker(constants.offsets, config.usage_momentum)
    rng = np.random.default_rng(config.seed)
    log = TrainLog()
    n = lifted_train.shape[0]
    best = (state.weights.copy(), state.biases.copy())
    last_finite = best
    since_improvement = 0

    for epoch in range(config.max_epochs):
        alpha = alpha_at(config, epoch, config.max_epochs)
        lr = lr_at(config.lr_schedule, config.learning_rate, epoch,
                   config.max_epochs)
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, grads = _loss_and_grads(state, constants, alpha,
                                          lifted_train[idx], labels_train[idx],
                                          tracker, config)
            if not math.isfinite(loss):
                log.diverged = True
                break
            clip_global_norm(grads, config.clip_norm)
            adam_step(state, grads, lr)
            batch_losses.append(loss)
        if not log.diverged and not (np.isfinite(state.weights).all()
                                     and np.isfinite(state.biases).all()):
            log.diverged = True
        if log.diverged:  # the last finite snapshot is returned below
            break

        try:
            val_loss = _validation_loss(state, constants, alpha, lifted_val,
                                        labels_val)
        except ValueError:  # non-finite scores on the held-out set
            log.diverged = True
            break
        log.epochs.append(EpochRecord(epoch, float(np.mean(batch_losses)),
                                      val_loss, alpha, lr,
                                      float(tracker.usage.min()),
                                      float(tracker.usage.max())))
        last_finite = (state.weights.copy(), state.biases.copy())
        if val_loss < log.best_val_loss - config.min_improvement:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best = last_finite
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                log.stopped_early = True
                break

    if log.best_epoch >= 0:
        final_w, final_b = best
    else:  # nothing ever improved on +inf (possible only after divergence)
        final_w, final_b = last_finite
    return final_w.copy(), final_b.copy(), log


def fit_binary_plane(lifted: np.ndarray, targets: np.ndarray,
                     seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Plain logistic direction for targets in {0, 1} on pre-lifted features.

    Used to seed planes: trains a two-class single-plane model briefly and
    returns the discriminating direction (w, b) for the positive class.
    """
    config = TrainConfig(alpha_start=1.0, alpha_end=1.0, l2=1e-4,
                         usage_boost=0.0, label_smoothing=0.0,
                         learning_rate=0.05, max_epochs=40, patience=40,
                         seed=_to_int_seed(seed))
    offsets = np.array([0, 1, 2], dtype=np.int64)
    w0 = np.zeros((2, lifted.shape[1]))
    b0 = np.zeros(2)
    labels = np.asarray(targets, dtype=np.int64)
    w, b, log = optimize_planes(lifted, labels, lifted, labels, w0, b0,
                                offsets, config)
    if log.diverged:
        raise FloatingPointError("binary plane fit diverged")
    return w[1] - w[0], float(b[1] - b[0])


def _to_int_seed(seed) -> int:
    # TrainConfig carries a plain int; fold tuple seeds the same way numpy would
    if isinstance(seed, (tuple, list)):
        return int(np.random.SeedSequence(seed).generate_state(1)[0])
    return int(seed)
