"""Evaluation metrics and post-hoc temperature scaling.

Temperature scaling divides the pooled class scores by a single scalar before
the softmax. It cannot change any argmax, so accuracy is untouched; it only
widens or sharpens the posterior, which is usually enough to repair the
overconfidence that sharp soft-OR pooling produces.

Posteriors come from model.posterior, the same softmax that predict_proba
uses; log_softmax stays the log-space form behind the NLL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import checked_real
from .model import log_softmax, posterior

BINS = 15  # fixed-width confidence bins of reliability_data and ece
TEMPERATURE_RANGE = (0.05, 20.0)
GOLDEN_TOL = 1e-4


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be aligned and non-empty")
    return float((predictions == labels).mean())


def macro_f1(predictions: np.ndarray, labels: np.ndarray,
             class_count: int) -> float:
    """Unweighted mean of per-class F1; classes with an empty denominator score 0."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    scores = []
    for c in range(class_count):
        tp = int(((predictions == c) & (labels == c)).sum())
        fp = int(((predictions == c) & (labels != c)).sum())
        fn = int(((predictions != c) & (labels == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


@dataclass(frozen=True)
class BinStats:
    low: float
    high: float
    mean_confidence: float
    accuracy: float
    count: int


def reliability_data(probs: np.ndarray, labels: np.ndarray) -> list[BinStats]:
    """BINS fixed-width confidence bins; confidence exactly 1 lands in the
    last bin."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0] or not labels.size:
        raise ValueError("probs must be (n, C) aligned with labels, n >= 1")
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.minimum((conf * BINS).astype(np.int64), BINS - 1)
    rows = []
    for b in range(BINS):
        mask = idx == b
        count = int(mask.sum())
        rows.append(BinStats(
            b / BINS, (b + 1) / BINS,
            float(conf[mask].mean()) if count else 0.0,
            float(correct[mask].mean()) if count else 0.0,
            count))
    return rows


def ece(probs: np.ndarray, labels: np.ndarray) -> float:
    """Expected calibration error: bin-weighted |accuracy - confidence| gap."""
    n = np.asarray(labels).shape[0]
    return float(sum(r.count / n * abs(r.accuracy - r.mean_confidence)
                     for r in reliability_data(probs, labels)))


def nll(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the softmax over raw class scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0] \
            or not labels.size:
        raise ValueError("scores must be (n, C) aligned with labels, n >= 1")
    logp = log_softmax(scores)
    return float(-logp[np.arange(labels.shape[0]), labels].mean())


def check_temperature(temperature: float) -> None:
    """The rule a temperature obeys wherever it is applied, saved or loaded."""
    checked_real("temperature", temperature, "be finite and > 0")


def apply_temperature(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Posterior of scores / temperature; argmax-preserving for any T > 0.

    A row whose scores / temperature would leave float64 range, as finite
    scores near 1e307 at T < 1 do, is first shifted by its largest score,
    which leaves its posterior unchanged in exact arithmetic; every other
    row is divided as it is.
    """
    check_temperature(temperature)
    scores = np.asarray(scores, dtype=np.float64)
    with np.errstate(over="ignore"):
        scaled = scores / temperature
        wide = ~np.isfinite(scaled).all(axis=-1) & np.isfinite(scores).all(
            axis=-1)
        if wide.any():
            rows = scores[wide]
            scaled[wide] = (rows - rows.max(axis=-1, keepdims=True)) \
                / temperature
    return posterior(scaled)


@dataclass(frozen=True)
class TemperatureFit:
    temperature: float
    nll_before: float
    nll_after: float
    ece_before: float
    ece_after: float
    degenerate: bool = False


def fit_temperature(scores: np.ndarray, labels: np.ndarray) -> TemperatureFit:
    """Single-scalar temperature minimizing held-out NLL.

    Golden-section search over log-temperature on [0.05, 20] to tolerance
    1e-4. Degenerate score matrices (no row varies across classes) make the
    NLL flat; then T = 1 is returned with the degenerate flag set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    before_nll = nll(scores, labels)  # checks the shapes
    before_ece = ece(posterior(scores), labels)

    row_span = scores.max(axis=1) - scores.min(axis=1)
    if float(row_span.max()) < 1e-12:
        return TemperatureFit(1.0, before_nll, before_nll, before_ece,
                              before_ece, degenerate=True)

    def objective(log_t: float) -> float:
        return nll(scores / math.exp(log_t), labels)

    lo, hi = (math.log(t) for t in TEMPERATURE_RANGE)
    temperature = math.exp(_golden_section(objective, lo, hi, GOLDEN_TOL))
    after_nll = nll(scores / temperature, labels)
    # the search is a minimizer up to tolerance; never accept a regression
    # (scores / 1.0 == scores, so T = 1 scores before_nll exactly)
    if after_nll > before_nll:
        temperature, after_nll = 1.0, before_nll
    after_ece = ece(apply_temperature(scores, temperature), labels)
    return TemperatureFit(temperature, before_nll, after_nll, before_ece,
                          after_ece)


def _golden_section(fn, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = fn(a), fn(b)
    while hi - lo > tol:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = fn(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = fn(b)
    return 0.5 * (lo + hi)
