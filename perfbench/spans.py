"""In-memory spans recorded around planemix's public functions, from outside.

The tracer wraps each function at the name its caller looks it up under
(a module attribute or a class attribute), records one span per call and
restores the originals afterwards. Nothing under src/ knows it is being
traced. Spans stay in a list and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls nest strictly on one thread, so the children never overlap
and that difference is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from planemix import (budgeting, calibration, features, model, persist,
                      training, workflow)

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int      # index into the span list, -1 at the top level
    op: int          # operation id the span belongs to, -1 outside operations


class Tracer:
    """Records nested spans and exact counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._kmeans_seen: set = set()

    def begin_op(self, op: int) -> None:
        """Start operation `op`; repeat detection is scoped to one operation."""
        self.op = op
        self._kmeans_seen.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call. `after(arguments, result)` gets
        the call's arguments by parameter name and updates counters inside a
        bookkeeping span of its own, so counting cost is charged to no layer."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """fn counted per call, without a span (for per-step hot paths)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note_kmeans(self, points: np.ndarray, k: int, seed) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        key = (hashlib.blake2b(points, digest_size=16).digest(), points.shape,
               int(k), repr(seed))
        if key in self._kmeans_seen:
            self.counts["budgeting.kmeans_repeat_calls"] += 1
        self._kmeans_seen.add(key)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "parent": s.parent,
                                     "op": s.op}) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Per-span self time in ns: duration minus direct children's durations."""
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


def subtree_self_ns(spans: list[Span], selfs: list[int], root: int) -> int:
    """Sum of self times over root and every span below it."""
    below = {root}
    total = 0
    for i in range(root, len(spans)):   # children always follow their parent
        if i == root or spans[i].parent in below:
            below.add(i)
            total += selfs[i]
    return total


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    counts = tracer.counts

    def after_select_lift(call, result):
        counts["features.select_lift_calls"] += 1
        counts["features.probe_fits"] += len(result[1])

    def after_rff(call, result):
        counts["features.rff_rows"] += np.atleast_2d(call["x"]).shape[0]

    def after_kmeans(call, result):
        counts["budgeting.kmeans_calls"] += 1
        counts["budgeting.lloyd_iterations"] += result.iterations
        tracer.note_kmeans(call["points"], call["k"], call["seed"])

    def after_silhouette(call, result):
        counts["budgeting.silhouette_calls"] += 1

    def after_initial_planes(call, result):
        if call["spec"].strategy == "auto" and result.strategy != "kmeans":
            counts["budgeting.init_fallbacks"] += 1

    def after_optimize(call, result):
        log = result[2]
        counts["training.epochs"] += len(log.epochs)
        counts["training.useful_epochs"] += log.best_epoch + 1

    def after_predict(call, result):
        counts["model.predict_calls"] += 1
        counts["model.rows"] += result.shape[0]

    def after_save(call, result):
        counts["persist.model_bytes"] = os.path.getsize(call["path"])

    # (owner, attribute, span name, after-hook); the owner is where the
    # caller looks the name up, so e.g. training's own imports of the
    # pooling kernels are wrapped in training's namespace
    table = [
        (workflow, "train_classifier", "workflow.train_classifier", None),
        (features, "select_lift", "features.select_lift", after_select_lift),
        (features.Standardizer, "transform", "features.standardize", None),
        (features.RffMap, "transform", "features.rff", after_rff),
        (budgeting, "auto_budget", "budgeting.auto_budget", None),
        (budgeting, "kmeans", "budgeting.kmeans", after_kmeans),
        (budgeting, "silhouette_score", "budgeting.silhouette", None),
        (budgeting, "_silhouette_from_dists", "budgeting.silhouette",
         after_silhouette),
        (budgeting, "initial_planes", "budgeting.initial_planes",
         after_initial_planes),
        (training, "optimize_planes", "training.optimize_planes",
         after_optimize),
        (training, "pooled_scores", "model.pool", None),
        (training, "segment_responsibilities", "model.responsibilities", None),
        (model, "predict", "model.predict", after_predict),
        (model, "lifted_plane_scores", "model.plane_scores", None),
        (model, "pooled_scores", "model.pool", None),
        (calibration, "fit_temperature", "calibration.fit_temperature", None),
        (persist, "save_model", "persist.save", after_save),
        (persist, "load_model", "persist.load", None),
    ]
    saved = []
    try:
        for owner, attr, name, after in table:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        original = training.__dict__["adam_step"]
        saved.append((training, "adam_step", original))
        training.adam_step = tracer.counter("training.steps", original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# span name -> per-layer metric carrying its summed self time
SELF_TIME_METRICS = {
    "workflow.train_classifier": "workflow.self_s",
    "features.select_lift": "features.select_lift_s",
    "features.standardize": "features.standardize_s",
    "features.rff": "features.rff_s",
    "budgeting.auto_budget": "budgeting.auto_budget_s",
    "budgeting.kmeans": "budgeting.kmeans_s",
    "budgeting.silhouette": "budgeting.silhouette_s",
    "budgeting.initial_planes": "budgeting.initial_planes_s",
    "training.optimize_planes": "training.optimize_planes_s",
    "model.plane_scores": "model.plane_scores_s",
    "model.pool": "model.pool_s",
    "model.responsibilities": "model.responsibilities_s",
    "model.predict": "model.argmax_s",
    "calibration.fit_temperature": "calibration.fit_temperature_s",
    "persist.save": "persist.save_s",
    "persist.load": "persist.load_s",
    BOOKKEEPING: "trace.bookkeeping_s",
}

COUNT_METRICS = ("features.probe_fits", "features.rff_rows",
                 "budgeting.kmeans_calls", "budgeting.lloyd_iterations",
                 "budgeting.kmeans_repeat_calls", "budgeting.silhouette_calls",
                 "budgeting.init_fallbacks", "training.epochs",
                 "training.steps", "model.predict_calls", "model.rows",
                 "persist.model_bytes")


def layer_metrics(tracer: Tracer, fit_wall_s: float) -> dict[str, float]:
    """Per-layer self times, counts and ratios from one traced pass.

    fit_wall_s is the caller's own clock around the traced train_classifier
    calls; what the layer self times inside those calls leave of it (the
    wrappers' cost outside their spans) is reported as the fit remainder.
    """
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    inclusive = defaultdict(int)
    for s, own in zip(spans, selfs):
        out[SELF_TIME_METRICS[s.name]] += own / 1e9
        inclusive[s.name] += s.end_ns - s.start_ns
    for name in COUNT_METRICS:
        out[name] = float(counts.get(name, 0))

    fits = [i for i, s in enumerate(spans)
            if s.name == "workflow.train_classifier"]
    attributed = sum(subtree_self_ns(spans, selfs, i) for i in fits)
    out["workflow.train_classifier_s"] = inclusive["workflow.train_classifier"] / 1e9
    out["trace.fit_remainder_s"] = fit_wall_s - attributed / 1e9

    probes = counts.get("features.probe_fits", 0)
    out["features.probe_kept_ratio"] = (
        counts.get("features.select_lift_calls", 0) / probes if probes else 0.0)
    epochs = counts.get("training.epochs", 0)
    out["training.useful_epoch_ratio"] = (
        counts.get("training.useful_epochs", 0) / epochs if epochs else 0.0)
    steps = counts.get("training.steps", 0)
    out["training.step_us"] = (
        inclusive["training.optimize_planes"] / 1e3 / steps if steps else 0.0)
    return out
