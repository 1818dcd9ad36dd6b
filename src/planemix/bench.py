"""Benchmark harness: synthetic suite, per-example latency, plane scaling.

Latency times the library's own `model.predict` at batch size one, so the
figure is what a caller pays for one prediction. It follows a fixed
protocol: single BLAS thread, five warm-up calls, then at least 100k timed
inferences or a one-second budget, whichever comes first. Timed calls run
in several batches with the garbage collector paused, and the reported
figure is the fastest batch mean, which discards scheduler hiccups that
would otherwise pollute a single long mean.
The scaling sweep times synthetic models of growing total plane count at a
fixed lifted dimension; per-example cost should grow linearly in the plane
count, and the harness reports the fit's R^2.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import model as model_ops, workflow
from .datasets import csv_text
from .features import identity_pipeline
from .model import PlaneMixture
from .training import TrainConfig

WARMUP_CALLS = 5
TARGET_CALLS = 100_000
TIME_BUDGET_S = 1.0
TIMING_BATCHES = 16
SCALING_DIM = 4096
SCALING_PLANE_COUNTS = (2, 4, 8, 16)
SCALING_PROBE_VECTORS = 8


@contextlib.contextmanager
def single_thread_blas():
    """Pin BLAS to one thread while timing, when threadpoolctl is around."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        yield
        return
    with threadpool_limits(limits=1):
        yield


@contextlib.contextmanager
def _gc_paused():
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _one_row_batches(inputs: np.ndarray) -> list[np.ndarray]:
    inputs = np.ascontiguousarray(np.atleast_2d(inputs), dtype=np.float64)
    return [inputs[i:i + 1] for i in range(inputs.shape[0])]


def _time_batch(mdl: PlaneMixture, rows: list[np.ndarray], calls: int) -> float:
    """Mean nanoseconds per `model.predict` call over one timed batch."""
    predict = model_ops.predict
    n = len(rows)
    t0 = time.perf_counter_ns()
    for i in range(calls):
        predict(mdl, rows[i % n])
    return (time.perf_counter_ns() - t0) / calls


def _calls_for_budget(mdl: PlaneMixture, rows: list[np.ndarray]) -> int:
    probe = 200
    per_call = _time_batch(mdl, rows, probe)
    budget_calls = int(TIME_BUDGET_S * 1e9 / max(per_call, 1.0))
    return min(TARGET_CALLS, max(1_000, budget_calls))


def measure_latency_ns(mdl: PlaneMixture, inputs: np.ndarray) -> float:
    """Wall time per single-example prediction, in nanoseconds.

    Runs the timed calls as TIMING_BATCHES batches and returns the fastest
    batch mean. Any batch hit by a scheduler stall or interrupt reports a
    slower mean and gets discarded, so the figure tracks the undisturbed
    cost of the call rather than whatever else the machine was doing.
    """
    rows = _one_row_batches(inputs)
    with single_thread_blas():
        _time_batch(mdl, rows, WARMUP_CALLS)
        calls = _calls_for_budget(mdl, rows)
        batch = max(200, calls // TIMING_BATCHES)
        with _gc_paused():
            best = min(_time_batch(mdl, rows, batch)
                       for _ in range(TIMING_BATCHES))
    return best


@dataclass
class ScalingPoint:
    plane_count: int
    latency_ns: float


@dataclass
class ScalingFit:
    points: list[ScalingPoint]
    slope_ns: float
    intercept_ns: float
    r_squared: float


def _strip_round_effects(samples: np.ndarray) -> np.ndarray:
    """Collapse a rounds-by-models timing matrix to one estimate per model.

    Congestion and frequency shifts hit every model timed in the same round
    by roughly the same factor. Working in log space, one pass of median
    polish estimates that per-round factor and removes it; the per-model
    medians of what remains are far steadier than raw means or minima. The
    correction never looks at the plane counts, so any real nonlinearity in
    the cost curve survives it untouched.
    """
    logs = np.log(samples)
    per_model = np.median(logs, axis=0)
    per_round = np.median(logs - per_model, axis=1)
    return np.exp(np.median(logs - per_round[:, None], axis=0))


def latency_scaling(dim: int = SCALING_DIM,
                    plane_counts=SCALING_PLANE_COUNTS,
                    seed: int = 0) -> ScalingFit:
    """Time synthetic two-class models over a plane-count sweep at fixed dim.

    The sweep is interleaved: every round times each plane count once, in
    shuffled order, so a machine that speeds up or slows down mid-sweep
    biases all counts alike instead of bending the line. Round-level speed
    shifts are then stripped before the straight-line fit. The probe set is
    kept small enough that probe vectors and the largest model's weights
    fit in cache together; otherwise the biggest models pay an extra
    eviction cost that has nothing to do with plane count.
    """
    rng = np.random.default_rng(seed)
    rows = _one_row_batches(rng.standard_normal((SCALING_PROBE_VECTORS, dim)))
    models = []
    for m_total in plane_counts:
        if m_total < 2 or m_total % 2:
            raise ValueError("plane counts must be even and >= 2 (two classes)")
        half = m_total // 2
        models.append(PlaneMixture(rng.standard_normal((m_total, dim)),
                                   rng.standard_normal(m_total),
                                   np.array([0, half, m_total]), 6.0,
                                   identity_pipeline(dim)))
    samples = np.empty((TIMING_BATCHES, len(models)))
    order_rng = np.random.default_rng((seed, 331))
    with single_thread_blas():
        for mdl in models:
            _time_batch(mdl, rows, WARMUP_CALLS)
        batches = [max(200, _calls_for_budget(mdl, rows) // TIMING_BATCHES)
                   for mdl in models]
        with _gc_paused():
            for r in range(TIMING_BATCHES):
                for k in order_rng.permutation(len(models)):
                    samples[r, k] = _time_batch(models[k], rows, batches[k])
    ys = _strip_round_effects(samples)
    points = [ScalingPoint(m, ns) for m, ns in zip(plane_counts, ys)]
    xs = np.array(plane_counts, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return ScalingFit(points, float(slope), float(intercept), r2)


@dataclass
class BenchCell:
    dataset: str
    seed: int
    error: str | None = None
    lift: str = ""
    planes_per_class: list[int] = field(default_factory=list)
    accuracy: float = float("nan")
    macro_f1: float = float("nan")
    nll: float = float("nan")
    ece_before: float = float("nan")
    ece_after: float = float("nan")
    temperature: float = float("nan")
    train_seconds: float = float("nan")
    latency_ns: float = float("nan")
    # test rows model.predict rescored in float64 (model.certified_predict)
    uncertified_rows: int | None = None


@dataclass
class BenchReport:
    cells: list[BenchCell]
    aggregates: dict
    scaling: ScalingFit | None


def run_cell(dataset: str, seed: int, lift: str = "auto",
             measure_latency: bool = True) -> BenchCell:
    cell = BenchCell(dataset, seed)
    try:
        data = workflow.generate_dataset(dataset, seed=seed)
        train, val, test = workflow.split_dataset(data, seed)
        result = workflow.train_classifier(train, val, lift=lift,
                                           config=TrainConfig(seed=seed))
        metrics = workflow.evaluate_model(result.model, test,
                                          result.stored_temperature)
        cell.lift = result.lift_description
        cell.planes_per_class = list(result.budget.per_class)
        cell.accuracy = metrics["accuracy"]
        cell.macro_f1 = metrics["macro_f1"]
        cell.nll = metrics["nll"]
        cell.ece_before = metrics["ece"]
        cell.ece_after = metrics.get("ece_scaled", metrics["ece"])
        cell.temperature = metrics.get("temperature", float("nan"))
        cell.train_seconds = result.train_seconds
        cell.uncertified_rows = int(model_ops.certified_predict(
            result.model, test.features)[1].size)
        if measure_latency:
            cell.latency_ns = measure_latency_ns(result.model, test.features)
    except Exception as exc:  # record and keep the suite moving
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_suite(datasets=workflow.GENERATORS, seeds=(0, 1, 2),
              lift: str = "auto", with_scaling: bool = True,
              measure_latency: bool = True) -> BenchReport:
    cells = [run_cell(d, s, lift, measure_latency=measure_latency)
             for d in datasets for s in seeds]
    aggregates = {}
    for d in datasets:
        ok = [c for c in cells if c.dataset == d and c.error is None]
        if ok:
            accs = np.array([c.accuracy for c in ok])
            eces = np.array([c.ece_after for c in ok])
            aggregates[d] = {
                "accuracy_mean": float(accs.mean()),
                "accuracy_std": float(accs.std()),
                "ece_after_mean": float(eces.mean()),
                "cells_ok": len(ok),
                "cells_failed": sum(1 for c in cells
                                    if c.dataset == d and c.error),
            }
        else:
            aggregates[d] = {"cells_ok": 0,
                             "cells_failed": sum(1 for c in cells
                                                 if c.dataset == d)}
    scaling = latency_scaling() if with_scaling else None
    return BenchReport(cells, aggregates, scaling)


CELL_FIELDS = tuple(f.name for f in fields(BenchCell))


def report_to_csv(report: BenchReport, path: str) -> None:
    """One row per cell and one column per BenchCell field; planes_per_class
    is written as its counts joined by '|'."""
    rows = ([("|".join(map(str, c.planes_per_class))
              if name == "planes_per_class" else getattr(c, name))
             for name in CELL_FIELDS] for c in report.cells)
    with open(path, "w") as fh:
        fh.write(csv_text(CELL_FIELDS, rows))


def report_to_json(report: BenchReport, path: str) -> None:
    payload = {
        "cells": [{name: workflow.json_number(getattr(c, name))
                   for name in CELL_FIELDS}
                  for c in report.cells],
        "aggregates": report.aggregates,
    }
    if report.scaling is not None:
        payload["scaling"] = asdict(report.scaling)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
