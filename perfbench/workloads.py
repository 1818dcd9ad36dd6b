"""One benchmark workload in this process; started by run.py with BLAS pinned.

Usage (normally through run.py):
    python3 perfbench/workloads.py --workload fit-auto --seed 0 --seconds 30 --trace 0

Every workload is one client in a closed loop: the next call starts when the
previous one returns. Inputs come only from `workflow.generate_dataset`:
datasets and request rows are seeded from --seed, and the served model's
training set is fixed at seed 0. The library is driven only through its public functions
(`workflow.train_classifier`, `persist.save_model`, `persist.load_model`,
`model.predict`), looked up on their modules at call time so the traced pass
can wrap them. Every output is checked; a failed check or an exception
counts one failed operation.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the workload runs twice, untraced and then traced, and the last
line carries per-layer metrics from the traced pass plus the tracing
overhead; the spans are written to .perfbench_out/ at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from planemix import calibration, model as model_ops, persist, workflow
from planemix.training import TrainConfig

import reference
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# tests/test_acceptance.py holds the mean test accuracy of three fixed seeds
# to these floors. One fit on another seed can land below by test-split
# sampling alone (moons at seed 1281196742 scores 0.92875), so a single fit
# fails its check only below the floor minus three binomial standard errors
# of its test split: 0.903 on moons' 800 test rows, 0.739 on aniso's 900.
ACCURACY_FLOOR = {"moons": 0.93, "aniso": 0.78}
# Shared hosts drift between fast and slow spells lasting seconds, so every
# figure is sampled in rounds spread over the whole run rather than in one
# phase: set-up repeats, then the round's fit or batch call, then a burst of
# single-row calls.
SETUP_REPEATS = 5         # set-up timings per round, and at a fit pass's end
PREDICT_SHARE = 0.2       # fit workloads: predict burst per round, per fit second
SINGLE_BURST_S = 1.0      # serve: single-row burst per round
MIN_ROUNDS = 3
SERVE_BATCH_ROWS = 16384  # lifted 16384 x 2048 float64 = 256 MiB > L3
FIT_BATCH_ROWS = 4096     # fit workloads' predict bursts
MIN_SINGLE_CALLS = 2000   # p99 then has at least 20 samples beyond it
SEED_STRIDE = 100003      # dataset j of workload seed s uses seed s + j*stride
DATASET_ROWS = None       # generator default sizes; the self-tests shrink it
# The served model is a fixed artifact: the shape `fit-auto` picks on moons
# at seed 0, trained directly. The workload seed draws the requests.
SERVE_RECIPE = {"lift": "rff", "rff_gamma": 0.5, "planes": 3}
SERVE_MODEL_SEED = 0


@dataclass(frozen=True)
class FitWorkload:
    dataset: str
    kwargs: dict
    datasets: int     # distinct datasets per run, fitted in turn


FIT_WORKLOADS = {
    "fit-auto": FitWorkload("moons", {}, 1),
    "fit-linear": FitWorkload("aniso", {"lift": "linear"}, 5),
}
WORKLOADS = (*FIT_WORKLOADS, "serve")


@dataclass
class Split:
    seed: int
    train: object
    val: object
    test: object


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, why: str = "", count: int = 1, bad: int = 1):
        self.attempted += count
        if not ok:
            self.failed += bad
            if len(self.reasons) < 10:
                self.reasons.append(why)


def make_split(dataset: str, seed: int) -> Split:
    data = workflow.generate_dataset(dataset, n=DATASET_ROWS, seed=seed)
    return Split(seed, *workflow.split_dataset(data, seed))


def accuracy_floor(dataset: str, test_rows: int) -> float:
    p = ACCURACY_FLOOR[dataset]
    return p - 3 * math.sqrt(p * (1 - p) / test_rows)


def timed(make, times: list):
    """Run set-up SETUP_REPEATS times, appending each duration to times."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result


def quality(mdl, temperature, split: Split) -> dict:
    """Test-split accuracy and temperature-scaled NLL and ECE, from reference
    scores."""
    scores = reference.class_scores(mdl, split.test.features)
    labels = split.test.labels
    t = temperature if temperature is not None else 1.0
    return {"accuracy": calibration.accuracy(scores.argmax(axis=1), labels),
            "nll_scaled": calibration.nll(scores / t, labels),
            "ece_scaled": calibration.ece(
                calibration.apply_temperature(scores, t), labels)}


class Sampler:
    """Checked `model.predict` calls on one model: whole batches of x, and
    single rows of x in turn. Each call is one operation."""

    def __init__(self, mdl, x: np.ndarray, ledger: Ledger):
        self.mdl, self.x, self.ledger = mdl, x, ledger
        self.ref = reference.class_scores(mdl, x)
        self.rates: list[float] = []
        self.lat_ns: list[int] = []
        self.next_row = 0

    def batch(self) -> None:
        t0 = time.perf_counter()
        try:
            labels = model_ops.predict(self.mdl, self.x)
        except Exception as exc:  # a failed call is a failed operation
            self.ledger.record(False, f"batch predict raised {exc!r}")
            return
        self.rates.append(self.x.shape[0] / (time.perf_counter() - t0))
        bad = reference.label_mismatches(labels, self.ref)
        self.ledger.record(bad == 0, f"batch predict: {bad} labels disagree")

    def singles(self, seconds: float, min_calls: int = 1) -> None:
        n = self.x.shape[0]
        rows, labels = [], []
        calls = 0
        deadline = time.perf_counter() + seconds
        while calls < min_calls or time.perf_counter() < deadline:
            calls += 1
            r = self.next_row
            self.next_row = (r + 1) % n
            t0 = time.perf_counter_ns()
            try:
                label = model_ops.predict(self.mdl, self.x[r:r + 1])
            except Exception as exc:
                self.ledger.record(False, f"single predict raised {exc!r}")
                continue
            self.lat_ns.append(time.perf_counter_ns() - t0)
            rows.append(r)
            labels.append(int(label[0]))
        bad = reference.label_mismatches(np.array(labels), self.ref[rows])
        self.ledger.record(bad == 0, f"single predict: {bad} labels disagree",
                           count=len(rows), bad=bad)

    def summary(self) -> dict:
        if len(self.lat_ns) < MIN_SINGLE_CALLS:
            self.singles(0.0, MIN_SINGLE_CALLS - len(self.lat_ns))
        lat_us = np.asarray(self.lat_ns, dtype=np.float64) / 1e3
        return {"serve_rows_per_s": statistics.median(self.rates),
                "predict_p50_us": float(np.percentile(lat_us, 50)),
                "predict_p99_us": float(np.percentile(lat_us, 99)),
                "batch_calls": len(self.rates),
                "batch_rows": int(self.x.shape[0]),
                "single_calls": int(lat_us.size)}


def run_fit_pass(spec: FitWorkload, seed: int, seconds: float, work: str,
                 ledger: Ledger, digests: dict,
                 tracer: spans.Tracer | None = None) -> dict:
    """Rounds of: time the set-up, fit dataset (round mod datasets), save and
    check the model, then a predict burst of the dataset-0 model on rows
    drawn from the same generator. Every dataset is fitted at least once;
    `digests` carries each dataset's model bytes across passes, so every
    refit, in this pass or the next, must reproduce them."""
    seeds = [seed + j * SEED_STRIDE for j in range(spec.datasets)]

    def make_splits():
        return [make_split(spec.dataset, s) for s in seeds]

    setup_times, fit_times, qualities, served = [], [], {}, {}
    sampler = None
    started = time.perf_counter()
    op = 0
    while op < spec.datasets or (
            time.perf_counter() - started
            + statistics.median(fit_times) * (1 + PREDICT_SHARE) <= seconds):
        splits = timed(make_splits, setup_times)
        j = op % spec.datasets
        split = splits[j]
        config = TrainConfig(seed=split.seed)
        if tracer is not None:
            tracer.begin_op(op)
        op += 1
        try:
            t0 = time.perf_counter()
            result = workflow.train_classifier(split.train, split.val,
                                               config=config, **spec.kwargs)
            fit_times.append(time.perf_counter() - t0)
            path = os.path.join(work, f"model-{j}.json")
            persist.save_model(result.model, path, result.stored_temperature,
                               workflow.fit_metadata(result, split.train, config))
        except Exception as exc:
            ledger.record(False, f"fit {j} raised {exc!r}")
            continue
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        q = quality(result.model, result.stored_temperature, split)
        qualities[j] = q
        floor = accuracy_floor(spec.dataset, split.test.labels.shape[0])
        same = digests.setdefault(j, digest) == digest
        ledger.record(q["accuracy"] >= floor and same,
                      f"fit {j}: accuracy {q['accuracy']:.4f}"
                      f" (floor {floor:.4f}),"
                      f" bytes identical to first fit: {same}")
        served.setdefault(j, (result, split))
        if sampler is None and 0 in served:
            pool = workflow.generate_dataset(
                spec.dataset, n=FIT_BATCH_ROWS,
                seed=seed + spec.datasets * SEED_STRIDE).features
            sampler = Sampler(served[0][0].model, pool, ledger)
        if sampler is not None:
            burst = fit_times[-1] * PREDICT_SHARE / 2
            deadline = time.perf_counter() + burst
            sampler.batch()
            while time.perf_counter() < deadline:
                sampler.batch()
            sampler.singles(burst)
    timed(make_splits, setup_times)  # a second point in time for 1-fit runs

    result, _ = served[0]
    return {"setup_s": statistics.median(setup_times),
            "fit_s": statistics.median(fit_times), "fit_times": fit_times,
            "model": result.model,
            "describe": [f"{r.lift_description} planes={list(r.budget.per_class)}"
                         for r, _ in served.values()],
            # one value per dataset, so the figures repeat exactly per seed
            **{k: statistics.median(q[k] for q in qualities.values())
               for k in ("accuracy", "nll_scaled", "ece_scaled")},
            **sampler.summary()}


class ServedModel:
    """The serve workload's model file, written by the serve recipe. Each fit
    is timed, and every refit must write the same bytes as the first."""

    def __init__(self, work: str, ledger: Ledger):
        self.split = make_split("moons", SERVE_MODEL_SEED)
        self.config = TrainConfig(seed=SERVE_MODEL_SEED)
        self.path = os.path.join(work, "served.json")
        self.ledger = ledger
        self.fit_times: list[float] = []
        self.digest = None
        self.describe = ""

    def fit(self, tracer: spans.Tracer | None = None) -> None:
        """Train and save; with a tracer, the save is traced."""
        t0 = time.perf_counter()
        result = workflow.train_classifier(self.split.train, self.split.val,
                                           config=self.config, **SERVE_RECIPE)
        self.fit_times.append(time.perf_counter() - t0)
        meta = workflow.fit_metadata(result, self.split.train, self.config)
        with spans.instrument(tracer) if tracer else contextlib.nullcontext():
            persist.save_model(result.model, self.path,
                               result.stored_temperature, meta)
        with open(self.path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.digest = self.digest or digest
        self.ledger.record(digest == self.digest,
                           "refit of the served model wrote different bytes")
        self.describe = (f"{result.lift_description} "
                         f"planes={list(result.budget.per_class)}")


def run_serve_pass(served: ServedModel, pool: np.ndarray, seconds: float,
                   ledger: Ledger, refit: bool) -> dict:
    """Rounds of: time load plus first predict, one batch, a single-row burst.
    With refit, the model is also refitted halfway and at the end, so fit_s
    is a median of fits spread over the run (the served file is unchanged)."""
    setup_times = []

    def load_and_first_predict():
        mdl, temperature, _ = persist.load_model(served.path)
        return mdl, temperature, model_ops.predict(mdl, pool[:1])

    sampler = None
    refit_at = [seconds / 2] if refit else []
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        mdl, temperature, first = timed(load_and_first_predict, setup_times)
        if sampler is None:
            sampler = Sampler(mdl, pool, ledger)
            q = quality(mdl, temperature, served.split)
        bad = reference.label_mismatches(first, sampler.ref[:1])
        ledger.record(bad == 0, "first predict after load disagrees")
        sampler.batch()
        sampler.singles(SINGLE_BURST_S)
        rounds += 1
        if refit_at and time.perf_counter() - started >= refit_at[0]:
            refit_at.pop()
            served.fit()
    if refit:
        served.fit()
    return {"setup_s": statistics.median(setup_times),
            "fit_s": statistics.median(served.fit_times),
            "fit_times": list(served.fit_times), "model": sampler.mdl,
            "describe": [served.describe], **q, **sampler.summary()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    pinned = {k: os.environ.get(k) for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "NUMPY_MADVISE_HUGEPAGE")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "git_commit": commit, "nproc": os.cpu_count(), "pinned_env": pinned}


def end_to_end(res: dict, ledger: Ledger) -> dict:
    values = {k: res[k] for k in ("setup_s", "fit_s", "accuracy", "nll_scaled",
                                  "serve_rows_per_s")}
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    values["success_ratio"] = ((ledger.attempted - ledger.failed)
                               / max(ledger.attempted, 1))
    return labelled(values, "end_to_end")


def per_layer(traced: dict, untraced: dict, tracer: spans.Tracer,
              workload: str) -> dict:
    traced_fits = 0.0 if workload == "serve" else sum(traced["fit_times"])
    values = spans.layer_metrics(tracer, traced_fits)
    values.update(reference.kernel_counts(traced["model"]))
    values["calibration.ece_scaled"] = traced["ece_scaled"]
    values["model.predict_p50_us"] = untraced["predict_p50_us"]
    values["model.predict_p99_us"] = untraced["predict_p99_us"]
    # the workload's headline operation, traced over untraced
    key = "predict_p50_us" if workload == "serve" else "fit_s"
    values["trace.overhead_ratio"] = traced[key] / untraced[key]
    return labelled(values, "per_layer")


def labelled(values: dict, kind: str) -> dict:
    """Exactly the metrics BENCHMARK.json declares under kind, as
    name -> (value, unit); a declared metric missing here is a KeyError."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ledger = Ledger()
    tracer = spans.Tracer() if trace else None
    try:
        if workload == "serve":
            served = ServedModel(work, ledger)
            served.fit(tracer)
            pool = workflow.generate_dataset("moons", n=SERVE_BATCH_ROWS,
                                             seed=seed + SEED_STRIDE).features
            untraced = run_serve_pass(served, pool, seconds, ledger, True)
        else:
            spec = FIT_WORKLOADS[workload]
            digests: dict = {}
            untraced = run_fit_pass(spec, seed, seconds, work, ledger,
                                    digests)
        metrics = end_to_end(untraced, ledger)
        shown = untraced
        if tracer is not None:
            with spans.instrument(tracer):
                if workload == "serve":
                    shown = run_serve_pass(served, pool, seconds, ledger,
                                           False)
                else:
                    shown = run_fit_pass(spec, seed, seconds, work, ledger,
                                         digests, tracer)
            metrics = per_layer(shown, untraced, tracer, workload)
            tracer.write_jsonl(os.path.join(
                OUT_DIR, f"trace-{workload}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "models": shown["describe"],
              "fit_times_s": untraced["fit_times"],
              "batch_calls": untraced["batch_calls"],
              "batch_rows": untraced["batch_rows"],
              "single_row_samples": untraced["single_calls"],
              "single_row_p50_us": untraced["predict_p50_us"],
              "single_row_p99_us": untraced["predict_p99_us"],
              "computed_from_shapes": sorted(reference.kernel_counts(
                  shown["model"])),
              "failures": ledger.reasons, "env": environment()}
    print(json.dumps({"detail": detail}))
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    if not trace:  # measured on every run; bounded only as per-layer metrics
        for q in ("p50", "p99"):
            print(f"{'single-row predict ' + q:34s} "
                  f"{untraced['predict_' + q + '_us']:16.3f} us "
                  f"({untraced['single_calls']} samples)")
    print(f"{'operations attempted':34s} {ledger.attempted:16d}")
    print(f"{'operations failed':34s} {ledger.failed:16d}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
