"""End-to-end composition: data -> lift -> budget -> init -> train -> calibrate.

fit is the training recipe for one pipeline: lift once, budget, init,
optimize. train_classifier picks the lift, runs fit on it and calibrates the
result. The CLI, the benchmark harness and the demos all run through
train_classifier, so they cannot drift apart.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import budgeting, calibration, features, model as model_ops, training
from .datasets import (Dataset, SplitSpec, load_csv, make_aniso_blobs,
                       make_circles, make_moons, make_two_spirals,
                       stratified_split)

# generator and paper-scale default sample count per dataset name; every
# other parameter's default is the generator's own
GENERATORS = {"moons": (make_moons, 4000), "circles": (make_circles, 4000),
              "aniso": (make_aniso_blobs, 4500),
              "spirals": (make_two_spirals, 2000)}


def generate_dataset(name: str, n: int | None = None, seed: int = 0,
                     **params) -> Dataset:
    """The named generator's dataset; parameters not given keep its defaults,
    and one it does not take is refused by name."""
    if name not in GENERATORS:
        raise ValueError(f"unknown dataset {name!r}; choose from "
                         f"{tuple(GENERATORS)}")
    make, default_n = GENERATORS[name]
    if params:
        taken = inspect.signature(make).parameters
        unknown = [key for key in params if key not in taken]
        if unknown:
            raise ValueError(f"{name} takes no {', '.join(unknown)}")
    return make(default_n if n is None else n, seed=seed, **params)


def load_dataset(source: str, seed: int = 0, n: int | None = None,
                 label_column: str | int = "label", **gen_kwargs) -> Dataset:
    """Named generator or CSV path, whichever the source string matches; a
    CSV source refuses n and generator parameters by name."""
    if source in GENERATORS:
        return generate_dataset(source, n=n, seed=seed, **gen_kwargs)
    given = [*gen_kwargs] if n is None else ["n", *gen_kwargs]
    if given:
        raise ValueError(f"CSV source {source!r} takes no {', '.join(given)}")
    return load_csv(source, label_column=label_column)


def split_dataset(data: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """The evaluation protocol's stratified 60/20/20 split."""
    return stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed=seed))


@dataclass
class FitResult:
    model: model_ops.PlaneMixture
    log: training.TrainLog
    budget: budgeting.PlaneBudget
    lift_description: str
    lift_probes: list[features.LiftProbe]
    temperature: calibration.TemperatureFit | None
    train_seconds: float

    @property
    def stored_temperature(self) -> float | None:
        return self.temperature.temperature if self.temperature else None


def fit(train: Dataset, val: Dataset, pipeline: features.FeaturePipeline,
        planes, init, config: training.TrainConfig = training.TrainConfig(),
        planes_cap: int = 4):
    """Run the training recipe for one pipeline; returns (model, log).

    The training rows are lifted once, and that one array feeds the plane
    budget, the initial planes and the epoch loop. planes is 'auto' for
    silhouette budgeting (at most planes_cap per class, seeded by init.seed)
    or a fixed per-class count; init is an InitSpec (see budgeting). The
    stored model carries the final annealed sharpness regardless of when
    early stopping fired.
    """
    if train.dim != val.dim or train.class_count != val.class_count:
        raise ValueError("train and val must share dimensionality and classes")
    lifted_tr = pipeline.apply(train.features)
    lifted_va = pipeline.apply(val.features)
    if planes == "auto":
        budget = budgeting.auto_budget(lifted_tr, train.labels,
                                       train.class_count, cap=planes_cap,
                                       seed=init.seed)
    else:
        budget = budgeting.fixed_budget(train.class_count, planes,
                                        planes_cap)
    start = budgeting.initial_planes(lifted_tr, train.labels, budget, init)
    final_w, final_b, log = training.optimize_planes(
        lifted_tr, train.labels, lifted_va, val.labels, start.weights,
        start.biases, start.offsets, config)
    log.init_strategy = start.strategy
    log.notes.extend(start.notes)
    names = tuple(train.class_names) if train.class_names else None
    model = model_ops.PlaneMixture(final_w, final_b, start.offsets,
                                   config.alpha_end, pipeline, names)
    return model, log


def train_classifier(train: Dataset, val: Dataset, *, lift: str = "auto",
                     rff_dim: int = features.FINAL_RFF_DIM,
                     rff_gamma: float = 1.0, pca_variance: float | None = None,
                     planes: str | int = "auto", planes_cap: int = 4,
                     init: str = "auto", init_noise: float = 0.05,
                     config: training.TrainConfig | None = None,
                     calibrate: bool = True) -> FitResult:
    """Full recipe on an existing train/val split.

    lift is 'linear', 'rff', or 'auto' (probe-selected); planes is 'auto' for
    silhouette budgeting or a fixed per-class count.
    """
    if config is None:
        config = training.TrainConfig()
    # argument checks run here, before the lift probes spend their time
    weights = config.class_weights
    if weights is not None and len(weights) != train.class_count:
        raise ValueError(f"class_weights has {len(weights)} entries for "
                         f"{train.class_count} classes")
    if lift not in features.LIFTS:
        raise ValueError(f"lift must be one of {features.LIFTS}, got {lift!r}")
    # the recipe checks rff_dim and rff_gamma for every lift, though auto
    # uses only rff_dim, after probing
    recipe = features.PipelineConfig(
        "linear" if lift == "auto" else lift, rff_dim=rff_dim,
        rff_gamma=rff_gamma, pca_variance=pca_variance, seed=config.seed)
    planes_cap = budgeting.fixed_budget(
        train.class_count, 1 if planes == "auto" else planes, planes_cap).cap
    init_spec = budgeting.InitSpec(init, init_noise, config.seed)
    started = time.perf_counter()

    probes: list[features.LiftProbe] = []
    if lift == "auto":
        cands = features.default_lift_candidates(pca_variance, seed=config.seed)
        pipeline, probes = features.select_lift(
            train, val, cands, training.probe_train_config(config.seed),
            recipe.rff_dim)
    else:
        pipeline = features.build_pipeline(train, recipe)

    mdl, log = fit(train, val, pipeline, planes, init_spec, config, planes_cap)
    budget = budgeting.PlaneBudget(tuple(mdl.planes_per_class), planes_cap)

    temp = None
    if calibrate:
        temp = calibration.fit_temperature(
            model_ops.class_scores(mdl, val.features), val.labels)
    seconds = time.perf_counter() - started
    return FitResult(mdl, log, budget, _describe_pipeline(pipeline), probes,
                     temp, seconds)


def _describe_pipeline(pipe: features.FeaturePipeline) -> str:
    parts = []
    if pipe.pca is not None:
        parts.append(f"pca(rank={pipe.pca.rank})")
    if pipe.rff is not None:
        parts.append(f"rff(dim={pipe.rff.output_dim}, gamma={pipe.rff.gamma:g})")
    return "+".join(parts) if parts else "linear"


def evaluate_model(mdl: model_ops.PlaneMixture, data: Dataset,
                   temperature: float | None = None) -> dict:
    """Accuracy, macro-F1, NLL, and calibration error (pre/post temperature)."""
    scores = model_ops.class_scores(mdl, data.features)
    preds = np.argmax(scores, axis=1)
    probs = model_ops.posterior(scores)
    out = {
        "accuracy": calibration.accuracy(preds, data.labels),
        "macro_f1": calibration.macro_f1(preds, data.labels, mdl.class_count),
        "nll": calibration.nll(scores, data.labels),
        "ece": calibration.ece(probs, data.labels),
    }
    if temperature is not None:
        scaled = calibration.apply_temperature(scores, temperature)
        out["temperature"] = temperature
        out["ece_scaled"] = calibration.ece(scaled, data.labels)
        out["nll_scaled"] = calibration.nll(scores / temperature, data.labels)
    return out


def dataset_fingerprint(data: Dataset) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features).tobytes())
    h.update(np.ascontiguousarray(data.labels).tobytes())
    return h.hexdigest()


def json_number(value):
    """JSON has no NaN or infinity; such a float is recorded as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def fit_metadata(result: FitResult, train: Dataset,
                 config: training.TrainConfig) -> dict:
    """What goes into the model file; deliberately free of wall-clock values.

    A non-finite float, such as clip_norm=inf or the best_val_loss of a fit
    that diverged at once, is recorded as null.
    """
    return {
        "train_config": {name: json_number(value)
                         for name, value in asdict(config).items()},
        "planes_per_class": list(result.budget.per_class),
        "lift": result.lift_description,
        "init_strategy": result.log.init_strategy,
        "best_epoch": result.log.best_epoch,
        "best_val_loss": json_number(result.log.best_val_loss),
        "epochs_run": len(result.log.epochs),
        "diverged": result.log.diverged,
        "train_fingerprint": dataset_fingerprint(train),
    }
