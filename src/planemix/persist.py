"""Model files: versioned JSON holding pipeline, planes, sharpness, temperature.

Floats are emitted through Python's shortest round-trip repr, so a saved and
reloaded model reproduces bit-identical predictions. Non-finite parameters
are refused at save time; version, structure or shape mismatches (an array
that does not fit the width of the stage before it) are refused at load time
with the offending field named.
"""

from __future__ import annotations

import json

import numpy as np

from .features import FeaturePipeline, PcaMap, RffMap, Standardizer
from .model import PlaneMixture

FORMAT_NAME = "planemix-model"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file cannot be trusted: bad JSON, wrong version,
    missing or malformed fields."""


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"cannot serialize non-finite values in {name}")
    return arr


def _arrays(stage, where: str, names: tuple[str, ...]) -> dict:
    return {name: _check_finite(f"{where}.{name}", getattr(stage, name)).tolist()
            for name in names}


def _pipeline_payload(pipe: FeaturePipeline) -> dict:
    payload = {
        "standardizer": _arrays(pipe.standardizer, "standardizer",
                                ("mean", "scale")),
        "pca": None,
        "rff": None,
    }
    if pipe.pca is not None:
        payload["pca"] = {**_arrays(pipe.pca, "pca",
                                    ("components", "center", "eigenvalues")),
                          "variance_retained": pipe.pca.variance_retained}
    if pipe.rff is not None:
        payload["rff"] = {**_arrays(pipe.rff, "rff", ("omega", "phases")),
                          "gamma": pipe.rff.gamma}
    return payload


def save_model(model: PlaneMixture, path: str, temperature: float | None = None,
               metadata: dict | None = None) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "alpha": model.alpha,
        "temperature": temperature,
        "planes": {
            "weights": _check_finite("weights", model.weights).tolist(),
            "biases": _check_finite("biases", model.biases).tolist(),
            "offsets": model.offsets.tolist(),
        },
        "class_names": list(model.class_names) if model.class_names else None,
        "pipeline": _pipeline_payload(model.pipeline),
        "metadata": metadata or {},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, allow_nan=False)
        fh.write("\n")


def _need(obj: dict, field: str, where: str):
    if not isinstance(obj, dict) or field not in obj:
        raise ModelFormatError(f"model file is missing field {where}.{field}")
    return obj[field]


def _array(obj: dict, field: str, where: str, ndim: int) -> np.ndarray:
    raw = _need(obj, field, where)
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"field {where}.{field} is not numeric") from None
    if arr.ndim != ndim:
        raise ModelFormatError(f"field {where}.{field} must be {ndim}-D, "
                               f"got {arr.ndim}-D")
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"field {where}.{field} holds non-finite values")
    return arr


def _number(obj: dict, field: str, where: str) -> float:
    return float(_array(obj, field, where, 0))


def _check_shapes(pipe: FeaturePipeline, weights: np.ndarray) -> None:
    """Each stage's arrays must fit the width of the stage before it."""
    dim = pipe.input_dim
    checks = [("pipeline.standardizer.scale", "entries",
               pipe.standardizer.scale.shape[0], dim)]
    if pipe.pca is not None:
        checks += [("pipeline.pca.center", "entries", pipe.pca.center.shape[0], dim),
                   ("pipeline.pca.components", "rows",
                    pipe.pca.components.shape[0], dim)]
        dim = pipe.pca.rank
    if pipe.rff is not None:
        checks += [("pipeline.rff.omega", "rows", pipe.rff.omega.shape[0], dim),
                   ("pipeline.rff.phases", "entries", pipe.rff.phases.shape[0],
                    pipe.rff.omega.shape[1])]
    checks.append(("planes.weights", "columns", weights.shape[1],
                   pipe.output_dim))
    for field, unit, got, want in checks:
        if got != want:
            raise ModelFormatError(f"field {field} has {got} {unit}, "
                                   f"expected {want}")


def load_model(path: str):
    """Returns (model, temperature, metadata). Rejects unknown versions."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    fmt = _need(payload, "format", "$")
    if fmt != FORMAT_NAME:
        raise ModelFormatError(f"{path}: format {fmt!r} is not {FORMAT_NAME!r}")
    version = _need(payload, "version", "$")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: file version {version} does not match "
                               f"supported version {FORMAT_VERSION}")

    pipe_obj = _need(payload, "pipeline", "$")
    std_obj = _need(pipe_obj, "standardizer", "pipeline")
    standardizer = Standardizer(
        _array(std_obj, "mean", "pipeline.standardizer", 1),
        _array(std_obj, "scale", "pipeline.standardizer", 1))
    pca = None
    if pipe_obj.get("pca") is not None:
        p = pipe_obj["pca"]
        pca = PcaMap(_array(p, "components", "pipeline.pca", 2),
                     _array(p, "center", "pipeline.pca", 1),
                     _array(p, "eigenvalues", "pipeline.pca", 1),
                     _number(p, "variance_retained", "pipeline.pca"))
    rff = None
    if pipe_obj.get("rff") is not None:
        r = pipe_obj["rff"]
        rff = RffMap(_array(r, "omega", "pipeline.rff", 2),
                     _array(r, "phases", "pipeline.rff", 1),
                     _number(r, "gamma", "pipeline.rff"))
    pipeline = FeaturePipeline(standardizer, pca, rff)

    planes = _need(payload, "planes", "$")
    weights = _array(planes, "weights", "planes", 2)
    _check_shapes(pipeline, weights)
    biases = _array(planes, "biases", "planes", 1)
    offsets = _array(planes, "offsets", "planes", 1)
    if not ((offsets == np.round(offsets)) & (offsets >= 0)
            & (offsets <= weights.shape[0])).all():
        raise ModelFormatError("field planes.offsets must hold integers in "
                               f"[0, {weights.shape[0]}], got {offsets.tolist()}")
    names = payload.get("class_names")
    if names is not None and not (isinstance(names, list) and all(
            isinstance(n, str) for n in names)):
        raise ModelFormatError(f"{path}: class_names must be a list of strings")
    try:
        model = PlaneMixture(weights, biases, offsets.astype(np.int64),
                             _number(payload, "alpha", "$"), pipeline,
                             tuple(names) if names else None)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None

    temperature = None
    if payload.get("temperature") is not None:
        temperature = _number(payload, "temperature", "$")
        if not temperature > 0:
            raise ModelFormatError(f"{path}: temperature must be > 0")
    metadata = payload.get("metadata") or {}
    return model, temperature, metadata
