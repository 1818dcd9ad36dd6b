"""Model files: versioned JSON holding pipeline, planes, sharpness, temperature.

Floats are emitted through Python's shortest round-trip repr, so a saved and
reloaded model reproduces bit-identical predictions. This module keeps only
the file format: it maps JSON fields onto the pipeline stages and the plane
mixture, which check their own arrays when they are built. A load that breaks
one of their rules raises ModelFormatError with the file location put in
front of the attribute path the object named, e.g. "field
pipeline.standardizer.scale has 3 entries, expected 2".

A save builds the whole text before it touches the disk and then replaces the
target in one step, so a failed save leaves an existing file as it was.
"""

from __future__ import annotations

import json
import math
import os
import secrets

import numpy as np

from .calibration import check_temperature
from .features import FeaturePipeline, PcaMap, RffMap, Standardizer
from .model import PlaneMixture

FORMAT_NAME = "planemix-model"
FORMAT_VERSION = 1
# PlaneMixture attributes the file keeps in its "planes" object; the others
# sit at the top level
_PLANES_FIELDS = ("weights", "biases", "offsets")


class ModelFormatError(ValueError):
    """Raised when a model file cannot be trusted: bad JSON, wrong version,
    missing or malformed fields."""


def _arrays(stage, names: tuple[str, ...]) -> dict:
    return {name: getattr(stage, name).tolist() for name in names}


def _pipeline_payload(pipe: FeaturePipeline) -> dict:
    payload = {
        "standardizer": _arrays(pipe.standardizer, ("mean", "scale")),
        "pca": None,
        "rff": None,
    }
    if pipe.pca is not None:
        payload["pca"] = {**_arrays(pipe.pca,
                                    ("components", "center", "eigenvalues")),
                          "variance_retained": pipe.pca.variance_retained}
    if pipe.rff is not None:
        payload["rff"] = {**_arrays(pipe.rff, ("omega", "phases")),
                          "gamma": pipe.rff.gamma}
    return payload


def _non_finite_path(value, where: str) -> str | None:
    """Location of the first NaN or infinity below value; JSON holds neither."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if isinstance(value, dict):
        items = ((f"{where}.{key}" if where else str(key), item)
                 for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for place, item in items:
        found = _non_finite_path(item, place)
        if found is not None:
            return found
    return None


def save_model(model: PlaneMixture, path: str, temperature: float | None = None,
               metadata: dict | None = None) -> None:
    if temperature is not None:
        check_temperature(temperature)
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "alpha": model.alpha,
        "temperature": temperature,
        "planes": {
            "weights": model.weights.tolist(),
            "biases": model.biases.tolist(),
            "offsets": model.offsets.tolist(),
        },
        "class_names": list(model.class_names) if model.class_names else None,
        "pipeline": _pipeline_payload(model.pipeline),
        "metadata": metadata or {},
    }
    try:
        text = json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:
        where = _non_finite_path(payload, "")
        if where is None:
            raise
        raise ValueError(f"cannot save the non-finite value at {where}") from None
    # same directory, so os.replace swaps the name in one step
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _need(obj: dict, field: str, where: str):
    if not isinstance(obj, dict) or field not in obj:
        raise ModelFormatError(f"model file is missing field {where}.{field}")
    return obj[field]


def _array(obj: dict, field: str, where: str) -> np.ndarray:
    raw = _need(obj, field, where)
    try:
        return np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"field {where}.{field} is not numeric") from None


def _number(obj: dict, field: str, where: str) -> float:
    raw = _need(obj, field, where)
    # JSON true and false load as bools, which Python counts as ints
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:
            pass
    raise ModelFormatError(f"field {where}.{field} is not a number")


def _pipeline(obj: dict) -> FeaturePipeline:
    std = _need(obj, "standardizer", "pipeline")
    standardizer = Standardizer(_array(std, "mean", "pipeline.standardizer"),
                                _array(std, "scale", "pipeline.standardizer"))
    pca = None
    if obj.get("pca") is not None:
        p = obj["pca"]
        pca = PcaMap(_array(p, "components", "pipeline.pca"),
                     _array(p, "center", "pipeline.pca"),
                     _array(p, "eigenvalues", "pipeline.pca"),
                     _number(p, "variance_retained", "pipeline.pca"))
    rff = None
    if obj.get("rff") is not None:
        r = obj["rff"]
        rff = RffMap(_array(r, "omega", "pipeline.rff"),
                     _array(r, "phases", "pipeline.rff"),
                     _number(r, "gamma", "pipeline.rff"))
    return FeaturePipeline(standardizer, pca, rff)


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

    try:
        pipeline = _pipeline(_need(payload, "pipeline", "$"))
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"{path}: field pipeline.{exc}") from None

    planes = _need(payload, "planes", "$")
    weights, biases, offsets = (_array(planes, name, "planes")
                                for name in _PLANES_FIELDS)
    alpha = _number(payload, "alpha", "$")
    names = payload.get("class_names")
    if names is not None and not (isinstance(names, list) and all(
            isinstance(n, str) for n in names)):
        raise ModelFormatError(f"{path}: class_names must be a list of strings")
    try:
        model = PlaneMixture(weights, biases, offsets, alpha, pipeline,
                             tuple(names) if names else None)
    except ValueError as exc:
        group = "planes." if str(exc).split(" ", 1)[0] in _PLANES_FIELDS else ""
        raise ModelFormatError(f"{path}: field {group}{exc}") from None

    temperature = None
    if payload.get("temperature") is not None:
        temperature = _number(payload, "temperature", "$")
        try:
            check_temperature(temperature)
        except ValueError as exc:
            raise ModelFormatError(f"{path}: {exc}") from None
    metadata = payload.get("metadata") or {}
    return model, temperature, metadata
