"""Model files: versioned JSON holding pipeline, planes, sharpness, temperature.

Floats are emitted through Python's shortest round-trip repr, so a saved and
reloaded model reproduces bit-identical predictions. This module keeps only
the file format: it maps JSON fields onto the pipeline stages and the plane
mixture, which check their own arrays when they are built. Each pipeline
stage is written and read by the fields of its dataclass, in their order:
an np.ndarray field as a nested list, a float field as a number. A load that
breaks one of the objects' rules raises ModelFormatError with the file
location put in front of the attribute path the object named, e.g. "field
planes.biases has 3 entries, expected 4".

A save builds the whole text before it touches the disk and then replaces the
target in one step, so a failed save leaves an existing file as it was.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import fields

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


def _json_value(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _pipeline_payload(pipe: FeaturePipeline) -> dict:
    """Each stage as its fields, by name; a stage the pipeline skips is null."""
    stages = {f.name: getattr(pipe, f.name) for f in fields(FeaturePipeline)}
    return {name: None if stage is None else
            {f.name: _json_value(getattr(stage, f.name)) for f in fields(stage)}
            for name, stage in stages.items()}


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
        "planes": {name: getattr(model, name).tolist()
                   for name in _PLANES_FIELDS},
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


# how a stage field of each annotated type is read back
_FIELD_READERS = {"np.ndarray": _array, "float": _number}


def _stage(obj: dict, name: str, cls):
    """The stage cls built from its fields in obj, the stage stored under
    pipeline.name; every field is read before the stage checks them."""
    where = f"pipeline.{name}"
    return cls(*(_FIELD_READERS[f.type](obj, f.name, where)
                 for f in fields(cls)))


def _pipeline(obj: dict) -> FeaturePipeline:
    # the standardizer is required; the pca and rff stages may be null
    standardizer = _stage(_need(obj, "standardizer", "pipeline"),
                          "standardizer", Standardizer)
    optional = {name: _stage(obj[name], name, cls)
                for name, cls in (("pca", PcaMap), ("rff", RffMap))
                if obj.get(name) is not None}
    return FeaturePipeline(standardizer, **optional)


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
