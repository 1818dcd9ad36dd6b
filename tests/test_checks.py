"""The argument rules: a sweep of bad and good scalars over every public
constructor and generator and the split, and a pin that the sweep covers
all of them."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planemix
from planemix import workflow
from planemix.budgeting import INIT_STRATEGIES, InitSpec, PlaneBudget
from planemix.checks import checked_real, checked_whole
from planemix.datasets import Dataset, split_dataset
from planemix.features import (PIPELINE_LIFTS, PcaMap, PipelineConfig,
                               RffMap, Standardizer, identity_pipeline)
from planemix.model import PlaneMixture
from planemix.training import LR_SCHEDULES, TrainConfig

# NaN, +-inf, bools, negatives, fractions, a digit string, any finite
# float, and small ints
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, -1, -0.5,
                     0, 0.5, 1, 2.5, "3"]),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-10, 1000))


def _keyword(cls):
    return lambda param, value: getattr(cls(**{param: value}), param)


def _split(param, value):
    data = Dataset(np.zeros((6, 2)), np.array([0, 1] * 3), 2)
    split_dataset(data, value)  # keeps nothing


def _generate(make):
    def keep(param, value):
        data = make(**{"n": 30, param: value})
        assert np.isfinite(data.features).all()
        return data.n if param == "n" else None  # nothing else is kept
    return keep


# owner -> keep(param, value): what an owner built with value keeps of it
KEEP = {
    "TrainConfig": _keyword(TrainConfig),
    "PipelineConfig": _keyword(PipelineConfig),
    "InitSpec": _keyword(InitSpec),
    "split_dataset": _split,
    "Dataset": lambda param, value: Dataset(
        np.zeros((2, 2)), np.array([0, 1]), value).class_count,
    "PlaneBudget": lambda param, value: PlaneBudget((1, 1), value).cap,
    "PlaneMixture": lambda param, value: PlaneMixture(
        np.zeros((2, 2)), np.zeros(2), [0, 1, 2], value,
        identity_pipeline(2)).alpha,
    "PcaMap": lambda param, value: PcaMap(
        np.eye(2), np.zeros(2), np.array([2.0, 1.0]), value).variance_retained,
    "RffMap": lambda param, value: RffMap(
        np.ones((2, 4)), np.zeros(4), value).gamma,
    **{make.__name__: _generate(make)
       for make, _ in workflow.GENERATORS.values()},
}

# (owner, parameter) -> (kind, the name its error starts with); kind is
# "real", "whole" or the tuple of choices
SWEEP = {
    **{("TrainConfig", name): ("real", name) for name in (
        "alpha_start", "alpha_end", "l2", "usage_boost", "usage_floor",
        "label_smoothing", "learning_rate", "min_improvement", "clip_norm",
        "usage_momentum")},
    **{("TrainConfig", name): ("whole", name) for name in (
        "batch_size", "max_epochs", "patience", "seed")},
    ("TrainConfig", "lr_schedule"): (LR_SCHEDULES, "lr_schedule"),
    ("PipelineConfig", "lift"): (PIPELINE_LIFTS, "lift"),
    ("PipelineConfig", "rff_dim"): ("whole", "rff_dim"),
    ("PipelineConfig", "rff_gamma"): ("real", "rff_gamma"),
    ("PipelineConfig", "pca_variance"): ("real", "pca_variance"),
    ("PipelineConfig", "seed"): ("whole", "seed"),
    ("InitSpec", "strategy"): (INIT_STRATEGIES, "init"),
    ("InitSpec", "noise_scale"): ("real", "init_noise"),
    ("InitSpec", "seed"): ("whole", "seed"),
    ("split_dataset", "seed"): ("whole", "seed"),
    ("Dataset", "class_count"): ("whole", "class_count"),
    ("PlaneBudget", "cap"): ("whole", "planes_cap"),
    ("PlaneMixture", "alpha"): ("real", "alpha"),
    ("PcaMap", "variance_retained"): ("real", "pca.variance_retained"),
    ("RffMap", "gamma"): ("real", "rff.gamma"),
    **{(make.__name__, name): ("whole", name)
       for make, _ in workflow.GENERATORS.values() for name in ("n", "seed")},
    ("make_moons", "noise"): ("real", "noise"),
    ("make_circles", "noise"): ("real", "noise"),
    ("make_circles", "radius_ratio"): ("real", "radius_ratio"),
    ("make_two_spirals", "turns"): ("real", "turns"),
}


@pytest.mark.parametrize("owner,param", sorted(SWEEP),
                         ids=[f"{o}.{p}" for o, p in sorted(SWEEP)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_scalar_is_kept_or_refused_by_name(owner, param, data):
    kind, name = SWEEP[owner, param]
    values = VALUES if isinstance(kind, str) \
        else st.one_of(VALUES, st.sampled_from(kind))
    value = data.draw(values)
    try:
        kept = KEEP[owner](param, value)
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must "), str(exc)
        return
    if kind == "whole" and kept is not None:
        assert kept == int(value) and type(kept) is int
    elif kept is not None:
        assert kept is value


def _scalar(field) -> bool:
    kind = field.type if isinstance(field.type, str) else field.type.__name__
    return kind.removesuffix(" | None") in ("int", "float", "str")


def test_the_sweep_covers_every_public_scalar_argument():
    # a new field or generator parameter with no rule fails here
    owners = [getattr(planemix, name) for name in planemix.__all__]
    classes = [cls for cls in owners if isinstance(cls, type)
               and dataclasses.is_dataclass(cls)
               and hasattr(cls, "__post_init__")]
    targets = {(cls.__name__, field.name)
               for cls in [*classes, Standardizer, PcaMap, RffMap]
               for field in dataclasses.fields(cls) if _scalar(field)}
    for make, _ in workflow.GENERATORS.values():
        targets |= {(make.__name__, param)
                    for param in inspect.signature(make).parameters}
    assert targets - set(SWEEP) == set()
    assert {"TrainConfig", "Dataset", "PlaneMixture", "make_moons"} <= {
        owner for owner, _ in targets}
    assert set(KEEP) == {owner for owner, _ in SWEEP}


@pytest.mark.parametrize("check,args,message", [
    (checked_real, ("x", True, "be finite"), "x must be finite, got True"),
    (checked_real, ("x", np.True_, "be finite"),
     "x must be finite, got np.True_"),
    (checked_real, ("x", "1", "be finite and >= 0"),
     "x must be finite and >= 0, got '1'"),
    (checked_whole, ("x", False, 0), "x must be a whole number >= 0, "
                                     "got False"),
    (checked_whole, ("x", np.False_, 0), "x must be a whole number >= 0, "
                                         "got np.False_")])
def test_rules_refuse_bools_and_strings_as_numbers(check, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(*args)


def test_the_real_rule_returns_the_value_unchanged():
    # not float(value): asdict(TrainConfig) and model files keep an int 1
    assert type(checked_real("x", 1, "be finite and > 0")) is int
    assert checked_real("x", 10 ** 400, "be finite and > 0") == 10 ** 400
