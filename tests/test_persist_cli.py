"""Model files survive round trips; the command line drives every workflow."""

import base64
import csv
import dataclasses
import functools
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix import bench, calibration, cli, persist, workflow
from planemix.datasets import load_csv
from planemix.features import (
    FeaturePipeline,
    PcaMap,
    Standardizer,
    identity_pipeline,
    sample_rff,
)
from planemix.model import PlaneMixture, class_scores, predict
from planemix.training import TrainConfig


def small_model():
    rng = np.random.default_rng(7)
    return PlaneMixture(rng.standard_normal((3, 2)), rng.standard_normal(3),
                        np.array([0, 2, 3]), 5.5, identity_pipeline(2),
                        class_names=("inside", "outside"))


def lifted_model(pca=True, rff=True):
    rng = np.random.default_rng(8)
    std = Standardizer(rng.standard_normal(3),
                       np.abs(rng.standard_normal(3)) + 0.5)
    pca = PcaMap(np.linalg.qr(rng.standard_normal((3, 2)))[0],
                 rng.standard_normal(3) * 0.1, np.array([2.0, 1.0]),
                 0.9) if pca else None
    rff = sample_rff(std.mean.size if pca is None else pca.rank, 4, 0.7,
                     seed=3) if rff else None
    pipe = FeaturePipeline(std, pca=pca, rff=rff)
    return PlaneMixture(rng.standard_normal((4, pipe.output_dim)),
                        rng.standard_normal(4), np.array([0, 1, 4]), 6.0, pipe)


def float_arrays(mdl):
    """Every float array of a model, by its attribute path."""
    stages = {f.name: getattr(mdl.pipeline, f.name)
              for f in dataclasses.fields(FeaturePipeline)}
    return {"planes.weights": mdl.weights, "planes.biases": mdl.biases,
            **{f"pipeline.{name}.{f.name}": getattr(stage, f.name)
               for name, stage in stages.items() if stage is not None
               for f in dataclasses.fields(stage) if f.type == "np.ndarray"}}


def encoded(array) -> dict:
    """array as a version 2 model file stores it: its shape and its
    little-endian float64 bytes in C order, base64-encoded."""
    arr = np.asarray(array, dtype="<f8")
    return {"shape": list(arr.shape),
            "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def edit_array(obj, name, change):
    """Replace the encoded array obj[name] by change(a writable copy of it)."""
    raw = obj[name]
    arr = np.frombuffer(base64.b64decode(raw["f8"]), dtype="<f8")
    obj[name] = encoded(change(arr.reshape(raw["shape"]).copy()))


def append_row(arr):
    return np.vstack([arr, np.zeros(arr.shape[1])])


class TestRoundTrip:
    def test_plain_model_restores_every_field(self, tmp_path):
        mdl = small_model()
        path = str(tmp_path / "m.json")
        persist.save_model(mdl, path)
        back, temperature, metadata = persist.load_model(path)
        assert np.array_equal(back.weights, mdl.weights)
        assert np.array_equal(back.biases, mdl.biases)
        assert np.array_equal(back.offsets, mdl.offsets)
        assert back.alpha == mdl.alpha
        assert back.class_names == mdl.class_names
        assert temperature is None
        assert metadata == {}

    def test_temperature_and_metadata_travel_along(self, tmp_path):
        path = str(tmp_path / "m.json")
        persist.save_model(small_model(), path, temperature=1.75,
                           metadata={"source": "unit test", "n": 12})
        _, temperature, metadata = persist.load_model(path)
        assert temperature == 1.75
        assert metadata == {"source": "unit test", "n": 12}

    def test_lifted_model_predicts_bit_identically(self, tmp_path):
        mdl = lifted_model()
        path = str(tmp_path / "m.json")
        persist.save_model(mdl, path)
        back, _, _ = persist.load_model(path)
        x = np.random.default_rng(9).standard_normal((30, 3))
        assert np.array_equal(class_scores(mdl, x), class_scores(back, x))
        assert np.array_equal(back.pipeline.rff.omega, mdl.pipeline.rff.omega)
        assert np.array_equal(back.pipeline.pca.components,
                              mdl.pipeline.pca.components)

    def test_saving_twice_is_byte_identical(self, tmp_path):
        mdl = lifted_model()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        persist.save_model(mdl, a)
        persist.save_model(mdl, b)
        assert open(a, "rb").read() == open(b, "rb").read()


# -0.0, the smallest subnormal and the largest finite floats of either sign
EDGE_VALUES = np.array([-0.0, 5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308])


class TestEncodedArrays:
    MODELS = {"linear": small_model,
              "pca": functools.partial(lifted_model, rff=False),
              "rff": functools.partial(lifted_model, pca=False)}

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_every_array_comes_back_bit_equal(self, tmp_path, kind):
        mdl = self.MODELS[kind]()
        for where, arr in float_arrays(mdl).items():
            # a scale must stay > 0 for the file to load
            edge = EDGE_VALUES[1:3] if where.endswith("scale") else EDGE_VALUES
            arr.flat[:edge.size] = edge[:arr.size]
        path = str(tmp_path / "m.json")
        persist.save_model(mdl, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["version"] == 2
        assert payload["planes"]["weights"] == encoded(mdl.weights)
        back, _, _ = persist.load_model(path)
        loaded = float_arrays(back)
        assert loaded.keys() == float_arrays(mdl).keys()
        for where, arr in float_arrays(mdl).items():
            got = loaded[where]
            assert (got.dtype, got.shape) == (np.float64, arr.shape), where
            assert got.tobytes() == arr.tobytes(), where
            assert got.flags.owndata and got.flags.writeable, where
        assert np.array_equal(back.offsets, mdl.offsets)

    def test_zero_size_arrays_round_trip(self, tmp_path):
        mdl = PlaneMixture(np.zeros((2, 0)), np.zeros(2), np.array([0, 1, 2]),
                           1.0, identity_pipeline(0))
        path = str(tmp_path / "m.json")
        persist.save_model(mdl, path)
        back, _, _ = persist.load_model(path)
        assert back.weights.shape == (2, 0)
        assert back.pipeline.standardizer.mean.shape == (0,)


def _drop_frequencies(payload):
    """A consistent model file whose RFF lift has no frequencies."""
    rff = payload["pipeline"]["rff"]
    edit_array(rff, "omega", lambda a: a[:, :0])
    edit_array(rff, "phases", lambda a: a[:0])
    edit_array(payload["planes"], "weights", lambda a: a[:, :0])


class TestRejection:
    def test_non_finite_weights_refuse_to_serialize(self, tmp_path):
        mdl = small_model()
        mdl.weights[0, 0] = np.inf
        with pytest.raises(ValueError, match="weights"):
            persist.save_model(mdl, str(tmp_path / "m.json"))

    def test_error_type_is_a_value_error(self):
        assert issubclass(persist.ModelFormatError, ValueError)

    def write_payload(self, tmp_path, mutate, model=None):
        path = str(tmp_path / "m.json")
        persist.save_model(model or small_model(), path)
        with open(path) as fh:
            payload = json.load(fh)
        mutate(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def test_garbage_bytes_are_reported_as_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(persist.ModelFormatError, match="JSON"):
            persist.load_model(str(path))

    def test_foreign_format_name_is_refused(self, tmp_path):
        path = self.write_payload(tmp_path,
                                  lambda p: p.update(format="other-thing"))
        with pytest.raises(persist.ModelFormatError, match="other-thing"):
            persist.load_model(path)

    def test_future_version_is_refused(self, tmp_path):
        path = self.write_payload(tmp_path, lambda p: p.update(version=99))
        with pytest.raises(persist.ModelFormatError, match="version"):
            persist.load_model(path)

    def test_missing_field_names_its_path(self, tmp_path):
        path = self.write_payload(tmp_path,
                                  lambda p: p["planes"].pop("weights"))
        with pytest.raises(persist.ModelFormatError, match="planes.weights"):
            persist.load_model(path)

    def test_text_where_numbers_belong_is_refused(self, tmp_path):
        path = self.write_payload(
            tmp_path, lambda p: p["planes"].update(weights="zeros"))
        with pytest.raises(persist.ModelFormatError, match="not numeric"):
            persist.load_model(path)

    SHAPE_ERROR = r"\.shape must be a list of whole numbers >= 0"
    BASE64_ERROR = r"\.f8 is not valid base64"

    @pytest.mark.parametrize("value,message", [
        ([[0.0, 1.0]] * 3, " is not numeric"),
        ({"shape": [3, 2]}, " is not numeric"),
        ({"shape": [3, 2], "f8": "", "dtype": "<f8"}, " is not numeric"),
        ({"shape": [3, -2], "f8": ""}, SHAPE_ERROR),
        ({"shape": [3, 2.0], "f8": ""}, SHAPE_ERROR),
        ({"shape": [True, 2], "f8": ""}, SHAPE_ERROR),
        ({"shape": "3 2", "f8": ""}, SHAPE_ERROR),
        ({"shape": [3, 2], "f8": "AAAA*AAA"}, BASE64_ERROR),
        ({"shape": [3, 2], "f8": "AAAAA"}, BASE64_ERROR),
        ({"shape": [3, 2], "f8": 7}, BASE64_ERROR),
        ({"shape": [3, 2], "f8": encoded(np.zeros(5))["f8"]},
         r"\.f8 holds 40 bytes, expected 8 per entry of shape \[3, 2\]"),
        ({"shape": [2 ** 62, 2 ** 62], "f8": ""}, r"\.f8 holds 0 bytes"),
        ({"shape": [1] * 65, "f8": encoded([0.0])["f8"]},
         r"\.shape: maximum supported dimension"),
    ], ids=["nested-list", "no-f8", "extra-key", "negative-shape",
            "float-shape", "bool-shape", "text-shape", "bad-character",
            "bad-padding", "number-f8", "short-bytes", "huge-shape",
            "too-many-dimensions"])
    def test_malformed_encoded_array_names_its_path(self, tmp_path, value,
                                                    message):
        path = self.write_payload(
            tmp_path, lambda p: p["planes"].update(weights=value))
        with pytest.raises(persist.ModelFormatError,
                           match=r"field planes\.weights" + message):
            persist.load_model(path)

    def test_version_1_file_is_refused_by_its_version(self, tmp_path):
        def as_version_1(payload):
            # version 1 wrote every float array as nested lists
            payload["version"] = 1
            stages = [s for s in payload["pipeline"].values() if s]
            for obj in (payload["planes"], *stages):
                for key, value in obj.items():
                    if isinstance(value, dict):
                        obj[key] = np.frombuffer(
                            base64.b64decode(value["f8"])).reshape(
                                value["shape"]).tolist()

        path = self.write_payload(tmp_path, as_version_1)
        with pytest.raises(persist.ModelFormatError,
                           match="file version 1 does not match supported "
                                 "version 2"):
            persist.load_model(path)

    @pytest.mark.parametrize("metadata", [[1, 2], "note", 3.5, []],
                             ids=["list", "text", "number", "empty-list"])
    def test_metadata_that_is_not_an_object_is_refused(self, tmp_path,
                                                       metadata):
        # [1, 2] used to load as it was, and `planemix calibrate` then failed
        # with a TypeError when it stored the calibration in it
        path = self.write_payload(tmp_path,
                                  lambda p: p.update(metadata=metadata))
        with pytest.raises(persist.ModelFormatError,
                           match="field metadata must be an object or null"):
            persist.load_model(path)

    def test_null_or_missing_metadata_loads_empty(self, tmp_path):
        for mutate in (lambda p: p.update(metadata=None),
                       lambda p: p.pop("metadata")):
            path = self.write_payload(tmp_path, mutate)
            assert persist.load_model(path)[2] == {}

    def test_wrong_rank_array_is_refused(self, tmp_path):
        path = self.write_payload(
            tmp_path,
            lambda p: p["planes"].update(biases=encoded(np.zeros((2, 2)))))
        with pytest.raises(persist.ModelFormatError, match="1-D"):
            persist.load_model(path)

    def test_non_positive_temperature_is_refused(self, tmp_path):
        path = self.write_payload(tmp_path,
                                  lambda p: p.update(temperature=-2.0))
        with pytest.raises(persist.ModelFormatError, match="temperature"):
            persist.load_model(path)

    def test_inconsistent_planes_are_refused(self, tmp_path):
        # offsets promise 4 planes but only 3 rows of weights exist
        path = self.write_payload(tmp_path,
                                  lambda p: p["planes"].update(offsets=[0, 2, 4]))
        with pytest.raises(persist.ModelFormatError):
            persist.load_model(path)

    def test_fractional_offsets_are_refused(self, tmp_path):
        # an int64 cast used to load [0, 1.7, 3] silently as [0, 1, 3]
        path = self.write_payload(
            tmp_path, lambda p: p["planes"].update(offsets=[0, 1.7, 3]))
        with pytest.raises(persist.ModelFormatError, match="planes.offsets"):
            persist.load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("alpha", float("nan")), ("temperature", float("inf")),
        ("alpha", [1.0]), ("class_names", 7), ("alpha", 10 ** 400),
        ("alpha", True), ("temperature", True)],
        ids=["nan-alpha", "inf-temperature", "list-alpha", "int-names",
             "huge-int-alpha", "bool-alpha", "bool-temperature"])
    def test_malformed_scalars_are_format_errors(self, tmp_path, field, value):
        path = self.write_payload(tmp_path, lambda p: p.update({field: value}))
        with pytest.raises(persist.ModelFormatError):
            persist.load_model(path)

    @pytest.mark.parametrize("field,mutate", [
        ("pipeline.standardizer.scale",
         lambda p: edit_array(p["pipeline"]["standardizer"], "scale",
                              lambda a: np.append(a, 1.0))),
        ("pipeline.pca.center",
         lambda p: edit_array(p["pipeline"]["pca"], "center",
                              lambda a: np.append(a, 0.0))),
        ("pipeline.pca.components",
         lambda p: edit_array(p["pipeline"]["pca"], "components", append_row)),
        ("pipeline.rff.omega",
         lambda p: edit_array(p["pipeline"]["rff"], "omega", append_row)),
        ("pipeline.rff.phases",
         lambda p: edit_array(p["pipeline"]["rff"], "phases",
                              lambda a: a[:-1])),
        ("planes.weights",
         lambda p: edit_array(p["planes"], "weights",
                              lambda a: append_row(a.T).T)),
        ("pipeline.rff.omega", _drop_frequencies),
    ], ids=["scale", "pca-center", "pca-components", "rff-omega",
            "rff-phases", "weight-columns", "no-frequencies"])
    def test_shape_mismatches_name_their_field(self, tmp_path, field, mutate):
        # such files used to load, and predict then failed with a numpy
        # broadcasting message that named no field, or, for a lift with no
        # frequencies, with ZeroDivisionError
        path = self.write_payload(tmp_path, mutate, model=lifted_model())
        with pytest.raises(persist.ModelFormatError, match=field):
            persist.load_model(path)


def test_zero_scale_in_a_file_is_refused(tmp_path):
    # such a file used to load, and predict then printed label 0 with NaN
    # probabilities
    path = str(tmp_path / "m.json")
    persist.save_model(lifted_model(), path)
    with open(path) as fh:
        payload = json.load(fh)
    edit_array(payload["pipeline"]["standardizer"], "scale",
               lambda a: np.where(np.arange(a.size) == 1, 0.0, a))
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(persist.ModelFormatError,
                       match="field pipeline.standardizer.scale must be > 0"):
        persist.load_model(path)


class TestSaveIsWholeOrNothing:
    def saved(self, tmp_path):
        path = tmp_path / "m.json"
        persist.save_model(small_model(), str(path), temperature=1.5)
        return path, path.read_bytes()

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"),
                                             0.0, -1.0])
    def test_bad_temperature_is_refused_like_load_refuses_it(
            self, tmp_path, temperature):
        # -1.0 used to save a file that load_model refused; NaN left a
        # truncated file behind
        path, before = self.saved(tmp_path)
        with pytest.raises(ValueError, match="temperature must be finite "
                                             "and > 0"):
            persist.save_model(small_model(), str(path), temperature)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.json"]

    def test_non_finite_metadata_is_named_and_the_file_kept(self, tmp_path):
        path, before = self.saved(tmp_path)
        with pytest.raises(ValueError, match=r"metadata\.history\[1\]"):
            persist.save_model(small_model(), str(path),
                               metadata={"history": [0.5, float("inf")]})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.json"]

    def test_weights_changed_in_place_are_named_and_the_file_kept(
            self, tmp_path):
        path, before = self.saved(tmp_path)
        mdl = small_model()
        mdl.weights[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"planes\.weights\[1\]\[0\]"):
            persist.save_model(mdl, str(path))
        assert path.read_bytes() == before


    def test_lift_array_changed_in_place_is_named_and_the_file_kept(
            self, tmp_path):
        path = tmp_path / "m.json"
        persist.save_model(lifted_model(), str(path))
        before = path.read_bytes()
        mdl = lifted_model()
        mdl.pipeline.rff.omega[1, 2] = np.nan
        with pytest.raises(ValueError,
                           match=r"pipeline\.rff\.omega\[1\]\[2\]"):
            persist.save_model(mdl, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.json"]


SCALES = st.floats(0.1, 3.0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_models_round_trip_exactly(data):
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    d = data.draw(st.integers(1, 4))
    stages = data.draw(st.sampled_from(["standardize", "pca", "rff",
                                        "pca+rff"]))
    pca = rff = None
    width = d
    if "pca" in stages:
        width = data.draw(st.integers(1, d))
        pca = PcaMap(np.linalg.qr(rng.standard_normal((d, d)))[0][:, :width],
                     rng.standard_normal(d),
                     np.sort(rng.uniform(0.0, 2.0, d))[::-1],
                     data.draw(st.floats(0.5, 1.0)))
    if "rff" in stages:
        rff = sample_rff(width, data.draw(st.integers(1, 6)),
                         data.draw(SCALES), seed)
        width = rff.output_dim
    pipe = FeaturePipeline(Standardizer(rng.standard_normal(d),
                                        rng.uniform(0.1, 3.0, d)), pca, rff)
    per_class = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    offsets = np.concatenate([[0], np.cumsum(per_class)])
    names = data.draw(st.none() | st.just(
        tuple(f"class {c}" for c in range(len(per_class)))))
    mdl = PlaneMixture(rng.standard_normal((offsets[-1], width))
                       * 10.0 ** rng.uniform(-3, 3),
                       rng.standard_normal(offsets[-1]), offsets,
                       data.draw(st.floats(0.5, 20.0)), pipe, names)
    temperature = data.draw(st.none() | SCALES)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        persist.save_model(mdl, path, temperature)
        back, back_temperature, _ = persist.load_model(path)
    assert back_temperature == temperature
    assert (back.alpha, back.class_names) == (mdl.alpha, mdl.class_names)
    for name in ("weights", "biases", "offsets"):
        assert np.array_equal(getattr(back, name), getattr(mdl, name))
    assert back.offsets.dtype == np.int64
    stage_arrays = [("standardizer", ("mean", "scale")),
                    ("pca", ("components", "center", "eigenvalues")),
                    ("rff", ("omega", "phases"))]
    for stage, names_ in stage_arrays:
        ours, theirs = getattr(pipe, stage), getattr(back.pipeline, stage)
        assert (ours is None) == (theirs is None)
        for name in names_ if ours is not None else ():
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    if pca is not None:
        assert back.pipeline.pca.variance_retained == pca.variance_retained
    if rff is not None:
        assert back.pipeline.rff.gamma == rff.gamma
    x = rng.standard_normal((7, d))
    assert np.array_equal(class_scores(back, x), class_scores(mdl, x))
    assert np.array_equal(predict(back, x), predict(mdl, x))


def _json_paths(obj, prefix=()):
    """Every key or index path below obj, parents before children."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_model_files_fail_only_with_model_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        persist.save_model(lifted_model(), path, temperature=1.5,
                           metadata={"note": "base"})
        with open(path) as fh:
            payload = json.load(fh)
        where = data.draw(st.sampled_from(list(_json_paths(payload))))
        parent = payload
        for key in where[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(JSON_VALUES)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        try:
            persist.load_model(path)
        except persist.ModelFormatError:
            pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A dataset CSV and a model fitted on it, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cliwork")
    data_csv = str(root / "moons.csv")
    model_json = str(root / "model.json")
    assert cli.main(["generate", "--dataset", "moons", "--n", "240",
                     "--noise", "0.25", "--seed", "5", "--out", data_csv]) == 0
    assert cli.main(["fit", "--dataset", data_csv, "--planes", "2",
                     "--lift", "linear", "--max-epochs", "12",
                     "--batch-size", "64", "--seed", "0",
                     "--out", model_json]) == 0
    return root, data_csv, model_json


def _must_not_run(fn):
    """A stand-in for fn that fails the test when called. It keeps fn's
    signature, which the parser reads its flag defaults from."""
    @functools.wraps(fn)
    def called(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} ran")
    return called


class TestCommandLine:
    def test_generate_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            rc = cli.main(["generate", "--dataset", "circles", "--n", "60",
                           "--seed", "11", "--out", out])
            assert rc == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_generate_writes_loadable_csv(self, workdir):
        _, data_csv, _ = workdir
        data = load_csv(data_csv)
        assert data.n == 240
        assert data.class_count == 2

    def test_fit_leaves_model_log_and_summary(self, workdir):
        root, _, model_json = workdir
        mdl, temperature, metadata = persist.load_model(model_json)
        assert mdl.class_count == 2
        assert temperature is not None and temperature > 0
        assert "train_config" in metadata
        log_lines = (root / "model.train_log.csv").read_text().splitlines()
        assert log_lines[0] == ("epoch,train_loss,val_loss,alpha,lr,"
                                "usage_min,usage_max")
        assert len(log_lines) >= 2
        assert "test accuracy" in (root / "model.summary.txt").read_text()

    def test_default_fit_parse_is_the_default_config(self):
        args = cli.build_parser().parse_args(["fit", "--dataset", "moons"])
        assert cli._config_from(args) == TrainConfig(seed=0)

    def test_fit_flags_are_the_config_fields_users_set(self):
        args = cli.build_parser().parse_args(["fit", "--dataset", "moons"])
        assert not hasattr(args, "min_improvement")
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["fit", "--dataset", "moons", "--min-improvement", "0.1"])

    def test_every_config_field_reaches_the_model_file(self, workdir,
                                                       tmp_path):
        _, data_csv, _ = workdir
        out = str(tmp_path / "weighted.json")
        assert cli.main(["fit", "--dataset", data_csv, "--planes", "2",
                         "--lift", "linear", "--max-epochs", "12",
                         "--batch-size", "64", "--class-weights", "1,3",
                         "--seed", "0", "--out", out]) == 0
        _, _, metadata = persist.load_model(out)
        expected = TrainConfig(max_epochs=12, batch_size=64,
                               class_weights=(1.0, 3.0), seed=0)
        recorded = metadata["train_config"]
        assert recorded == json.loads(json.dumps(dataclasses.asdict(expected)))
        assert recorded["class_weights"] == [1.0, 3.0]

    def test_class_weight_count_mismatch_exits_with_named_error(
            self, tmp_path, capsys):
        rc = cli.main(["fit", "--dataset", "moons", "--class-weights", "1",
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "class_weights has 1 entries for 2 classes" in \
            capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--learning-rate", "-1", "learning_rate"),
        ("--usage-momentum", "1.0", "usage_momentum"),
        ("--class-weights", "1,nan", "class_weights"),
        ("--seed", "-1", "seed")])
    def test_bad_config_value_exits_naming_the_field(self, tmp_path, capsys,
                                                     flag, value, field):
        rc = cli.main(["fit", "--dataset", "moons", flag, value,
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_non_finite_csv_cell_exits_before_fitting(self, tmp_path, capsys):
        path = tmp_path / "holes.csv"
        path.write_text("a,b,label\n" + "".join(
            f"{i % 5}.0,{'nan' if i == 7 else i},{i % 2}\n" for i in range(30)))
        rc = cli.main(["fit", "--dataset", str(path), "--lift", "linear",
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "row 8, column 'b'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_csv_cell_too_large_to_standardize_exits_before_the_probes(
            self, tmp_path, capsys, monkeypatch):
        # the cell is finite, so load_csv took it; numpy then warned of an
        # overflow, and each of the five lift probes failed with
        # "standardizer.scale holds non-finite values"
        monkeypatch.setattr(workflow, "fit", _must_not_run(workflow.fit))
        path = tmp_path / "huge.csv"
        path.write_text("a,b,label\n" + "".join(
            f"{i % 5}.0,{'1e200' if i % 10 == 3 else i},{i % 2}\n"
            for i in range(60)))
        rc = cli.main(["fit", "--dataset", str(path),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        # the row is named as load_csv numbers it, from 1 after the header;
        # it was named by its index in the shuffled training split
        found = re.fullmatch(r"error: row (\d+), column 'b' is too large "
                             r"to standardize\n", err)
        assert found
        lines = path.read_text().splitlines()
        assert lines[int(found[1])].split(",")[1] == "1e200"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag,value,recorded", [
        ("--clip-norm", "inf", ("train_config", "clip_norm")),
        ("--learning-rate", "1e300", ("best_val_loss",))])
    @pytest.mark.filterwarnings("error")
    def test_every_fit_can_be_saved(self, tmp_path, flag, value, recorded):
        # clip_norm=inf switches clipping off, and a fit that diverges at
        # epoch 0 keeps best_val_loss at inf; both used to fail at save
        # time and leave a truncated model file. The divergence is recorded
        # without a RuntimeWarning, which the filter turns into a failure.
        out = tmp_path / "m.json"
        rc = cli.main(["fit", "--dataset", "aniso", "--n", "900", "--lift",
                       "linear", "--planes", "1", "--max-epochs", "3",
                       flag, value, "--out", str(out)])
        assert rc == 0
        _, _, metadata = persist.load_model(str(out))
        for key in recorded:
            metadata = metadata[key]
        assert metadata is None

    def reordered_csv(self, data_csv, tmp_path):
        """The same rows, those of the file's first label moved last."""
        header, *rows = open(data_csv).read().splitlines()
        first = rows[0].rsplit(",", 1)[1]
        rows.sort(key=lambda row: row.rsplit(",", 1)[1] == first)
        path = tmp_path / "reordered.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return str(path)

    def test_evaluate_maps_csv_labels_through_the_model(self, workdir,
                                                        tmp_path):
        # load_csv numbers labels by first appearance, so the reordered
        # file used to swap the classes and score far lower
        _, data_csv, model_json = workdir
        metrics = []
        for source in (data_csv, self.reordered_csv(data_csv, tmp_path)):
            out = str(tmp_path / "metrics.json")
            assert cli.main(["evaluate", "--model", model_json, "--dataset",
                             source, "--format", "json", "--out", out]) == 0
            metrics.append(json.loads(open(out).read()))
        assert metrics[0]["accuracy"] == metrics[1]["accuracy"]
        assert metrics[0]["macro_f1"] == metrics[1]["macro_f1"]
        assert metrics[0]["nll"] == pytest.approx(metrics[1]["nll"])

    def test_calibrate_maps_csv_labels_through_the_model(self, workdir,
                                                         tmp_path):
        _, data_csv, model_json = workdir
        temperatures = []
        for source in (data_csv, self.reordered_csv(data_csv, tmp_path)):
            out = str(tmp_path / "recal.json")
            assert cli.main(["calibrate", "--model", model_json, "--dataset",
                             source, "--out", out]) == 0
            temperatures.append(persist.load_model(out)[1])
        assert temperatures[0] == pytest.approx(temperatures[1], rel=1e-6)

    @pytest.mark.parametrize("command", ["evaluate", "calibrate", "inspect"])
    def test_label_unknown_to_the_model_exits_naming_row_and_label(
            self, workdir, tmp_path, capsys, command):
        _, data_csv, model_json = workdir
        header, *rows = open(data_csv).read().splitlines()
        rows[4] = rows[4].rsplit(",", 1)[0] + ",7"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        out = ["--out-dir", str(tmp_path / "report")] \
            if command == "inspect" else ["--out", str(tmp_path / "out")]
        rc = cli.main([command, "--model", model_json, "--dataset", str(bad),
                       *out])
        assert rc == 1
        assert "row 5: label '7' is not one of the model's classes" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_predict_rows_are_proper_distributions(self, workdir, tmp_path):
        _, data_csv, model_json = workdir
        out = str(tmp_path / "preds.csv")
        rc = cli.main(["predict", "--model", model_json, "--dataset", data_csv,
                       "--out", out])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 240
        for row in rows[:20]:
            total = sum(float(v) for k, v in row.items() if k.startswith("p_"))
            assert total == pytest.approx(1.0, abs=1e-9)
            assert row["prediction"] in ("0", "1")

    def test_predict_names_a_row_that_overflows_the_model(self, workdir,
                                                          tmp_path, capsys):
        _, data_csv, model_json = workdir
        header, *rows = open(data_csv).read().splitlines()
        rows[3] = "1.7e308,0," + rows[3].rsplit(",", 1)[1]
        bad = tmp_path / "huge.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--model", model_json, "--dataset",
                       str(bad), "--out", str(out)])
        assert rc == 1
        assert "input row 3 is out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_json_format(self, workdir, tmp_path):
        _, data_csv, model_json = workdir
        out = str(tmp_path / "preds.json")
        rc = cli.main(["predict", "--model", model_json, "--dataset", data_csv,
                       "--format", "json", "--out", out])
        assert rc == 0
        rows = json.loads((tmp_path / "preds.json").read_text())
        assert len(rows) == 240
        assert set(rows[0]) == {"prediction", "probabilities"}

    def test_evaluate_reports_the_core_metrics(self, workdir, tmp_path):
        _, data_csv, model_json = workdir
        out = str(tmp_path / "metrics.json")
        rc = cli.main(["evaluate", "--model", model_json, "--dataset", data_csv,
                       "--format", "json", "--out", out])
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        for key in ("accuracy", "macro_f1", "nll", "ece"):
            assert key in metrics
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_evaluate_keeps_nll_scaled_finite_on_a_huge_accepted_row(
            self, workdir, tmp_path):
        # the model scores the row 1e307,0 finitely; at T = 0.05 its
        # scores / T overflowed, and evaluate printed nll_scaled,nan
        _, data_csv, model_json = workdir
        mdl, _, metadata = persist.load_model(model_json)
        cold = str(tmp_path / "cold.json")
        persist.save_model(mdl, cold, 0.05, metadata)
        header, *rows = open(data_csv).read().splitlines()
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join([header, *rows, "1e+307,0.0,1"]) + "\n")
        out = tmp_path / "metrics.csv"
        rc = cli.main(["evaluate", "--model", cold, "--dataset", str(huge),
                       "--out", str(out)])
        assert rc == 0
        metrics = dict(_read_table(out)[1])
        assert float(metrics["temperature"]) == 0.05
        assert np.isfinite(float(metrics["nll_scaled"]))

    def test_calibrate_changes_temperature_not_predictions(self, workdir,
                                                           tmp_path):
        _, data_csv, model_json = workdir
        recal = str(tmp_path / "recal.json")
        rc = cli.main(["calibrate", "--model", model_json, "--dataset",
                       data_csv, "--out", recal])
        assert rc == 0
        mdl, temperature, metadata = persist.load_model(recal)
        assert temperature is not None and temperature > 0
        assert "calibration" in metadata
        before, _, _ = persist.load_model(model_json)
        data = load_csv(data_csv)
        assert np.array_equal(
            np.argmax(class_scores(mdl, data.features), axis=1),
            np.argmax(class_scores(before, data.features), axis=1))

    def test_inspect_writes_the_report_bundle(self, workdir, tmp_path):
        _, data_csv, model_json = workdir
        out_dir = tmp_path / "report"
        rc = cli.main(["inspect", "--model", model_json, "--dataset", data_csv,
                       "--grid-resolution", "24", "--out-dir", str(out_dir)])
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        for name in ("plane_usage.csv", "responsibility_stats.json",
                     "saliency.csv", "decision_grid.csv", "decision_grid.svg",
                     "reliability_before.csv"):
            assert name in manifest["artifacts"]
            assert (out_dir / name).exists()
        svg = (out_dir / "decision_grid.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        stats = json.loads((out_dir / "responsibility_stats.json").read_text())
        assert 0.0 < stats["mean_max_responsibility"] <= 1.0

    def test_bench_smoke_run(self, tmp_path):
        out_dir = tmp_path / "bench"
        rc = cli.main(["bench", "--datasets", "aniso", "--seeds", "0",
                       "--lift", "linear", "--skip-latency", "--skip-scaling",
                       "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "bench_report.csv").exists()
        report = json.loads((out_dir / "bench_report.json").read_text())
        cells = report["cells"]
        assert len(cells) == 1
        assert cells[0]["dataset"] == "aniso"
        assert cells[0]["error"] is None

    @pytest.mark.parametrize("command", ["fit", "calibrate"])
    def test_out_to_a_missing_directory_exits_before_the_work(
            self, workdir, tmp_path, capsys, monkeypatch, command):
        # the whole fit, or the temperature fit, used to run, then fail
        # naming a temporary file
        _, data_csv, model_json = workdir
        monkeypatch.setattr(workflow, "train_classifier",
                            _must_not_run(workflow.train_classifier))
        monkeypatch.setattr(calibration, "fit_temperature",
                            _must_not_run(calibration.fit_temperature))
        argv = {"fit": ["fit", "--dataset", "moons"],
                "calibrate": ["calibrate", "--model", model_json,
                              "--dataset", data_csv]}[command]
        missing = tmp_path / "missing"
        rc = cli.main([*argv, "--out", str(missing / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--out" in err and str(missing) in err
        assert not missing.exists()

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--dataset", "aniso", "--noise", "5.0"],
         "aniso takes no noise"),
        (["generate", "--dataset", "moons", "--n", "0"],
         "n must be a whole number >= 2, got 0"),
        (["fit", "--dataset", "{csv}", "--noise", "9"], "takes no noise"),
        (["generate", "--dataset", "moons", "--noise", "nan"],
         "noise must be finite and >= 0, got nan"),
        (["generate", "--dataset", "circles", "--noise", "inf"],
         "noise must be finite and >= 0, got inf"),
    ], ids=["aniso-noise", "zero-n", "csv-noise", "nan-noise", "inf-noise"])
    def test_generator_parameter_it_would_ignore_is_refused(
            self, workdir, tmp_path, capsys, monkeypatch, argv, message):
        # each of these used to exit 0: aniso and the CSV dropped the noise,
        # --n 0 wrote the default 4000 rows and a non-finite noise wrote
        # 4000 non-finite ones
        monkeypatch.setattr(workflow, "train_classifier",
                            _must_not_run(workflow.train_classifier))
        out = tmp_path / "out"
        argv = [arg.format(csv=workdir[1]) for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_resolution_exits_before_any_artifact(
            self, workdir, tmp_path, capsys):
        _, data_csv, model_json = workdir
        out_dir = tmp_path / "report"
        rc = cli.main(["inspect", "--model", model_json, "--dataset", data_csv,
                       "--grid-resolution", "0", "--out-dir", str(out_dir)])
        assert rc == 1
        assert "--grid-resolution" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bench_refuses_a_file_as_out_dir_before_the_suite(
            self, tmp_path, monkeypatch):
        # the directory used to be made only after every cell was fitted
        monkeypatch.setattr(bench, "run_suite", _must_not_run(bench.run_suite))
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = cli.main(["bench", "--datasets", "aniso", "--seeds", "0",
                       "--out-dir", str(taken)])
        assert rc == 1

    def test_missing_model_file_exits_nonzero(self, tmp_path, capsys):
        rc = cli.main(["evaluate", "--model", str(tmp_path / "no.json"),
                       "--dataset", "moons"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        rc = cli.main(["evaluate", "--model", str(bad), "--dataset", "moons"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_generator_name_is_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            cli.main(["generate", "--dataset", "klein_bottle", "--n", "10",
                      "--out", "x.csv"])

    def test_unreadable_dataset_path_exits_nonzero(self, workdir, tmp_path,
                                                   capsys):
        _, _, model_json = workdir
        rc = cli.main(["evaluate", "--model", model_json,
                       "--dataset", str(tmp_path / "ghost.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def _read_table(path):
    """(header, rows) of a CSV file, checking every row is as long as the
    header."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)] * len(rows), path
    return header, rows


class TestTablesStayRectangular:
    """Names and messages holding a comma or a double quote are quoted, so
    every row of every table keeps one cell per column."""

    FEATURES = ('width, "cm"', "height")
    CLASSES = ('big, "round"', "small")

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("quoted")
        rng = np.random.default_rng(3)
        data_csv = str(root / "data.csv")
        with open(data_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*self.FEATURES, "label"])
            for i in range(60):
                label = i % 2
                writer.writerow([*rng.normal(2.0 * label, 0.5, 2).tolist(),
                                 self.CLASSES[label]])
        model = str(root / "model.json")
        common = ["--model", model, "--dataset", data_csv]
        for argv in (
                ["fit", "--dataset", data_csv, "--lift", "linear", "--planes",
                 "1", "--max-epochs", "5", "--out", model],
                ["predict", *common, "--out", str(root / "predict.csv")],
                ["evaluate", *common, "--out", str(root / "evaluate.csv")],
                ["inspect", *common, "--grid-resolution", "6",
                 "--out-dir", str(root / "inspect")]):
            assert cli.main(argv) == 0, argv
        return {os.path.relpath(p, root): _read_table(p)
                for p in sorted(root.rglob("*.csv")) if p.name != "data.csv"}

    def test_every_table_reads_back_rectangular(self, tables):
        assert {"model.train_log.csv", "predict.csv", "evaluate.csv",
                os.path.join("inspect", "saliency.csv"),
                os.path.join("inspect", "plane_usage.csv"),
                os.path.join("inspect", "decision_grid.csv"),
                os.path.join("inspect", "reliability_before.csv")} <= set(tables)

    def test_class_names_round_trip_through_predict(self, tables):
        header, rows = tables["predict.csv"]
        assert header == ["prediction", *(f"p_{n}" for n in self.CLASSES)]
        assert {row[0] for row in rows} <= set(self.CLASSES)

    def test_feature_names_round_trip_through_saliency(self, tables):
        header, rows = tables[os.path.join("inspect", "saliency.csv")]
        assert header == ["class", "plane", "feature", "weight"]
        assert {row[2] for row in rows} == set(self.FEATURES)

    def test_a_bench_error_with_commas_stays_one_cell(self, tmp_path):
        out_dir = tmp_path / "bench"
        rc = cli.main(["bench", "--datasets", "nope", "--seeds", "0",
                       "--skip-latency", "--skip-scaling",
                       "--out-dir", str(out_dir)])
        assert rc == 1   # every cell failed
        header, rows = _read_table(out_dir / "bench_report.csv")
        error = json.loads((out_dir / "bench_report.json").read_text()
                           )["cells"][0]["error"]
        assert "," in error
        assert len(rows) == 1
        assert rows[0][header.index("error")] == error
