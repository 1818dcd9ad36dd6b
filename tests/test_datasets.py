"""Generators, CSV round-trips, and the stratified splitter."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemix.datasets import (
    MAX_ROWS,
    Dataset,
    load_csv,
    make_aniso_blobs,
    make_circles,
    make_moons,
    make_two_spirals,
    save_csv,
    split_dataset,
)


def test_moons_shapes_and_balance():
    data = make_moons(400, 0.2, seed=3)
    assert data.features.shape == (400, 2)
    assert data.labels.shape == (400,)
    assert data.class_count == 2
    assert np.bincount(data.labels).tolist() == [200, 200]
    assert data.features.dtype == np.float64
    assert data.labels.dtype == np.int64


def test_moons_noise_free_points_lie_on_the_two_arcs():
    data = make_moons(200, 0.0, seed=0)
    x = data.features
    upper = x[data.labels == 0]
    lower = x[data.labels == 1]
    # upper arc: unit circle about the origin, y >= 0
    assert np.allclose(np.hypot(upper[:, 0], upper[:, 1]), 1.0, atol=1e-12)
    assert (upper[:, 1] >= -1e-12).all()
    # lower arc: unit circle about (1, 0.5), y <= 0.5
    assert np.allclose(np.hypot(lower[:, 0] - 1.0, lower[:, 1] - 0.5), 1.0,
                       atol=1e-12)
    assert (lower[:, 1] <= 0.5 + 1e-12).all()


def test_moons_seed_reproducibility():
    a = make_moons(300, 0.25, seed=9)
    b = make_moons(300, 0.25, seed=9)
    c = make_moons(300, 0.25, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_circles_radii_ordering():
    data = make_circles(400, radius_ratio=0.5, noise=0.0, seed=1)
    r = np.hypot(data.features[:, 0], data.features[:, 1])
    outer = r[data.labels == 0]
    inner = r[data.labels == 1]
    assert np.allclose(outer, 1.0, atol=1e-12)
    assert np.allclose(inner, 0.5, atol=1e-12)


@pytest.mark.parametrize("make,kwargs,name", [
    (make_circles, {"radius_ratio": 1.5}, "radius_ratio"),
    (make_moons, {"noise": float("nan")}, "noise"),
    (make_moons, {"noise": float("inf")}, "noise"),
    (make_circles, {"noise": float("nan")}, "noise"),
    (make_circles, {"noise": float("inf")}, "noise"),
    (make_two_spirals, {"turns": float("nan")}, "turns"),
    (make_two_spirals, {"turns": float("inf")}, "turns"),
    (make_moons, {"n": 2.5}, "n"),
    (make_moons, {"n": True}, "n"),
    (make_moons, {"seed": -1}, "seed"),
    (make_moons, {"seed": 1.5}, "seed"),
    (make_aniso_blobs, {"n": 2}, "n"),
    (make_two_spirals, {"seed": -1}, "seed"),
    (make_moons, {"noise": 1e308}, "noise"),
    (make_circles, {"noise": 1e308}, "noise"),
    (make_two_spirals, {"turns": 1e308}, "turns"),
    (make_circles, {"n": MAX_ROWS + 1}, "n")])
def test_generators_refuse_a_bad_parameter_by_name(make, kwargs, name):
    # a non-finite noise or turns used to return non-finite rows, and so
    # did a huge finite one, after numpy's overflow warning; n=2.5 and a
    # bad seed raised numpy errors naming no parameter, n=True was 1, and
    # any n, however large, was attempted
    kwargs = {"n": 100, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must "):
        make(**kwargs)


@pytest.mark.parametrize("build,name", [
    (lambda: split_dataset(make_moons(30), -1), "seed"),
    (lambda: split_dataset(make_moons(30), 1.5), "seed"),
    (lambda: Dataset(np.zeros((2, 2)), np.array([0, 1]), 2.5), "class_count"),
    (lambda: Dataset(np.zeros((2, 2)), np.array([0, 0]), 1), "class_count")],
    ids=["negative-seed", "fraction-seed", "fraction-class-count",
         "one-class"])
def test_split_and_dataset_refuse_a_bad_scalar_by_name(build, name):
    # the split took a negative seed that failed later in numpy; Dataset
    # took class_count 2.5
    with pytest.raises(ValueError, match=f"^{name} must "):
        build()


def test_spirals_are_point_symmetric():
    data = make_two_spirals(300, turns=2.0, seed=0)
    a = data.features[data.labels == 0]
    b = data.features[data.labels == 1]
    assert np.allclose(a, -b, atol=1e-12)


def test_aniso_blobs_three_classes():
    data = make_aniso_blobs(450, seed=2)
    assert data.class_count == 3
    assert np.bincount(data.labels).tolist() == [150, 150, 150]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_generators_are_deterministic_in_seed(seed):
    a = make_circles(60, seed=seed)
    b = make_circles(60, seed=seed)
    assert np.array_equal(a.features, b.features)


@pytest.mark.parametrize("class_names", [None, [" a", "b "]],
                         ids=["numbered", "spaced-names"])
@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_csv_round_trip_is_exact(tmp_path, line_end, class_names):
    # label cells are kept as written: " a" used to read back as "a"
    data = make_moons(120, 0.25, seed=5)
    data.class_names = class_names
    path = tmp_path / "moons.csv"
    save_csv(data, str(path))
    text = path.read_bytes()
    assert b"\r" not in text
    # load_csv reads CRLF line ends as well as the LF that save_csv writes
    path.write_bytes(text.replace(b"\n", line_end))
    back = load_csv(str(path))
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    assert back.class_count == data.class_count
    assert back.class_names == (class_names or ["0", "1"])


def test_csv_labels_encoded_by_first_appearance(tmp_path):
    path = tmp_path / "pets.csv"
    path.write_text("size,weight,label\n"
                    "1.0,2.0,dog\n"
                    "3.0,4.0,cat\n"
                    "5.0,6.0,dog\n")
    data = load_csv(str(path))
    assert data.labels.tolist() == [0, 1, 0]
    assert data.class_names == ["dog", "cat"]


def test_csv_parse_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,oops,0\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(str(path))
    with pytest.raises(ValueError, match="'b'"):
        load_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " Infinity", "1e999"])
def test_csv_non_finite_cell_names_row_and_column(tmp_path, cell):
    # float() parses these, so they used to load and fail only at save time
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b,label\n1.0,2.0,x\n3.0,{cell},y\n")
    with pytest.raises(ValueError, match=r"row 2, column 'b'"):
        load_csv(str(path))


CSV_CELLS = st.one_of(st.floats().map(repr),
                      st.sampled_from(["nan", "-inf", "Infinity", "1e999", "",
                                       "oops", " 2.5 ", "-0"]))


@given(st.lists(st.tuples(CSV_CELLS, CSV_CELLS), min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_csv_loader_keeps_exactly_the_finite_cells_or_names_the_first_bad(rows):
    def parse(cell):
        try:
            return float(cell)
        except ValueError:
            return math.nan

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cells.csv")
        with open(path, "w") as fh:
            fh.write("a,b,label\n")
            for i, row in enumerate(rows):
                fh.write(",".join(row) + f",{'pq'[i % 2]}\n")
        bad = [(i, name) for i, row in enumerate(rows)
               for name, cell in zip("ab", row)
               if not math.isfinite(parse(cell))]
        if bad:
            i, name = bad[0]
            with pytest.raises(ValueError, match=f"row {i + 1}, column '{name}'"):
                load_csv(path)
        else:
            data = load_csv(path)
            expected = [[parse(c) for c in row] for row in rows]
            assert np.array_equal(data.features, np.array(expected))
            assert np.isfinite(data.features).all()


def test_stratified_split_partition_properties():
    data = make_moons(1000, 0.25, seed=0)
    tr, va, te = split_dataset(data, 0)
    assert len(tr.labels) == 600
    assert len(va.labels) == 200
    assert len(te.labels) == 200
    # per-class proportions survive the split
    for part in (tr, va, te):
        counts = np.bincount(part.labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1
    # the three parts tile the original multiset of rows exactly
    stacked = np.vstack([tr.features, va.features, te.features])
    assert np.array_equal(np.sort(stacked, axis=0),
                          np.sort(data.features, axis=0))


@given(st.integers(min_value=40, max_value=400),
       st.integers(min_value=0, max_value=999))
@settings(max_examples=25, deadline=None)
def test_stratified_split_never_loses_or_duplicates_rows(n, seed):
    n -= n % 4
    data = make_circles(n, seed=seed)
    tr, va, te = split_dataset(data, seed)
    assert len(tr.labels) + len(va.labels) + len(te.labels) == n
    key = data.features[:, 0]
    split_key = np.concatenate(
        [tr.features[:, 0], va.features[:, 0], te.features[:, 0]])
    assert np.array_equal(np.sort(key), np.sort(split_key))


def test_dataset_subset_rejects_label_outside_range():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
