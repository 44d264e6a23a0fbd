"""Tests for the dataset container and CSV interchange."""

import numpy as np
import pytest

from fixnet.data import (CsvFormatError, Dataset, as_batch, load_x_csv,
                         load_xy_csv)
from fixnet.errors import ParameterError


def test_as_batch_views_a_point_and_refuses_other_shapes():
    point = np.array([0.5, -0.25])
    batch, single = as_batch(point, 2)
    assert single and batch.shape == (1, 2)
    assert np.shares_memory(batch, point)
    rows = np.zeros((3, 2))
    batch, single = as_batch(rows, 2)
    assert not single and batch is rows
    assert as_batch([[1, 2]], 2)[0].dtype == float
    # A 0-d value is no point, even for d = 1.
    for bad, d in ((np.float64(0.5), 1), (0.5, 1), (np.zeros((2, 2, 1)), 2),
                   (np.zeros(3), 2), (np.zeros((3, 1)), 2)):
        with pytest.raises(ParameterError):
            as_batch(bad, d)


def test_dataset_shape_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros(5), np.zeros(5))
    with pytest.raises(ParameterError):
        Dataset(np.zeros((5, 2)), np.zeros(4))
    data = Dataset(np.arange(10.0).reshape(5, 2), np.arange(5.0))
    assert data.n == 5 and data.d == 2
    sub = data.subset([0, 2])
    assert sub.n == 2
    assert np.array_equal(sub.y, np.array([0.0, 2.0]))


def test_load_xy_round_trip(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x1,x2,y\n0.5,-1.25,2.0\n1e-3,4,0.125\n")
    data = load_xy_csv(path)
    assert data.n == 2 and data.d == 2
    assert np.array_equal(data.x, np.array([[0.5, -1.25], [1e-3, 4.0]]))
    assert np.array_equal(data.y, np.array([2.0, 0.125]))


def test_load_xy_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1,2,3\n")
    with pytest.raises(CsvFormatError, match="header"):
        load_xy_csv(path)
    path.write_text("x1,x2\n1,2\n")
    with pytest.raises(CsvFormatError, match="x1,...,xd,y"):
        load_xy_csv(path)
    path.write_text("")
    with pytest.raises(CsvFormatError, match="empty file"):
        load_xy_csv(path)


def test_load_xy_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1,2\noops,3\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:3"):
        load_xy_csv(path)
    path.write_text("x1,y\n1,2\n1,2,3\n")
    with pytest.raises(CsvFormatError, match="expected 2 fields, found 3"):
        load_xy_csv(path)
    path.write_text("x1,y\n")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_xy_csv(path)


def test_load_x_handles_empty_and_blank_lines(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("x1,x2,x3\n")
    arr = load_x_csv(path)
    assert arr.shape == (0, 3)
    path.write_text("x1,x2\n0.5,1.5\n\n-1,2\n")
    arr = load_x_csv(path)
    assert arr.shape == (2, 2)
    assert np.array_equal(arr, np.array([[0.5, 1.5], [-1.0, 2.0]]))
