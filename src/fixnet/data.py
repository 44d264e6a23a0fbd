"""Dataset container and CSV interchange helpers.

CSV format: header row ``x1,...,xd,y`` (``y`` omitted for prediction
inputs), decimal points, UTF-8, no thousands separators.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Dataset:
    """n observations of (x in R^d, y in R)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ParameterError(f"x must be an n x d matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ParameterError(
                f"y must have shape ({x.shape[0]},), got {y.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    def subset(self, rows):
        return Dataset(self.x[rows], self.y[rows])


def as_dataset(data):
    """data itself if it is a Dataset, else the Dataset of its pair (x, y)."""
    if isinstance(data, Dataset):
        return data
    return Dataset(data[0], data[1])


class CsvFormatError(ParameterError):
    pass


def _expect_header(header, want_y, path):
    if header is None:
        raise CsvFormatError(f"{path}: empty file, expected a header row")
    cols = [c.strip() for c in header]
    d = len(cols) - (1 if want_y else 0)
    expected = [f"x{i + 1}" for i in range(d)] + (["y"] if want_y else [])
    if d < 1 or cols != expected:
        hint = "x1,...,xd" + (",y" if want_y else "")
        raise CsvFormatError(
            f"{path}: header {cols!r} does not match the expected form {hint!r}"
        )
    return d


def _parse_rows(reader, width, path):
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise CsvFormatError(
                f"{path}:{lineno}: expected {width} fields, found {len(row)}"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from None
    return rows


def load_xy_csv(path):
    """Read a training CSV (x1..xd,y) into a Dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        d = _expect_header(header, True, path)
        rows = _parse_rows(reader, d + 1, path)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(x=arr[:, :d], y=arr[:, d])


def load_x_csv(path):
    """Read a prediction-input CSV (x1..xd) into an (n, d) array."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        d = _expect_header(header, False, path)
        rows = _parse_rows(reader, d, path)
    return np.asarray(rows, dtype=float).reshape(len(rows), d)
