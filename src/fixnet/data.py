"""Dataset container and CSV interchange helpers.

CSV format: header row ``x1,...,xd,y`` (``y`` omitted for prediction
inputs), decimal points, UTF-8, no thousands separators.
"""

import csv
import json
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


def as_batch(x, d):
    """x as an (n, d) float batch, and whether x was one (d,) point.

    A float array is not copied: a point comes back as a (1, d) view of
    it.  Any other shape, a 0-d value included, raises ParameterError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ParameterError(f"point has dimension {x.shape[0]}, expected {d}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ParameterError(f"batch has shape {x.shape}, expected (n, {d})")
    return x, False


def comment_header(title, seed, config, *notes):
    """The comment lines an output file starts with: its title, the master
    seed, one line per note, then the resolved config as sorted JSON."""
    return [f"# fixnet {title}", f"# seed: {seed}",
            *(f"# {note}" for note in notes),
            f"# config: {json.dumps(config, sort_keys=True)}"]


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


def _read_csv(path, want_y):
    """d and the float rows of a CSV whose header _expect_header checks."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        d = _expect_header(next(reader, None), want_y, path)
        return d, _parse_rows(reader, d + int(want_y), path)


def load_xy_csv(path):
    """Read a training CSV (x1..xd,y) into a Dataset."""
    d, rows = _read_csv(path, True)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(x=arr[:, :d], y=arr[:, d])


def load_x_csv(path):
    """Read a prediction-input CSV (x1..xd) into an (n, d) array."""
    d, rows = _read_csv(path, False)
    return np.asarray(rows, dtype=float).reshape(len(rows), d)
