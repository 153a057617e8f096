"""Regular lat/lon rasters: quality filtering, regridding of point samples, cropping.

Cells are half-open boxes, so every point falls in exactly one cell. Raster
values are unit-agnostic reals; a boolean mask marks cells that carry data.
Invalid cells are excluded from every downstream statistic.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .fileio import read_with_sidecar, sidecar, write_atomic

M_PER_DEG_LAT = 111320.0  # meters per degree of latitude
CSV_BLOCK_ROWS = 512   # rows table_to_csv formats at a time


def fmt_floats(a: np.ndarray) -> list[str]:
    """The repr of a Python float, the shortest decimal form that parses back
    to the same float, of every entry of a 1-D float array, once per distinct
    bit pattern: bits keep -0.0 apart from 0.0."""
    bits, at = np.unique(np.asarray(a, dtype=float).view(np.int64),
                         return_inverse=True)
    return np.array([repr(x) for x in bits.view(float).tolist()],
                    dtype=object)[at].tolist()


@dataclass(frozen=True)
class GridSpec:
    """Regular grid; cell (r, c) covers
    [lat_min + r*cell, lat_min + (r+1)*cell) x [lon_min + c*cell, lon_min + (c+1)*cell).
    """

    lat_min: float
    lon_min: float
    cell_size: float = 0.045
    n_rows: int = 1
    n_cols: int = 1

    def __post_init__(self) -> None:
        for name in ("lat_min", "lon_min", "cell_size"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be > 0")
        if not (_COUNT[1](self.n_rows) and _COUNT[1](self.n_cols)):
            raise ValueError("grid needs at least one row and one column")

    @property
    def lat_max(self) -> float:
        return self.lat_min + self.n_rows * self.cell_size

    @property
    def lon_max(self) -> float:
        return self.lon_min + self.n_cols * self.cell_size

    def lat_centers(self) -> np.ndarray:
        return self.lat_min + (np.arange(self.n_rows) + 0.5) * self.cell_size

    def lon_centers(self) -> np.ndarray:
        return self.lon_min + (np.arange(self.n_cols) + 0.5) * self.cell_size

    def contains(self, lat: float, lon: float) -> bool:
        return (self.lat_min <= lat <= self.lat_max
                and self.lon_min <= lon <= self.lon_max)


@dataclass
class GridImage:
    """A raster plus its validity mask, both shaped (n_rows, n_cols)."""

    spec: GridSpec
    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        shape = (self.spec.n_rows, self.spec.n_cols)
        if self.values.shape != shape or self.valid.shape != shape:
            raise ValueError(f"values/valid must have shape {shape}")

    def valid_values(self) -> np.ndarray:
        return self.values[self.valid]


def table_dtype(header: str) -> np.dtype:
    """Record dtype of a CSV table: one field per column of the header, int64
    for `mmsi` and float for the rest; an item reads as np.record (`.mmsi`)."""
    return np.dtype((np.record, [(name, np.int64 if name == "mmsi" else float)
                                 for name in header.split(",")]))


# Scattered observations with their quality descriptors, one record per
# sample; the fields are the columns of a samples CSV.
SAMPLES_HEADER = "lat,lon,value,qa,cloud_fraction"
SAMPLE_DTYPE = table_dtype(SAMPLES_HEADER)


def quality_filter(samples: np.ndarray, qa_min: float = 0.5,
                   cloud_max: float = 0.5) -> np.ndarray:
    """Keep samples with qa strictly above qa_min and cloud fraction strictly
    below cloud_max; input order is preserved."""
    return samples[(samples["qa"] > qa_min)
                   & (samples["cloud_fraction"] < cloud_max)]


def regrid(samples: np.ndarray, spec: GridSpec) -> GridImage:
    """Average sample values per cell; cells without samples are invalid and
    samples outside the grid extent are ignored."""
    sums = np.zeros((spec.n_rows, spec.n_cols))
    counts = np.zeros((spec.n_rows, spec.n_cols), dtype=int)
    r = np.floor((samples["lat"] - spec.lat_min) / spec.cell_size).astype(int)
    c = np.floor((samples["lon"] - spec.lon_min) / spec.cell_size).astype(int)
    inb = (r >= 0) & (r < spec.n_rows) & (c >= 0) & (c < spec.n_cols)
    np.add.at(sums, (r[inb], c[inb]), samples["value"][inb])
    np.add.at(counts, (r[inb], c[inb]), 1)
    valid = counts > 0
    values = np.full((spec.n_rows, spec.n_cols), np.nan)
    values[valid] = sums[valid] / counts[valid]
    return GridImage(spec, values, valid)


def crop(image: GridImage, center_lat: float, center_lon: float,
         half_extent: float = 0.4) -> GridImage:
    """Sub-raster of the cells whose centers fall in the closed square
    center +- half_extent; georeferencing is preserved.

    With the default cell size the result never exceeds 18 cells per axis.
    """
    spec = image.spec
    if not spec.contains(center_lat, center_lon):
        raise ValueError("center out of bounds")
    lat_c = spec.lat_centers()
    lon_c = spec.lon_centers()
    rsel = np.nonzero((lat_c >= center_lat - half_extent)
                      & (lat_c <= center_lat + half_extent))[0]
    csel = np.nonzero((lon_c >= center_lon - half_extent)
                      & (lon_c <= center_lon + half_extent))[0]
    if rsel.size == 0 or csel.size == 0:
        raise ValueError("empty crop")
    r0, r1 = int(rsel[0]), int(rsel[-1])
    c0, c1 = int(csel[0]), int(csel[-1])
    sub = GridSpec(lat_min=spec.lat_min + r0 * spec.cell_size,
                   lon_min=spec.lon_min + c0 * spec.cell_size,
                   cell_size=spec.cell_size,
                   n_rows=r1 - r0 + 1, n_cols=c1 - c0 + 1)
    return GridImage(sub, image.values[r0:r1 + 1, c0:c1 + 1].copy(),
                     image.valid[r0:r1 + 1, c0:c1 + 1].copy())


# --- file formats ---------------------------------------------------------

def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _finite_number(v) -> bool:
    """v is a finite int or float (numpy scalars too), and not a bool."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and math.isfinite(v))


# (rule, test) pairs for parameter values
_POSITIVE = ("finite and > 0", lambda v: _finite_number(v) and v > 0)
_NON_NEGATIVE = ("finite and >= 0", lambda v: _finite_number(v) and v >= 0)
_COUNT = ("an int >= 1", lambda v: isinstance(v, (int, np.integer))
          and not isinstance(v, bool) and v >= 1)


def _check_rules(kind: str, values: dict, rules: dict) -> None:
    """Reject the first value, in rule order, that breaks its rule."""
    for name, (rule, holds) in rules.items():
        if not holds(values[name]):
            raise ValueError(f"{kind} {name} must be {rule}, "
                             f"got {values[name]!r}")


def _parse_rows(text: str, header: str, kind: str, convert) -> list:
    """convert(fields) for every data line of a CSV with the given header;
    any error names the file kind and the line number."""
    # line numbers, not (number, line) tuples the garbage collector tracks
    lines = text.splitlines()
    numbers = [k for k, ln in enumerate(lines, 1) if ln.strip()]
    if not numbers or lines[numbers[0] - 1] != header:
        raise ValueError(f"bad {kind} CSV header")
    n_fields = header.count(",") + 1
    out = []
    for k in numbers[1:]:
        fields = lines[k - 1].split(",")
        try:
            if len(fields) != n_fields:
                raise ValueError("wrong field count")
            out.append(convert(fields))
        except ValueError as exc:
            raise ValueError(f"{kind} CSV line {k}: {exc}") from None
    return out


def grid_to_csv(image: GridImage) -> str:
    """Serialize to grid-csv: '#key=value' header lines, then one comma-joined
    row of values per grid row; invalid cells are written as nan."""
    spec, n = image.spec, image.spec.n_cols
    cells = fmt_floats(np.concatenate([
        [spec.lat_min, spec.lon_min, spec.cell_size],
        np.where(image.valid, image.values, np.nan).ravel()]))
    lines = [f"#{key}={cell}" for key, cell in
             zip(("lat_min", "lon_min", "cell_size"), cells)]
    lines += [f"#n_rows={spec.n_rows}", f"#n_cols={n}"]
    lines += [",".join(cells[i:i + n]) for i in range(3, len(cells), n)]
    return "\n".join([*lines, ""])


def parse_grid_csv(text: str) -> GridImage:
    """Parse grid-csv; a nan cell is invalid, and an infinite or unparsable
    cell or a repeated or unknown header key is rejected with its line."""
    header = dict.fromkeys("lat_min lon_min cell_size n_rows n_cols".split())
    body: list[tuple[int, str]] = []
    bad_key = None
    for k, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if header.get(key, "") is not None:  # unknown, or read before
                bad_key = (f"grid-csv line {k}: repeated or unknown "
                           f"header #{key}=")
                break   # reported after a bad row above it
            header[key] = value
        elif line.strip():
            body.append((k, line))
    try:   # one cast of every token; line by line only to name a bad one
        values = np.array(",".join(line for _, line in body).split(",")
                          if body else [], dtype=float)
    except ValueError:
        for k, line in body:
            try:
                [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"grid-csv line {k}: {exc}") from None
        raise
    if bad_key:
        raise ValueError(bad_key)
    fields = {}
    for key, value in header.items():
        if value is None:
            raise ValueError(f"grid-csv header missing #{key}=")
        try:   # the counts are ints, the rest floats
            fields[key] = (int if key.startswith("n_") else float)(value)
        except ValueError as exc:
            raise ValueError(f"grid-csv header #{key}=: {exc}") from None
    spec = GridSpec(**fields)
    if len(body) != spec.n_rows or any(line.count(",") != spec.n_cols - 1
                                       for _, line in body):
        raise ValueError("grid-csv body does not match declared shape")
    values = values.reshape(spec.n_rows, spec.n_cols)
    inf_rows = np.nonzero(np.isinf(values).any(axis=1))[0]
    if inf_rows.size:
        raise ValueError(f"grid-csv line {body[inf_rows[0]][0]}: "
                         "infinite value")
    return GridImage(spec, values, ~np.isnan(values))


def write_grid(path: str | Path, image: GridImage) -> None:
    """Write grid_to_csv(image), then its sidecar <path>.npz: spec (lat_min,
    lon_min, cell_size) and values, nan in every invalid cell."""
    write_atomic(path, text := grid_to_csv(image))
    write_atomic(f"{path}.npz", sidecar([text.encode()], lambda: {
        "spec": np.array(astuple(image.spec)[:3], dtype=float),
        "values": np.where(image.valid, image.values, np.nan)}))


def read_grid(path: str | Path, parse=parse_grid_csv) -> GridImage:
    """The image of a grid-csv file: parse(text), or the sidecar's if its
    spec is 3 floats and its values a 2-D float raster without inf."""
    def load(a: dict) -> GridImage | None:
        spec, values = a["spec"], a["values"]
        if (spec.dtype == values.dtype == float and spec.shape == (3,)
                and values.ndim == 2 and not np.isinf(values).any()):
            values = np.where(np.isnan(values), np.nan, values)   # parse's nan
            return GridImage(GridSpec(*spec.tolist(), *values.shape), values,
                             ~np.isnan(values))
    return read_with_sidecar(path, load, parse)


def table_to_csv(columns: dict[str, np.ndarray]) -> str:
    """CSV of a table given as {name: 1-D array}: the names as the header,
    then one line per row; a float column by the repr of each value, any
    other column by str. A block of rows at a time, fmt_floats formats each
    distinct value of a column once, and most repeat."""
    lines = [",".join(columns)]
    for start in range(0, len(next(iter(columns.values()))), CSV_BLOCK_ROWS):
        at = slice(start, start + CSV_BLOCK_ROWS)
        lines += map(",".join, zip(*[
            fmt_floats(col[at]) if col.dtype.kind == "f"
            else map(str, col[at].tolist()) for col in columns.values()]))
    return "\n".join([*lines, ""])   # one copy of the text, not two


def parse_table(text: str, dtype: np.dtype, kind: str, convert) -> np.ndarray:
    """The table of a CSV whose header is the dtype's field names;
    convert(fields) checks one row and returns its values."""
    return np.array(_parse_rows(text, ",".join(dtype.names), kind, convert),
                    dtype=dtype)


def _sample(fields: list[str]) -> tuple[float, ...]:
    sample = tuple(map(_finite, fields))
    for name, value in zip(("qa", "cloud_fraction"), sample[3:]):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    return sample


def parse_samples_csv(text: str) -> np.ndarray:
    return parse_table(text, SAMPLE_DTYPE, "samples", _sample)
